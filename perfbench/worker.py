"""The workload process: runs commix the way ``commix run`` does.

Two modes, both started by ``run.py`` with ``PYTHONPATH`` pointing at the
package sources and the BLAS thread count fixed in the environment:

``worker.py setup CONFIG``
    Import commix, validate the config and build every scenario's model, then
    exit.  ``run.py`` times the whole process, start-up included.

``worker.py passes PRIMARY SECONDARY --seconds S --trace T --out DIR --summary FILE``
    Run ``run_config`` passes over the two configs in turn (primary first)
    until ``S`` seconds have passed and at least three passes are done, so
    the primary config is run twice or more.  With ``--trace 1`` the third
    pass may be the final, traced pass over the primary config.  The summary lists each pass's wall
    time and report directory, the calibration times measured before the
    first pass and after each untraced pass (see :func:`calibrate`), the peak
    resident memory, the traced layer times and the environment.

Each config sits in its own directory, which is the working directory while
that config is validated, built and run, so relative matrix paths resolve.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import sys
import time

from spans import Tracer, root_time, self_times

MIN_PASSES = 3


CALIBRATION_REPEATS = 5


def calibrate():
    """Mean seconds of a fixed mix of the kinds of work commix does.

    The mix covers an interpreter-bound loop, short BLAS calls in a Python
    loop, larger matrix products, FFTs with elementwise phases, and a
    Hermitian eigensolve.  It runs ``CALIBRATION_REPEATS`` times (about half
    a second in all) so that the result averages the machine's speed over a
    stretch of time, as a pass does.  The garbage collector is off while it
    runs, so its time does not depend on how many objects the process holds.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    small = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    big0 = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    signal0 = rng.standard_normal(16384) + 0j
    ramp = np.exp(0.001j * np.arange(signal0.size))
    gc.disable()
    try:
        tic = time.perf_counter()
        for _ in range(CALIBRATION_REPEATS):
            total = 0
            for k in range(400000):
                total += (k * k) % 7
            acc = small
            for _ in range(1000):
                acc = small @ acc @ small.conj().T
                acc /= np.abs(acc).max()
            big = big0
            for _ in range(12):
                big = big @ big
                big /= np.abs(big).max()
            signal = signal0
            for _ in range(30):
                signal = np.fft.ifft(np.fft.fft(signal) * ramp)
            np.linalg.eigh(big0 + big0.conj().T)
        return (time.perf_counter() - tic) / CALIBRATION_REPEATS
    finally:
        gc.enable()


def _load(config_path):
    return json.loads(pathlib.Path(config_path).read_text())


def setup(config_path):
    from commix.cli import build_model, validate_config

    config_path = pathlib.Path(config_path).resolve()
    os.chdir(config_path.parent)
    config = validate_config(_load(config_path))
    for scenario in config["scenarios"]:
        build_model(scenario)


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _run_pass(cli, config_dir, config, out_dir):
    os.chdir(config_dir)
    tic = time.perf_counter()
    cli.run_config(config, out_dir, threads=1)
    return time.perf_counter() - tic


def passes(primary, secondary, seconds, trace, out, summary):
    from commix import cli

    out = pathlib.Path(out).resolve()
    sources = []
    for label, path in (("primary", primary), ("secondary", secondary)):
        path = pathlib.Path(path).resolve()
        os.chdir(path.parent)
        sources.append((label, path, _load(path)))
    validated = {}
    for label, path, raw in sources:
        os.chdir(path.parent)
        validated[label] = cli.validate_config(raw)

    records = []
    calibrations = [calibrate()]
    start = time.perf_counter()
    while len(records) < MIN_PASSES - trace or time.perf_counter() - start < seconds:
        label, path, _ = sources[len(records) % 2]
        target = out / f"pass-{len(records):02d}"
        wall = _run_pass(cli, path.parent, validated[label], target)
        records.append({"config": label, "out": str(target), "wall_s": wall, "traced": False})
        calibrations.append(calibrate())

    traced = None
    if trace:
        traced = _traced_pass(cli, sources[0], out / f"pass-{len(records):02d}")
        records.append(traced.pop("record"))

    result = {
        "passes": records,
        "calibration_s": calibrations,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": traced,
        "env": _environment(),
    }
    pathlib.Path(summary).write_text(json.dumps(result))


def _traced_pass(cli, source, target):
    """Validate, build and run the primary config with every traced name wrapped."""
    label, path, raw = source
    os.chdir(path.parent)
    tracer = Tracer()
    with tracer:
        tic = time.perf_counter()
        config = cli.validate_config(raw)
        for scenario in config["scenarios"]:
            cli.build_model(scenario)
        run_tic = time.perf_counter()
        cli.run_config(config, target, threads=1)
        toc = time.perf_counter()
    return {
        "record": {"config": label, "out": str(target), "wall_s": toc - run_tic, "traced": True},
        "wall_s": toc - tic,
        "covered_s": root_time(tracer.spans),
        "layers": {name: list(v) for name, v in self_times(tracer.spans).items()},
        "counters": dict(tracer.counters),
        "absent": tracer.absent,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("config")
    p_passes = sub.add_parser("passes")
    p_passes.add_argument("primary")
    p_passes.add_argument("secondary")
    p_passes.add_argument("--seconds", type=float, required=True)
    p_passes.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_passes.add_argument("--out", required=True)
    p_passes.add_argument("--summary", required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.config)
    else:
        passes(args.primary, args.secondary, args.seconds, args.trace, args.out, args.summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
