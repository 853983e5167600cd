"""commix benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark generates the
workload's configs from the seed, times ``commix`` start-up and model
construction in fresh processes (``setup_s``), and runs ``run_config``
passes in one workload process for ``S`` seconds.  It then checks every
report: each task's status must equal the status pinned in
``workloads.py``, no task may fail, and reruns of a config must give the same
``report.json`` bytes.  With ``--trace 1`` the workload process adds one pass
with spans around the public functions of every layer and the metrics are the
per-layer ones.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = pathlib.Path(__file__).resolve().parent

# Scenario load comes from one process; BLAS may use every core, up to two.
BLAS_THREADS = max(1, min(2, os.cpu_count() or 1))
# Nominal time of worker.calibrate(); timings are rescaled to this speed.
NOMINAL_CALIBRATION_S = 0.115
SETUP_PROBES = 3
SECONDARY_SEED_OFFSET = 1_000_003
RUN_DEADLINE_S = 170.0
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it
MAX_PROBLEMS_SHOWN = 20

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("scenario_s_p50", "s"),
    ("worst_gate_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

WORK_COUNTERS = (
    "commutators.birkhoff_steps",
    "commutators.quadrature_intervals",
    "mixing.fourier_orders",
    "skew.su2_point_steps",
)


def per_layer_metrics():
    """Names and units of the metrics printed with ``--trace 1``."""
    out = []
    for name in spans.span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(name, "count") for name in WORK_COUNTERS]
    out += [(f"{layer}.self_s", "s") for layer in spans.LAYERS]
    out += [
        ("cli.report_bytes", "bytes"),
        ("cli.tasks_pass", "count"),
        ("cli.tasks_warn", "count"),
        ("cli.tasks_fail", "count"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.absent", "count"),
    ]
    return out


# -- checks on reports ----------------------------------------------------------


def gate_ratios(report):
    """Measured value over its fixed threshold, for every gate in a report.

    Gates: identity residual and alternative gap, torus sup error, SU(2)
    eigenvalue deviation, graph identity and flow residuals, Fourier
    reconstruction.  The continuous flow-residual factor is left out because
    its denominator is the quadrature's own error estimate.
    """
    ratios = []
    for scenario in report["scenarios"]:
        for row in scenario["tasks"]:
            m, th = row["metrics"], row["thresholds"]
            if "identity_residual" in th and "residuals" in m:
                cap = th["identity_residual"]
                ratios += [r / max(e, cap) for r, e in zip(m["residuals"], m["expected"])]
            if "alternative_agreement" in th and "alternative_gaps" in m:
                ratios += [g / th["alternative_agreement"] for g in m["alternative_gaps"]]
            if "graph_identity_residual" in th and "degree_identity" in m:
                worst = max(m["momentum_commutator"], m["degree_identity"])
                ratios.append(worst / th["graph_identity_residual"])
            if "torus_sup_error" in th and "final_sup_error" in m:
                ratios.append(m["final_sup_error"] / th["torus_sup_error"])
            if "su2_eigenvalue_rel" in th and "relative_deviation" in m:
                ratios.append(m["relative_deviation"] / th["su2_eigenvalue_rel"])
            if "graph_flow_residual" in th and "flow_residuals" in m:
                ratios.append(max(m["flow_residuals"].values()) / th["graph_flow_residual"])
            if "fourier_recon" in th and "recon_error" in m:
                ratios.append(m["recon_error"] / th["fourier_recon"])
    return ratios


def status_failures(report, expected):
    """Tasks whose status is ``fail``, differs from the pin, or is missing."""
    failures = []
    seen = set()
    for scenario in report["scenarios"]:
        pins = expected.get(scenario["name"], {})
        for row in scenario["tasks"]:
            seen.add((scenario["name"], row["task"]))
            want = pins.get(row["task"])
            if row["status"] == "fail" or row["status"] != want:
                failures.append(f"{scenario['name']}/{row['task']}: {row['status']} (pinned {want})")
    for name, pins in expected.items():
        failures += [f"{name}/{task}: missing" for task in pins if (name, task) not in seen]
    return failures


def rerun_mismatches(reference_text, text):
    """Task count of the scenarios whose entries differ between two reports."""
    if reference_text == text:
        return 0
    ref = {sc["name"]: sc for sc in json.loads(reference_text)["scenarios"]}
    count = 0
    for sc in json.loads(text)["scenarios"]:
        if json.dumps(sc, sort_keys=True) != json.dumps(ref.get(sc["name"]), sort_keys=True):
            count += len(sc["tasks"])
    return max(count, 1)


def speed_scale(calibrations):
    """Factor that rescales times measured among these calibrations.

    The machine's speed drifts by tens of percent over tens of seconds; a
    time multiplied by this factor is the time at the nominal speed.  The
    median ignores a calibration caught by a short burst of outside load.
    """
    return NOMINAL_CALIBRATION_S / statistics.median(calibrations)


def p90_or_none(samples):
    if len(samples) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


# -- processes ------------------------------------------------------------------


def _blas_env():
    return {var: str(BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")}


def _child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(_blas_env())
    return env


def _run_child(args, env, cwd, deadline):
    """Run a child to completion; raise RuntimeError on failure or timeout."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc


def _write_config(directory, config, files):
    directory.mkdir(parents=True)
    for rel, text in files.items():
        target = directory / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    return path


def _source_digest(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit(root):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


# -- the run --------------------------------------------------------------------


def measure(root, work, workload, seed, seconds, trace, deadline):
    import workloads
    from worker import calibrate

    configs = {}
    for label, config_seed in (("primary", seed), ("secondary", seed + SECONDARY_SEED_OFFSET)):
        config, expected, files = workloads.make_config(workload, config_seed)
        configs[label] = (_write_config(work / label, config, files), expected)

    env = _child_env(root)
    setup_walls = []
    if not trace:
        primary_config = configs["primary"][0]
        calibrations = [calibrate()]
        for _ in range(SETUP_PROBES):
            tic = time.perf_counter()
            _run_child(["setup", str(primary_config)], env, primary_config.parent, deadline)
            setup_walls.append(time.perf_counter() - tic)
        calibrations.append(calibrate())
        setup_scale = speed_scale(calibrations)

    summary_path = work / "summary.json"
    _run_child(["passes", str(configs["primary"][0]), str(configs["secondary"][0]),
                "--seconds", str(seconds), "--trace", str(trace),
                "--out", str(work / "out"), "--summary", str(summary_path)],
               env, work, deadline)
    summary = json.loads(summary_path.read_text())

    attempted = failed = 0
    problems = []
    reference = {}
    ratios, scenario_walls = [], []
    for record in summary["passes"]:
        out = pathlib.Path(record["out"])
        text = (out / "report.json").read_text()
        report = json.loads(text)
        expected = configs[record["config"]][1]
        attempted += sum(len(sc["tasks"]) for sc in report["scenarios"])
        bad = status_failures(report, expected)
        problems += bad
        failed += len(bad)
        if record["config"] in reference:
            mismatched = rerun_mismatches(reference[record["config"]], text)
            if mismatched:
                problems.append(f"{out.name}: report.json differs from the first "
                                f"{record['config']} pass")
            failed += mismatched
        else:
            reference[record["config"]] = text
        ratios += gate_ratios(report)
        meta = json.loads((out / "report.meta.json").read_text())
        if not record["traced"]:
            scenario_walls += list(meta["scenario_wall_times_s"].values())

    untraced = [r["wall_s"] for r in summary["passes"] if not r["traced"]]
    scale = speed_scale(summary["calibration_s"])
    info = {
        "passes": len(untraced),
        "pass_walls": [r["wall_s"] for r in summary["passes"]],
        "calibration_s": summary["calibration_s"],
        "tasks_failed_ratio": failed / attempted if attempted else 1.0,
        "scenario_samples": len(scenario_walls),
        "scenario_s_p90": p90_or_none([w * scale for w in scenario_walls]),
        "problems": problems,
        "absent": summary["trace"]["absent"] if trace else [],
        "env": {**summary["env"], "commit": _commit(root), "src_sha256": _source_digest(root)},
    }
    if trace:
        metrics = _per_layer(summary, untraced)
    else:
        metrics = {
            "wall_s": statistics.median(untraced) * scale,
            "setup_s": statistics.median(setup_walls) * setup_scale,
            "scenario_s_p50": statistics.median(scenario_walls) * scale,
            "worst_gate_ratio": max(ratios),
            "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
        }
    return attempted, failed, metrics, info


def _per_layer(summary, untraced_walls):
    traced = summary["trace"]
    record = next(r for r in summary["passes"] if r["traced"])
    out = pathlib.Path(record["out"])
    report = json.loads((out / "report.json").read_text())
    values = {}
    for name in spans.span_names():
        values[f"{name}.calls"], values[f"{name}.self_s"] = traced["layers"].get(name, (0, 0.0))
    for name in WORK_COUNTERS:
        values[name] = traced["counters"].get(name, 0)
    for layer in spans.LAYERS:
        values[f"{layer}.self_s"] = sum(s for n, (_, s) in traced["layers"].items()
                                        if n.split(".", 1)[0] == layer)
    statuses = [row["status"] for sc in report["scenarios"] for row in sc["tasks"]]
    values["cli.report_bytes"] = sum(p.stat().st_size for p in out.rglob("*")
                                     if p.is_file() and p.name != "report.meta.json")
    for status in ("pass", "warn", "fail"):
        values[f"cli.tasks_{status}"] = statuses.count(status)
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.unattributed_s"] = traced["wall_s"] - traced["covered_s"]
    primary = [r["wall_s"] for r in summary["passes"] if not r["traced"] and r["config"] == "primary"]
    values["trace.overhead_s"] = record["wall_s"] - statistics.median(primary or untraced_walls)
    values["trace.absent"] = len(traced["absent"])
    return values


def _print_result(workload, seed, trace, attempted, failed, metrics, info):
    print(f"perfbench workload={workload} seed={seed} trace={trace} passes={info['passes']}")
    print("raw pass walls s: " + " ".join(f"{w:.4f}" for w in info["pass_walls"]))
    print("calibration s: " + " ".join(f"{c:.4f}" for c in info["calibration_s"]))
    print("env " + json.dumps(info["env"], sort_keys=True))
    for problem in info["problems"][:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}")
    print(f"tasks attempted={attempted} failed={failed} "
          f"tasks_failed_ratio={info['tasks_failed_ratio']:.6g}")
    p90 = info["scenario_s_p90"]
    samples = info["scenario_samples"]
    if p90 is None:
        print(f"scenario_s_p90 not reported: {samples} scenario samples, needs {P90_MIN_SAMPLES}")
    else:
        print(f"scenario_s_p90 {p90:.6g} s ({samples} scenario samples)")
    if info["absent"]:
        print("absent traced names: " + ", ".join(info["absent"]))
    units = dict(per_layer_metrics() if trace else END_TO_END)
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description="commix benchmark (see README.md).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    root = pathlib.Path.cwd()
    if not (root / "src" / "commix" / "__init__.py").is_file():
        print("error: run from the root of a commix checkout (src/commix not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    for var, value in _blas_env().items():
        os.environ[var] = value
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        attempted, failed, metrics, info = measure(root, work, args.workload, args.seed,
                                                   args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    _print_result(args.workload, args.seed, args.trace, attempted, failed, metrics, info)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
