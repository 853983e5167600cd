"""Span recorder that wraps public commix names from outside the package.

A :class:`Tracer` replaces each traced function, and the ``__init__`` of each
traced class, with a wrapper that records a span ``(name, start, end,
parent)``.  Functions are replaced in every ``commix`` module namespace that
holds them, because modules such as ``commix.cli`` import them by name.
Names that no longer exist are recorded in ``absent`` instead of failing, so
the benchmark survives refactors that delete or rename traced code.

Spans are kept in memory and summarized after the run.  The recorder keeps
one stack of open spans, so it assumes a single thread (the benchmark runs
``run_config`` with ``threads=1``).
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import math
import sys
import time

LAYERS = ("operators", "commutators", "mixing", "skew", "graphs", "cli")

# (span name, module, attribute path).  A class stands for its constructor.
TARGETS = (
    ("operators.spectral_norm", "commix.operators", "spectral_norm"),
    ("operators.spectral_decomposition", "commix.operators", "spectral_decomposition"),
    ("operators.kernel_split", "commix.operators", "kernel_split"),
    ("commutators.birkhoff_discrete", "commix.commutators", "birkhoff_discrete"),
    ("commutators.estimate_degree", "commix.commutators", "estimate_degree"),
    ("commutators.degree_identity_check", "commix.commutators", "degree_identity_check"),
    ("commutators.degree_alternative", "commix.commutators", "degree_alternative"),
    ("commutators.birkhoff_continuous", "commix.commutators", "birkhoff_continuous"),
    ("commutators.flow_identity_check", "commix.commutators", "flow_identity_check"),
    ("mixing.FourierCalculus", "commix.mixing", "FourierCalculus"),
    ("mixing.correlation_discrete", "commix.mixing", "correlation_discrete"),
    ("mixing.correlation_continuous", "commix.mixing", "correlation_continuous"),
    ("mixing.SummabilityReport", "commix.mixing", "SummabilityReport"),
    ("mixing.DecayReport", "commix.mixing", "DecayReport"),
    ("skew.su2_degree_field", "commix.skew", "su2_degree_field"),
    ("skew.sector_correlation", "commix.skew", "sector_correlation"),
    ("skew.torus_degree_field", "commix.skew", "torus_degree_field"),
    ("skew.sector_matrix", "commix.skew", "sector_matrix"),
    ("skew.sector_apply", "commix.skew", "sector_apply"),
    ("skew.cocycle_sum", "commix.skew", "cocycle_sum"),
    ("graphs.check_admissible", "commix.graphs", "check_admissible"),
    ("graphs.build_operators", "commix.graphs", "build_operators"),
    ("graphs.interior_residuals", "commix.graphs", "interior_residuals"),
    ("graphs.graph_degree", "commix.graphs", "graph_degree"),
    ("cli.validate_config", "commix.cli", "validate_config"),
    ("cli.build_model", "commix.cli", "build_model"),
    ("cli.run_config", "commix.cli", "run_config"),
    # every span below is report or artifact serialization
    ("cli.serialize", "commix.mixing", "CorrelationSeries.to_csv"),
    ("cli.serialize", "commix.mixing", "FourierCalculus.to_csv"),
    ("cli.serialize", "commix.commutators", "DegreeEstimate.to_json"),
    ("cli.serialize", "commix.operators", "matrix_to_payload"),
)


def _discrete_horizon(args, result):
    pair = args["pair"]
    return {"commutators.birkhoff_steps": int(max(args["schedule"]))} if pair.kind == "discrete" else {}


# Work counters derived from the bound arguments and the result of a call.
COUNTERS = {
    "commutators.birkhoff_discrete": lambda a, r: {"commutators.birkhoff_steps": int(a["steps"])},
    "commutators.estimate_degree": _discrete_horizon,
    "commutators.birkhoff_continuous": lambda a, r: {"commutators.quadrature_intervals": int(r.intervals)},
    "mixing.FourierCalculus": lambda a, r: {"mixing.fourier_orders": int(a["n_max"])},
    "skew.su2_degree_field": lambda a, r: {
        "skew.su2_point_steps": math.prod(int(m) for m in a["shape"]) * int(a["steps"])},
}


def span_names():
    """Distinct span names in ``TARGETS`` order."""
    return list(dict.fromkeys(name for name, _, _ in TARGETS))


class Tracer:
    """Installs span wrappers on entry and removes them on exit."""

    def __init__(self, targets=TARGETS, counters=None):
        self.targets = targets
        self.counter_hooks = COUNTERS if counters is None else counters
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = collections.Counter()
        self.absent = []         # traced names (or counters) that could not be used
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, original):
        hook = self.counter_hooks.get(name)
        signature = None
        if hook is not None:
            try:
                signature = inspect.signature(original)
            except (TypeError, ValueError):
                self._mark_absent(f"counter of {name}")
                hook = None
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if hook is not None:
                self._count(name, hook, signature, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, hook, signature, args, kwargs, result):
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            increments = hook(bound.arguments, result)
        except (TypeError, KeyError, AttributeError, ValueError):
            self._mark_absent(f"counter of {name}")
            return
        self.counters.update(increments)

    def _mark_absent(self, label):
        if label not in self.absent:
            self.absent.append(label)

    # -- installation ------------------------------------------------------

    def install(self):
        for name, module_name, attr in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self._mark_absent(f"{name} ({module_name})")
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            obj = getattr(owner, leaf, None) if owner is not None else None
            if not callable(obj):
                self._mark_absent(f"{name} ({module_name}.{attr})")
            elif inspect.isclass(obj):
                self._patch_class(obj, "__init__", self._wrap(name, obj.__init__))
            elif owner_name:
                self._patch_class(owner, leaf, self._wrap(name, obj))
            else:
                self._patch_everywhere(obj, self._wrap(name, obj))
        return self

    def _patch_class(self, cls, attr, wrapper):
        # None marks an inherited attribute, which uninstall deletes again
        self._undo.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, wrapper)

    def _patch_everywhere(self, original, wrapper):
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "commix" or module_name.startswith("commix.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Calls and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children; with one thread children never overlap, so the self times of
    all spans add up to the total time covered by root spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for (name, start, end, parent), covered in zip(spans, child_time):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - covered)
    return out


def root_time(spans):
    """Total duration of the spans that have no parent."""
    return sum(end - start for name, start, end, parent in spans if parent < 0)
