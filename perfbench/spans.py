"""Span tracing from outside the package, by rebinding layer entry points.

For a traced cycle the benchmark replaces each entry point below, as the
calling module binds it (``marktau.cli.parse_dataset``,
``marktau.inference.multiplier_draws``, ...), with a thin wrapper that
records the span name, start, end, parent span, the operation it ran in and
a few per-call quantities. Spans stay in memory. ``uninstall`` puts the
original functions back, so untraced cycles run the package untouched.

An entry point the package no longer has is listed as absent and simply
never records a span; the benchmark must outlive refactors of the package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np


def _rows(call, result):
    return {"data_model.parse_dataset.rows": result.n}


def _theta(call, result):
    theta = result[1]
    return {"estimator.theta_bytes": theta.size * 8,
            "estimator.theta_nonzero_frac": np.count_nonzero(theta) / theta.size}


def _evals(call, result):
    return {"kernels.scaled_kernel.evals": int(np.size(result))}


def _draws(call, result):
    return {"inference.multiplier_draws.bytes": result.shape[0] * result.shape[1] * 8,
            "inference.multiplier_draws.streams": int(call()["resamples"])}


def _usable(est) -> int:
    return int(np.count_nonzero(~est.flagged & (est.sigma2 > 0.0)))


def _global_flops(call, result):
    args = call()
    b, n = args["draws"].shape
    usable = _usable(args["est"])
    return {"inference.resample_flops": 2 * b * n * usable, "inference.usable_points": usable}


def _constancy_flops(call, result):
    args = call()
    b, n = args["draws"].shape
    return {"inference.resample_flops": 2 * b * n * args["theta"].shape[1],
            "inference.usable_points": _usable(args["est"])}


def _pairs(call, result):
    return {"inference.constancy_pairs": int(np.size(result[0]))}


# (span name, module that binds the entry point, attribute, per-call quantities)
ENTRY_POINTS = (
    ("cli.main", "marktau.cli", "main", None),
    ("data_model.parse_dataset", "marktau.cli", "parse_dataset", _rows),
    ("data_model.parse_sidecar", "marktau.cli", "parse_sidecar", None),
    ("data_model.scale_marks", "marktau.cli", "scale_marks", None),
    ("data_model.apply_mark_scaling", "marktau.cli", "apply_mark_scaling", None),
    ("data_model.validate", "marktau.cli", "validate", None),
    ("inference.run_test", "marktau.cli", "run_test", None),
    ("simulation.resolve_censoring", "marktau.cli", "resolve_censoring", None),
    ("simulation.run_replications", "marktau.cli", "run_replications", None),
    ("simulation.size_power_curve", "marktau.cli", "size_power_curve", None),
    ("estimator.estimate", "marktau.estimator", "_estimate_with_terms", _theta),
    ("estimator.ipcw_weights", "marktau.estimator", "ipcw_weights", None),
    ("estimator.normal_quantile", "marktau.estimator", "normal_quantile", None),
    ("kernels.scaled_kernel", "marktau.estimator", "scaled_kernel", _evals),
    ("kernels.rule_of_thumb_bandwidth", "marktau.estimator", "rule_of_thumb_bandwidth",
     None),
    ("km.fit_censoring_km", "marktau.estimator", "fit_censoring_km", None),
    ("estimator.estimate", "marktau.inference", "_estimate_with_terms", _theta),
    ("inference.multiplier_draws", "marktau.inference", "multiplier_draws", _draws),
    ("inference.test_from_estimate", "marktau.inference", "_test_from_estimate", None),
    ("inference.global_resample", "marktau.inference", "global_resample", _global_flops),
    ("inference.constancy_resample", "marktau.inference", "constancy_resample",
     _constancy_flops),
    ("inference.pair_variance_table", "marktau.inference", "pair_variance_table", None),
    ("inference.constancy_pairs", "marktau.inference", "_constancy_pairs", _pairs),
    ("estimator.estimate", "marktau.simulation", "_estimate_with_terms", _theta),
    ("inference.multiplier_draws", "marktau.simulation", "multiplier_draws", _draws),
    ("inference.test_from_estimate", "marktau.simulation", "_test_from_estimate", None),
    ("simulation.resolve_censoring", "marktau.simulation", "resolve_censoring", None),
    ("simulation.calibrate_censoring", "marktau.simulation", "calibrate_censoring", None),
    ("simulation.rejection_rate", "marktau.simulation", "rejection_rate", None),
    ("simulation.generate_dataset", "marktau.simulation", "generate_dataset", None),
    ("simulation.replication", "marktau.simulation", "_metrics_rep", None),
    ("simulation.replication", "marktau.simulation", "_test_rep", None),
)

# per-layer metric -> span whose self seconds per operation it reports
SELF_SECONDS = {
    "inference.multiplier_draws.s": "inference.multiplier_draws",
    "inference.global_resample.s": "inference.global_resample",
    "inference.constancy_resample.s": "inference.constancy_resample",
    "inference.pair_variance_table.s": "inference.pair_variance_table",
    "data_model.parse_dataset.s": "data_model.parse_dataset",
    "data_model.validate.s": "data_model.validate",
    "data_model.apply_mark_scaling.s": "data_model.apply_mark_scaling",
    "estimator.estimate.self_s": "estimator.estimate",
    "estimator.ipcw_weights.s": "estimator.ipcw_weights",
    "estimator.normal_quantile.s": "estimator.normal_quantile",
    "kernels.scaled_kernel.s": "kernels.scaled_kernel",
    "kernels.rule_of_thumb_bandwidth.s": "kernels.rule_of_thumb_bandwidth",
    "km.fit_censoring_km.s": "km.fit_censoring_km",
    "simulation.calibrate_censoring.s": "simulation.calibrate_censoring",
    "simulation.generate_dataset.s": "simulation.generate_dataset",
    "cli.main.self_s": "cli.main",
}
# per-layer metric -> span whose calls per operation it reports
CALLS = {
    "km.fit_censoring_km.calls": "km.fit_censoring_km",
    "simulation.calibrate_censoring.calls": "simulation.calibrate_censoring",
    "simulation.generate_dataset.calls": "simulation.generate_dataset",
}
# per-layer metric -> span whose wall seconds per call (children included) it reports
CALL_SECONDS = {"simulation.replication.s": "simulation.replication"}
# per-call quantities the wrappers record, reported as their median over calls
PER_CALL = ("inference.multiplier_draws.bytes", "inference.multiplier_draws.streams",
            "inference.resample_flops", "inference.usable_points",
            "inference.constancy_pairs", "data_model.parse_dataset.rows",
            "estimator.theta_bytes", "estimator.theta_nonzero_frac",
            "kernels.scaled_kernel.evals")


class Tracer:
    """Wraps the entry points while installed; spans accumulate in ``spans``.

    A span is ``[name, start, end, parent index or -1, operation index,
    quantities or None]``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches = []
        for name, module_name, attr, measure in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, original, self._wrap(name, original, measure)))

    def _wrap(self, name, fn, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                try:
                    span[5] = measure(lambda: signature.bind(*args, **kwargs).arguments,
                                      result)
                except Exception:  # noqa: BLE001 - a changed signature loses a quantity, not the run
                    pass
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_operation(self) -> dict[int, dict[str, dict[str, float]]]:
        """operation index -> span name -> {"self_s", "calls"} summed over the operation."""
        out: dict[int, dict] = defaultdict(lambda: defaultdict(lambda: {"self_s": 0.0,
                                                                        "calls": 0}))
        for span, own in zip(self.spans, self.self_seconds()):
            entry = out[span[4]][span[0]]
            entry["self_s"] += own
            entry["calls"] += 1
        return out

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        """Every per-layer metric; a span that never ran reports 0."""
        per_op = self.by_operation().values()

        def median_over_ops(span: str, field: str) -> float:
            values = [op[span][field] for op in per_op if span in op]
            return float(statistics.median(values)) if values else 0.0

        metrics = {m: median_over_ops(s, "self_s") for m, s in SELF_SECONDS.items()}
        metrics.update({m: median_over_ops(s, "calls") for m, s in CALLS.items()})
        for metric, span in CALL_SECONDS.items():
            values = [end - start for name, start, end, *_ in self.spans if name == span]
            metrics[metric] = float(statistics.median(values)) if values else 0.0
        quantities = defaultdict(list)
        for *_, measured in self.spans:
            for key, value in (measured or {}).items():
                quantities[key].append(value)
        for key in PER_CALL:
            metrics[key] = float(statistics.median(quantities[key])) if quantities[key] else 0.0
        metrics["trace.overhead_frac"] = overhead_frac
        return metrics
