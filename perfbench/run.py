"""Benchmark of the marktau command line, end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload trial_1e4 --seed 1 --seconds 30 --trace 0

One process runs one workload: it generates the inputs from ``--seed``, then
runs the workload's cycle of CLI operations through ``marktau.cli.main``
(one client, closed loop, ``--threads 1``) until ``--seconds`` have passed,
checking every artifact. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics from the traced ones, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller report
(per-call samples, pooled tails, artifact and input digests, the
environment, spans) goes to ``perfbench/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()
# One worker, BLAS included; the variables must be set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, CheckFailed, prepare, replications_per_call, sha256,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
PROBE_REFERENCE_S = 0.03

END_TO_END_UNITS = {"setup_s": "s", "cycle_s": "s", "resample_step_s": "s",
                    "peak_rss_mb": "MB"}
CHECK_ERRORS = (CheckFailed, ValueError, KeyError, IndexError, TypeError, StopIteration)


def load_cli():
    """Import ``marktau.cli`` from the checkout's own ``src``; exit if it is not there."""
    src = ROOT / "src"
    if not (src / "marktau" / "cli.py").is_file():
        sys.exit(f"error: no marktau sources under {src}")
    sys.path.insert(0, str(src))
    import marktau.cli

    return marktau.cli


def layer_units(metric: str) -> str:
    if metric.endswith((".s", ".self_s")):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("flops"):
        return "flop"
    if metric.endswith("_frac"):
        return "frac"
    return "count"


def run_op(cli, op, first: dict, observed: dict, failures: list) -> float:
    """Run one CLI call and check it; return its wall seconds.

    ``first`` keeps each command's first artifacts, ``observed`` the values
    its first check saw, and a failure is appended to ``failures``.
    """
    for path in op.artifacts:
        path.unlink(missing_ok=True)
    captured = io.StringIO()
    gc.collect()  # every call starts from the same collector state, as a fresh process would
    began = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception:  # noqa: BLE001 - a crashing call is a failed operation, not a failed run
        code = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - began

    problem = None
    if code != 0:
        problem = f"exit {code!r}: {captured.getvalue()[-400:]}"
    elif missing := [p.name for p in op.artifacts if not p.is_file()]:
        problem = f"missing artifacts {missing}"
    else:
        artifacts = {p: p.read_bytes() for p in op.artifacts}
        if first.setdefault(op.name, artifacts) != artifacts:
            problem = "artifact bytes differ from the first call of this command"
        else:
            try:
                observed.setdefault(op.name, op.check(artifacts))
            except CHECK_ERRORS as exc:
                problem = f"check failed: {exc!r}"
    if problem is not None:
        failures.append({"op": op.name, "problem": problem})
    return elapsed


def pooled_tail(samples: list[float]) -> dict:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        value = float(np.percentile(ordered, pct))
        if sum(x > value for x in ordered) >= 10:
            return {"percentile": pct, "value_s": value, "samples": len(ordered)}
    return {"percentile": None, "value_s": None, "samples": len(ordered)}


class SpeedProbe:
    """A fixed reference computation timed between calls, to track machine speed.

    On shared cores the same code runs up to twice as fast at one moment as
    at another, in phases of tens of seconds. A call's adjusted time is its
    wall time scaled by ``PROBE_REFERENCE_S`` over the mean probe time just
    before and just after it: the seconds it would take on a machine where
    the probe takes ``PROBE_REFERENCE_S``. The probe mixes the kinds of work
    the package does: interpreter loops, numpy normal draws and a pass over
    an array larger than the per-core caches.
    """

    def __init__(self) -> None:
        self._rng = np.random.default_rng(0)
        self._draws = np.empty(300_000)
        self._stream = np.empty(4_000_000)  # 32 MB
        self.samples: list[float] = []
        self.measure()

    def measure(self) -> float:
        """Fastest of three rounds, so one interrupted round does not count."""
        rounds = []
        for _ in range(3):
            began = time.perf_counter()
            total = 0
            for i in range(100_000):
                total += i
            for _ in range(3):
                self._rng.standard_normal(out=self._draws)
            self._stream.fill(1.0)
            self._stream.sum()
            rounds.append(time.perf_counter() - began)
        self.samples.append(min(rounds))
        return self.samples[-1]

    @staticmethod
    def scale(seconds: float, probe_s: float) -> float:
        return seconds * PROBE_REFERENCE_S / probe_s

    def adjust(self, seconds: float) -> float:
        """Adjust a wall time that ended just now; the last probe ran just before it."""
        before = self.samples[-1]
        return self.scale(seconds, (before + self.measure()) / 2.0)


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def execute(cli, name: str, spec, seed: int, seconds: float, trace: bool, base: Path,
            start: float, extra_ops=()) -> tuple[dict, dict]:
    """Run one workload; return the result line and the full report.

    ``base`` holds the scratch inputs (``work/``, removed at the end).
    ``extra_ops`` are appended to every cycle; the smoke test uses them.
    """
    bands = json.loads((HERE / "bands.json").read_text())
    workdir = base / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        loaded = time.perf_counter() - start
        probe = SpeedProbe()
        import_s = probe.scale(loaded, probe.samples[0])
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            prepared = prepare(name, spec, seed, workdir, bands)
            prepare_s.append(probe.adjust(time.perf_counter() - began))
        ops = prepared.ops + tuple(extra_ops)

        tracer = Tracer() if trace else None
        first: dict = {}
        observed: dict = {}
        failures: list = []
        cycles: list[tuple[bool, list[float], list[float]]] = []
        deadline = time.perf_counter() + seconds
        while len(cycles) < (2 if trace else 1) or time.perf_counter() < deadline:
            traced = trace and len(cycles) % 2 == 1
            if traced:
                tracer.install()
            try:
                wall, adjusted = [], []
                for op in ops:
                    if traced:
                        tracer.op += 1
                    wall.append(run_op(cli, op, first, observed, failures))
                    adjusted.append(probe.adjust(wall[-1]))
            finally:
                if traced:
                    tracer.uninstall()
            cycles.append((traced, wall, adjusted))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [(wall, adjusted) for traced, wall, adjusted in cycles if not traced]
    samples = {op.name: [wall[k] for wall, _ in plain] for k, op in enumerate(ops)}
    adjusted_samples = {op.name: [adj[k] for _, adj in plain] for k, op in enumerate(ops)}
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "inputs_sha256": prepared.inputs,
        "artifacts_sha256": {op: {p.name: sha256(b) for p, b in arts.items()}
                             for op, arts in first.items()},
        "checked": observed, "cycles": len(cycles), "failures": failures,
        "failed_op_frac": len(failures) / (len(ops) * len(cycles)),
        "import_wall_s": loaded, "import_s": import_s, "prepare_s": prepare_s,
        "probe_s": probe.samples,
        "samples_s": samples,
        "adjusted_samples_s": adjusted_samples,
        "per_op": per_op_figures(ops, samples, spec),
        "per_op_adjusted": per_op_figures(ops, adjusted_samples, spec),
    }

    if trace:
        # pair each traced cycle with the untraced one after it (before it, if
        # it is the last), so the first cycle's warm-up and slow drifts of
        # machine speed cancel
        totals = [sum(adj) for _, _, adj in cycles]
        overhead = statistics.median(
            totals[i] / totals[i + 1 if i + 1 < len(cycles) else i - 1]
            for i, (traced, _, _) in enumerate(cycles) if traced) - 1.0
        metrics = {m: {"value": v, "unit": layer_units(m)}
                   for m, v in tracer.layer_metrics(overhead).items()}
        report["trace_absent"] = tracer.absent
        report["per_command_self_s"] = per_command_breakdown(tracer, ops)
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        report["spans"] = [[n, round(s - origin, 6), round(e - origin, 6), p, o, q]
                           for n, s, e, p, o, q in tracer.spans]
    else:
        values = {
            "setup_s": import_s + statistics.median(prepare_s),
            "cycle_s": statistics.median(sum(adj) for _, adj in plain),
            "resample_step_s": statistics.median(
                sum(t for op, t in zip(ops, adj) if op.resamples) for _, adj in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in values.items()}
    report["metrics"] = metrics
    result = {"correct": not failures, "attempted": len(ops) * len(cycles),
              "failed": len(failures), "metrics": metrics}
    return result, report


def per_op_figures(ops, samples: dict, spec) -> dict:
    """The per-call figures, under the names the trial and study workflows use."""
    out = {}
    for op in ops:
        if not samples[op.name]:
            continue
        if op.name.startswith(("simulate", "power")):
            reps = replications_per_call(op, spec)
            out[f"{op.name}_reps_per_s"] = statistics.median(reps / t for t in samples[op.name])
        else:
            out[f"{op.name}_p50_s"] = statistics.median(samples[op.name])
    return out


def per_command_breakdown(tracer: Tracer, ops) -> dict:
    """command -> span -> median self seconds per call of that command."""
    per_cmd: dict = {}
    for index, spans in tracer.by_operation().items():
        command = ops[index % len(ops)].name
        for span, entry in spans.items():
            per_cmd.setdefault(command, {}).setdefault(span, []).append(entry["self_s"])
    return {cmd: dict(sorted(((s, statistics.median(v)) for s, v in spans.items()),
                             key=lambda kv: -kv[1]))
            for cmd, spans in per_cmd.items()}


def add_pooled_tails(report: dict, results: Path) -> None:
    """Pool this run's untraced per-call samples with those of every earlier report
    of the workload in ``results``."""
    pooled = {op: list(values) for op, values in report["samples_s"].items()}
    runs = 1
    for path in results.glob(f"{report['workload']}-trace0-*.json"):
        try:
            samples = json.loads(path.read_text())["samples_s"]
        except (OSError, ValueError, KeyError):
            continue
        runs += 1
        for op, values in samples.items():
            pooled.setdefault(op, []).extend(values)
    report["pooled_tails"] = {"runs": runs,
                              **{op: pooled_tail(v) for op, v in pooled.items()}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    # a terminated run still removes its scratch inputs
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    args = parse_args(argv)
    cli = load_cli()
    result, report = execute(cli, args.workload, WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace), HERE, START)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}.json"
    if args.trace:
        summary = {"per_command_self_s": report["per_command_self_s"],
                   "trace_absent": report["trace_absent"]}
    else:
        add_pooled_tails(report, results)
        summary = {"per_op": report["per_op"], "pooled_tails": report["pooled_tails"]}
    path.write_text(json.dumps(report))
    print(json.dumps(summary))
    for failure in report["failures"]:
        print(f"FAILED {failure['op']}: {failure['problem']}")
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
