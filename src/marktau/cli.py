"""Command line interface: estimate, test, simulate, power.

Every artifact embeds the run configuration and a format version. The
configuration is resolved except for ``power``'s censoring means: a sweep
records them only as given, so a calibrated one writes null for both and
no treated mean of any c3 point; they take no seed, so a rerun solves the
same means. All randomness is seed-driven and replications use per-index
seed streams, so artifacts are byte-identical across re-runs and worker
counts; the worker count is an execution detail and deliberately not part
of the embedded configuration. File paths are identified by content hash
rather than by name for the same reason.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from itertools import repeat
from pathlib import Path

import numpy as np

from .data_model import (
    DataError,
    MarkInterval,
    apply_mark_scaling,
    parse_dataset,
    parse_sidecar,
    scale_marks,
    validate,
)
from .estimator import EstimationError, EvaluationGrid, estimate_on_grid
from .inference import TEST_KINDS, InferenceError, run_test
from .kernels import KernelError
from .simulation import (
    Scenario,
    SimulationError,
    resolve_censoring,
    run_replications,
    size_power_curve,
)

FORMAT_VERSION = 7

_ERRORS = (DataError, KernelError, EstimationError, InferenceError, SimulationError,
           OSError)
# Violations a failed validation lists; the rest are counted.
_SHOWN_VIOLATIONS = 20


def _json_safe(value):
    """Replace non-finite floats with None so the JSON artifact stays strict."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    return value


def _format_cell(value) -> str:
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def _config_comment(config: dict) -> str:
    encoded = json.dumps(_json_safe(config), sort_keys=True, separators=(",", ":"))
    return f"# marktau format={FORMAT_VERSION} config={encoded}"


def _write_csv(path: Path, header: tuple[str, ...], rows, config: dict) -> None:
    lines = [_config_comment(config), ",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_json_safe(payload), sort_keys=True, indent=2) + "\n"
    path.write_text(text, encoding="utf-8", newline="")


def _resolve_workers(value: int | None) -> int:
    if value is None:
        text = os.environ.get("MARKTAU_THREADS", "1")
        try:
            value = int(text)
        except ValueError:
            raise SimulationError(f"MARKTAU_THREADS must be an integer, got {text!r}") from None
    if value < 1:
        raise SimulationError(f"thread count must be >= 1, got {value}")
    return value


def _numbers(parts: list[str], count: int | None, error: type[Exception], message: str,
             ) -> list[float]:
    """``parts`` read as floats, ``count`` of them when given; ``error(message)`` otherwise."""
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise error(message) from None
    if count is not None and len(values) != count:
        raise error(message)
    return values


def _parse_interval(text: str) -> MarkInterval:
    message = f"interval must be 'lower,upper', got {text!r}"
    return MarkInterval(*_numbers(text.split(","), 2, DataError, message))


def _parse_points(text: str) -> list[float]:
    parts = [p for p in text.split(",") if p.strip() != ""]
    return _numbers(parts, None, DataError,
                    f"grid must be comma-separated numbers, got {text!r}")


def _build_grid(args) -> EvaluationGrid:
    interval = _parse_interval(args.interval) if args.interval else None
    if args.grid:
        return EvaluationGrid.explicit(_parse_points(args.grid), interval)
    if interval is None:
        raise DataError("pass --interval lower,upper (or an explicit --grid)")
    return EvaluationGrid.evenly_spaced(interval, args.grid_points)


def _parse_c3_range(text: str) -> list[float]:
    lo, hi, step = _numbers(text.split(":"), 3, SimulationError,
                            f"--c3-range must be 'lo:hi:step', got {text!r}")
    if not (step > 0 and lo <= hi and math.isfinite(hi - lo)):
        raise SimulationError(
            f"--c3-range needs step > 0 and finite lo <= hi, got {text!r}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [round(lo + k * step, 12) for k in range(count)]


def _grid_config(grid: EvaluationGrid) -> dict:
    return {
        "points": [float(v) for v in grid.points],
        "interval": [grid.interval.lower, grid.interval.upper],
    }


def _data_config(args, info: dict, grid: EvaluationGrid) -> dict:
    """The config keys that ``estimate`` and ``test`` share."""
    return {
        "input_sha256": info["input_sha256"],
        "drop_missing_marks": bool(args.drop_missing_marks),
        "mark_scaling": info["mark_scaling"],
        "grid": _grid_config(grid),
        "alpha": args.alpha,
        "bandwidth": args.bandwidth,
        "bandwidth_scale": args.bandwidth_scale,
    }


def _decode(data: bytes, what: str, path: str) -> str:
    """``data`` as UTF-8 text; a byte that is not UTF-8 fails, naming the file and offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not UTF-8: byte 0x{data[exc.start]:02x} "
                        f"at offset {exc.start}") from None


def _load_dataset(args) -> tuple["Dataset", dict]:
    """Read, parse (dropping rows as asked), scale, and validate the input CSV."""
    data = Path(args.input).read_bytes()
    info: dict = {"input_sha256": hashlib.sha256(data).hexdigest()}
    text = _decode(data, "input", args.input)
    del data  # released before parsing: held, it slowed the parse of large files

    scaling = None
    if args.meta:
        scaling = parse_sidecar(_decode(Path(args.meta).read_bytes(), "sidecar", args.meta))
    if args.drop_missing_marks:
        dataset, info["dropped_rows"] = parse_dataset(text, drop_missing_marks=True)
    else:
        dataset, info["dropped_rows"] = parse_dataset(text), 0

    if scaling == "auto":
        scaling = scale_marks(dataset.observed_marks())
    if scaling is not None:
        dataset = apply_mark_scaling(dataset, scaling)
        info["mark_scaling"] = {
            "min": scaling.vmin, "max": scaling.vmax, "degenerate": scaling.degenerate,
        }
    else:
        info["mark_scaling"] = None

    report = validate(dataset)
    if not report.ok:
        shown = [str(v) for v in report.violations[:_SHOWN_VIOLATIONS]]
        if len(report.violations) > len(shown):
            shown.append(f"... and {len(report.violations) - len(shown)} more")
        raise DataError("input fails validation:\n" + "\n".join(shown))
    m = int(np.count_nonzero(dataset.delta == 1))
    if m < 20:
        print(
            f"warning: only {m} observed events; kernel smoothing and the "
            "rule-of-thumb bandwidth are unreliable at this size",
            file=sys.stderr,
        )
    return dataset, info


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="CSV with header y,delta,mark,a")
    parser.add_argument("--meta", help="JSON sidecar with the mark scaling")
    parser.add_argument("--drop-missing-marks", action="store_true",
                        help="drop uncensored rows whose mark is empty and that have no "
                             "other fault; report the count as dropped_rows")


def _add_grid_flags(parser: argparse.ArgumentParser, default_interval: str | None = None,
                    ) -> None:
    parser.add_argument("--interval", default=default_interval,
                        help="mark interval 'lower,upper' inside [0,1]")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--grid-points", type=int, default=20,
                       help="number of evenly spaced grid points (default 20)")
    group.add_argument("--grid", help="explicit comma-separated grid points")


def _add_bandwidth_flags(parser: argparse.ArgumentParser, explicit: bool) -> None:
    # an explicit bandwidth leaves no rule of thumb to scale, so the two exclude
    # each other; simulation scenarios always use the rule of thumb
    group = parser.add_mutually_exclusive_group() if explicit else parser
    group.add_argument("--bandwidth-scale", type=float, default=1.0, metavar="VARPI",
                       help="scale constant of the rule-of-thumb bandwidth (default 1)")
    if explicit:
        group.add_argument("--bandwidth", type=float,
                           help="explicit bandwidth in place of the rule of thumb")


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    """The scenario, grid and run flags that ``simulate`` and ``power`` share."""
    parser.add_argument("--c1", type=float, default=3.0)
    parser.add_argument("--c2", type=float, default=0.0)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--p-treat", type=float, default=2.0 / 3.0)
    parser.add_argument("--censor-mean0", type=float)
    parser.add_argument("--censor-mean1", type=float)
    parser.add_argument("--censor-target", type=float,
                        help="censoring rate an arm without a given mean is calibrated to "
                             "(default 0.4)")
    _add_grid_flags(parser, default_interval="0.1,0.9")
    _add_bandwidth_flags(parser, explicit=False)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int,
                        help="worker processes (default: MARKTAU_THREADS or 1)")
    parser.add_argument("--out", required=True, help="output CSV path")


def cmd_estimate(args) -> int:
    dataset, info = _load_dataset(args)
    grid = _build_grid(args)
    est = estimate_on_grid(dataset, grid, alpha=args.alpha, bandwidth=args.bandwidth,
                           varpi=args.bandwidth_scale)

    config = {"command": "estimate", **_data_config(args, info, grid)}
    out_csv = Path(args.out)
    header = ("v", "tau1", "tau0", "tau", "sigma2", "ci_lower", "ci_upper",
              "events1", "events0")
    rows = zip(est.points, est.tau1, est.tau0, est.tau, est.sigma2,
               est.ci_lower, est.ci_upper, est.events1, est.events0)
    _write_csv(out_csv, header, rows, config)

    summary = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "h": est.h,
        "bandwidth_scale": est.bandwidth.varpi,
        "sigma_v": est.bandwidth.sigma_v,
        "observed_events": est.bandwidth.m,
        "alpha": args.alpha,
        "n": est.n,
        "n0": est.n0,
        "n1": est.n1,
        "flagged_points": [float(v) for v in est.points[est.flagged]],
        "dropped_rows": info["dropped_rows"],
    }
    _write_json(out_csv.with_suffix(".json"), summary)

    if args.dump_censoring:
        from .km import fit_censoring_km

        jump_times, values, curve, _ = fit_censoring_km(
            dataset.y[None], dataset.delta[None], dataset.arm[None])
        for a in (0, 1):
            rows = [(0.0, 1.0)] + list(zip(jump_times[curve == a], values[curve == a]))
            _write_csv(Path(f"{args.dump_censoring}_arm{a}.csv"),
                       ("t", "survival"), rows, config)
    return 0


def cmd_test(args) -> int:
    dataset, info = _load_dataset(args)
    grid = _build_grid(args)
    result = run_test(
        args.kind, dataset, grid, resamples=args.resamples, alpha=args.alpha,
        seed=args.seed, bandwidth=args.bandwidth, varpi=args.bandwidth_scale,
        pi_design=args.pi_design, add_one_correction=args.add_one_correction,
    )

    config = {
        "command": "test",
        "kind": args.kind,
        **_data_config(args, info, grid),
        "B": args.resamples,
        "seed": args.seed,
        "pi_design": args.pi_design,
        "add_one_correction": bool(args.add_one_correction),
    }
    report = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "kind": args.kind,
        "statistic": result.statistic,
        "critical_value": result.critical_value,
        "p_value": result.p_value,
        "reject": bool(result.reject),
        "alpha": args.alpha,
        "B": args.resamples,
        "seed": args.seed,
        "grid": [float(v) for v in grid.points],
        "excluded_points": list(result.excluded_points),
        "skipped_pairs": result.skipped_pairs,
        "covariance_rank": result.covariance_rank,
        "h": result.estimate.h,
        "n": result.estimate.n,
    }
    if args.out:
        _write_json(Path(args.out), report)
    print(
        f"{args.kind} test: statistic={result.statistic:.6g} "
        f"critical_value={result.critical_value:.6g} p_value={result.p_value:.6g} "
        f"reject={result.reject}"
    )
    return 0


def _scenario_from_args(args, c3: float | None = None) -> Scenario:
    target = args.censor_target
    if target is not None and None not in (args.censor_mean0, args.censor_mean1):
        raise SimulationError("--censor-target calibrates only an arm without a given "
                              "mean, and both censoring means are given")
    return Scenario(
        c1=args.c1, c2=args.c2, c3=args.c3 if c3 is None else c3, n=args.n,
        p_treat=args.p_treat, censor_mean0=args.censor_mean0,
        censor_mean1=args.censor_mean1,
        censor_target=Scenario.censor_target if target is None else target,
        grid=_build_grid(args), reps=args.reps, seed=args.seed, alpha=args.alpha,
        varpi=args.bandwidth_scale,
    )


def _scenario_config(scenario: Scenario, command: str) -> dict:
    return {
        "command": command,
        "c1": scenario.c1, "c2": scenario.c2, "c3": scenario.c3,
        "n": scenario.n, "p_treat": scenario.p_treat,
        "censor_mean0": scenario.censor_mean0,
        "censor_mean1": scenario.censor_mean1,
        "censor_target": scenario.censor_target,
        "grid": _grid_config(scenario.grid),
        "reps": scenario.reps, "seed": scenario.seed, "alpha": scenario.alpha,
        "bandwidth_scale": scenario.varpi,
    }


_SIMULATE_HEADER = ("v", "true_tau", "bias", "bias_se", "ratio", "ratio_se",
                   "coverage", "coverage_se", "reps", "n")
_POWER_HEADER = ("c3", "rate", "se", "rejections", "reps", "n")


def _simulate_rows(table, scenario: Scenario):
    """The rows of a ``simulate`` artifact, under :data:`_SIMULATE_HEADER`."""
    return zip(table.points, table.true_tau, table.bias, table.bias_se,
               table.ratio, table.ratio_se, table.coverage, table.coverage_se,
               repeat(scenario.reps), repeat(scenario.n))


def _power_rows(table, scenario: Scenario):
    """The rows of a ``power`` artifact, under :data:`_POWER_HEADER`."""
    return zip(table.c3, table.rate, table.se, table.rejections,
               repeat(scenario.reps), repeat(scenario.n))


def cmd_simulate(args) -> int:
    scenario = resolve_censoring(_scenario_from_args(args))
    table = run_replications(scenario, workers=_resolve_workers(args.threads))
    _write_csv(Path(args.out), _SIMULATE_HEADER, _simulate_rows(table, scenario),
               _scenario_config(scenario, "simulate"))
    return 0


def cmd_power(args) -> int:
    c3_values = _parse_c3_range(args.c3_range)
    base = _scenario_from_args(args, c3=c3_values[0])
    table = size_power_curve(base, c3_values, args.kind, resamples=args.resamples,
                             workers=_resolve_workers(args.threads))
    config = {**_scenario_config(base, "power"), "kind": args.kind, "c3": c3_values,
              "B": args.resamples}
    _write_csv(Path(args.out), _POWER_HEADER, _power_rows(table, base), config)
    return 0


def _add_estimate_flags(parser: argparse.ArgumentParser) -> None:
    _add_data_flags(parser)
    _add_grid_flags(parser)
    _add_bandwidth_flags(parser, explicit=True)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--out", required=True, help="output CSV; JSON summary beside it")
    parser.add_argument("--dump-censoring", metavar="PREFIX",
                        help="also dump each arm's censoring survival curve as CSV")


def _add_test_flags(parser: argparse.ArgumentParser) -> None:
    _add_data_flags(parser)
    _add_grid_flags(parser)
    _add_bandwidth_flags(parser, explicit=True)
    parser.add_argument("--kind", choices=TEST_KINDS, required=True)
    parser.add_argument("--resamples", type=int, default=500, metavar="B")
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pi-design", type=float,
                        help="design treated fraction; default is the empirical one")
    parser.add_argument("--add-one-correction", action="store_true",
                        help="use the (count+1)/(B+1) p-value variant")
    parser.add_argument("--out", help="write the JSON report here")


def _add_simulate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--c3", type=float, required=True)
    _add_scenario_flags(parser)


def _add_power_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", choices=TEST_KINDS, required=True)
    parser.add_argument("--c3-range", required=True, metavar="LO:HI:STEP")
    parser.add_argument("--resamples", type=int, default=500, metavar="B")
    _add_scenario_flags(parser)


# command -> (help text, the function that adds its options, its handler)
_COMMANDS = {
    "estimate": ("estimate effects on a mark grid", _add_estimate_flags, cmd_estimate),
    "test": ("multiplier-resampling hypothesis test", _add_test_flags, cmd_test),
    "simulate": ("replicate estimation, report quality metrics", _add_simulate_flags,
                 cmd_simulate),
    "power": ("rejection-rate sweep across c3", _add_power_flags, cmd_power),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The ``marktau`` parser, with options added to ``command`` only.

    Every command is registered with its help text whichever is named, so
    ``marktau -h`` and the error for a missing or unknown command do not
    depend on it.
    """
    parser = argparse.ArgumentParser(
        prog="marktau",
        description="Mark-specific treatment effects on right-censored failure times",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_flags, func) in _COMMANDS.items():
        # Options are spelled out in full: with abbreviations, --bandwidth on a
        # command that has only --bandwidth-scale would set the scale instead.
        subparser = sub.add_parser(name, help=text, allow_abbrev=False)
        if command == name:
            add_flags(subparser)
            subparser.set_defaults(func=func)
    return parser


def _notice(message, category, filename, lineno, file=None, line=None) -> None:
    """A library warning as the CLI's other notices: one ``warning:`` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the command is the first argument that names one: the top-level parser
    # takes no option with a value, so nothing before it can be one
    parser = build_parser(next((arg for arg in argv if arg in _COMMANDS), None))
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _notice
        try:
            return args.func(args)
        except _ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
