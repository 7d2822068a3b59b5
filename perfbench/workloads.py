"""Workloads: generated inputs, the CLI operations of one cycle, and output checks.

A workload is a list of CLI operations that one client runs back to back
(one cycle), repeated until the measuring time is up. Each operation names
the artifacts it writes and a check that those artifacts must pass.

The trial inputs are generated here with plain numpy, not with
``marktau.simulation``, so that a change to the simulator's calibration or
random streams cannot change the bytes the trial workloads read. The model
is the package's generating model with fixed coefficients and fixed
censoring means:

    arm ~ Bernoulli(2/3), mark V ~ U[0, 1], residual ~ N(0, 1) on [-1, 1],
    control failure time 3 - 2 sin(2 pi V) + residual,
    treated failure time 3 - sin(2 pi V) + residual,
    censoring ~ Exponential(mean 5.46 control, 5.71 treated),

so the true effect curve is tau(v) = sin(2 pi v) and about 40 % of each
arm is censored.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

P_TREAT = 2.0 / 3.0
CENSOR_MEANS = (5.46, 5.71)  # control, treated; about 40 % censored each
RAW_MARK_RANGE = (10.0, 100.0)  # raw scale of the marks when a workload asks for one
INTERVAL = "0.1,0.9"
GRID_POINTS = 20


class CheckFailed(Exception):
    """An artifact exists but does not meet its check."""


@dataclass(frozen=True)
class TrialSpec:
    """An analyst's session: ``estimate`` then ``test`` calls on one CSV."""

    n: int
    resamples: int
    kinds: tuple[str, ...]
    raw_marks: bool


@dataclass(frozen=True)
class SimSpec:
    """A methodologist's session: ``simulate`` then a global and a constancy ``power``."""

    n: int
    sim_reps: int
    power_reps: int
    resamples: int
    c3: float = -1.0
    c3_range: str = "-2:0:1"


WORKLOADS = {
    "trial_1e4": TrialSpec(n=10_000, resamples=5000, kinds=("global", "constancy"),
                           raw_marks=False),
    "trial_2e5": TrialSpec(n=200_000, resamples=200, kinds=("global",), raw_marks=True),
    "sim_study": SimSpec(n=1000, sim_reps=1000, power_reps=40, resamples=500),
}


@dataclass(frozen=True)
class Op:
    """One CLI call; ``resamples`` marks the multiplier-resampling calls (test, power)."""

    name: str
    resamples: bool
    argv: tuple[str, ...]
    artifacts: tuple[Path, ...]
    check: Callable[[dict[Path, bytes]], dict]  # raises CheckFailed; returns what it saw


@dataclass(frozen=True)
class Prepared:
    ops: tuple[Op, ...]
    inputs: dict[str, str]  # file name -> sha256


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def workload_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


def true_tau(v):
    return np.sin(2.0 * np.pi * np.asarray(v, dtype=float))


def _truncated_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    out = np.empty(size)
    filled = 0
    while filled < size:
        batch = rng.standard_normal(size - filled + 64)
        keep = batch[np.abs(batch) <= 1.0][: size - filled]
        out[filled:filled + keep.size] = keep
        filled += keep.size
    return out


def trial_columns(rng: np.random.Generator, n: int):
    """y, delta, mark (NaN when censored) and arm of one generated trial."""
    arm = (rng.random(n) < P_TREAT).astype(np.int64)
    v = rng.random(n)
    wave = np.sin(2.0 * np.pi * v)
    t = np.where(arm == 1, 3.0 - wave, 3.0 - 2.0 * wave) + _truncated_normal(rng, n)
    c = rng.exponential(np.where(arm == 1, CENSOR_MEANS[1], CENSOR_MEANS[0]))
    delta = (t <= c).astype(np.int64)
    return np.minimum(t, c), delta, np.where(delta == 1, v, np.nan), arm


def trial_csv(y, delta, mark, arm) -> bytes:
    """CSV text in the package's input format; floats in shortest round-trip form."""
    marks = np.where(delta == 1, mark.astype(str), "")
    rows = zip(y.astype(str).tolist(), delta.astype(str).tolist(), marks.tolist(),
               arm.astype(str).tolist())
    return ("y,delta,mark,a\n" + "\n".join(",".join(row) for row in rows) + "\n").encode()


def _read_csv(data: bytes) -> tuple[list[str], list[dict[str, float]]]:
    lines = data.decode().splitlines()
    if not lines or not lines[0].startswith("# marktau format="):
        raise CheckFailed("missing '# marktau format=' comment line")
    json.loads(lines[0].split(" config=", 1)[1])
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    header = next(reader)
    rows = [dict(zip(header, map(float, row))) for row in reader]
    if not rows:
        raise CheckFailed("no data rows")
    return header, rows


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_estimate(csv_path: Path, json_path: Path, mark_to_v, bands: dict):
    def check(artifacts: dict[Path, bytes]) -> dict:
        json.loads(artifacts[json_path])
        _, rows = _read_csv(artifacts[csv_path])
        _require(len(rows) == GRID_POINTS, f"{len(rows)} grid rows, expected {GRID_POINTS}")
        _require(all(r["ci_lower"] <= r["tau"] <= r["ci_upper"] for r in rows),
                 "a confidence interval does not contain its estimate")
        unflagged = [r for r in rows if r["events0"] + r["events1"] > 0]
        covered = sum(r["ci_lower"] <= true_tau(mark_to_v(r["v"])) <= r["ci_upper"]
                      for r in unflagged)
        share = covered / max(len(unflagged), 1)
        _require(share >= bands["estimate_true_tau_coverage_min"],
                 f"intervals cover the true tau at {share:.2f} of unflagged points")
        return {"true_tau_coverage": share, "unflagged_points": len(unflagged)}
    return check


def _check_test(path: Path, resamples: int):
    def check(artifacts: dict[Path, bytes]) -> dict:
        report = json.loads(artifacts[path])
        _require(0.0 <= report["p_value"] <= 1.0, f"p_value {report['p_value']!r}")
        _require(report["B"] == resamples, f"B = {report['B']!r}, asked for {resamples}")
        return {"p_value": report["p_value"], "B": report["B"]}
    return check


def _check_simulate(path: Path, reps: int):
    def check(artifacts: dict[Path, bytes]) -> dict:
        _, rows = _read_csv(artifacts[path])
        _require(all(0.0 <= r["coverage"] <= 1.0 for r in rows), "coverage outside [0, 1]")
        _require(all(r["reps"] == reps for r in rows), "replication count differs")
        return {"coverage": [r["coverage"] for r in rows]}
    return check


def _check_power(path: Path, bands: dict):
    def check(artifacts: dict[Path, bytes]) -> dict:
        _, rows = _read_csv(artifacts[path])
        rate = {r["c3"]: r["rate"] for r in rows}
        _require(all(0.0 <= x <= 1.0 for x in rate.values()), "rate outside [0, 1]")
        _require(rate[-2.0] <= bands["power_null_rate_max"],
                 f"rejection rate {rate[-2.0]} at the null c3 = -2")
        _require(rate[0.0] >= bands["power_alternative_rate_min"],
                 f"rejection rate {rate[0.0]} at c3 = 0")
        return {"rate": {str(c3): r for c3, r in rate.items()}}
    return check


def prepare_trial(name: str, spec: TrialSpec, seed: int, workdir: Path,
                  bands: dict) -> Prepared:
    y, delta, mark, arm = trial_columns(workload_rng(name, seed), spec.n)
    mark_to_v = lambda u: u  # noqa: E731
    data_flags: tuple[str, ...] = ("--input", str(workdir / "trial.csv"))
    files = {}
    if spec.raw_marks:
        lo, hi = RAW_MARK_RANGE
        mark = lo + (hi - lo) * mark
        # "auto" scaling maps the observed raw minimum and maximum onto 0 and 1
        observed = mark[delta == 1]
        vmin, vmax = float(observed.min()), float(observed.max())
        mark_to_v = lambda u: (vmin + u * (vmax - vmin) - lo) / (hi - lo)  # noqa: E731
        files["trial.json"] = b'{"mark_scaling": "auto"}\n'
        data_flags += ("--meta", str(workdir / "trial.json"))
    files["trial.csv"] = trial_csv(y, delta, mark, arm)
    for file_name, data in files.items():
        (workdir / file_name).write_bytes(data)

    grid = ("--interval", INTERVAL, "--grid-points", str(GRID_POINTS))
    est_csv, est_json = workdir / "estimate.csv", workdir / "estimate.json"
    ops = [Op("estimate", False,
              ("estimate", *data_flags, *grid, "--out", str(est_csv)),
              (est_csv, est_json), _check_estimate(est_csv, est_json, mark_to_v, bands))]
    for kind in spec.kinds:
        out = workdir / f"test_{kind}.json"
        ops.append(Op(f"test_{kind}", True,
                      ("test", *data_flags, *grid, "--kind", kind,
                       "--resamples", str(spec.resamples), "--seed", str(seed),
                       "--out", str(out)),
                      (out,), _check_test(out, spec.resamples)))
    return Prepared(tuple(ops), {k: sha256(v) for k, v in files.items()})


def prepare_sim(spec: SimSpec, seed: int, workdir: Path, bands: dict) -> Prepared:
    common = ("--n", str(spec.n), "--seed", str(seed), "--interval", INTERVAL,
              "--grid-points", str(GRID_POINTS), "--threads", "1")
    sim_out = workdir / "simulate.csv"
    ops = [Op("simulate", False,
              ("simulate", "--c3", str(spec.c3), "--reps", str(spec.sim_reps), *common,
               "--out", str(sim_out)),
              (sim_out,), _check_simulate(sim_out, spec.sim_reps))]
    for kind in ("global", "constancy"):
        out = workdir / f"power_{kind}.csv"
        ops.append(Op(f"power_{kind}", True,
                      ("power", "--kind", kind, f"--c3-range={spec.c3_range}",
                       "--reps", str(spec.power_reps), "--resamples", str(spec.resamples),
                       *common, "--out", str(out)),
                      (out,), _check_power(out, bands)))
    return Prepared(tuple(ops), {})


def prepare(name: str, spec, seed: int, workdir: Path, bands: dict) -> Prepared:
    """Write the workload's inputs under ``workdir`` and return its operations."""
    if isinstance(spec, TrialSpec):
        return prepare_trial(name, spec, seed, workdir, bands)
    return prepare_sim(spec, seed, workdir, bands)


def replications_per_call(op: Op, spec) -> int:
    """Replications one simulate or power call runs, summed over its c3 points."""
    if op.name == "simulate":
        return spec.sim_reps
    lo, hi, step = (float(p) for p in spec.c3_range.split(":"))
    return spec.power_reps * (int(math.floor((hi - lo) / step + 1e-9)) + 1)
