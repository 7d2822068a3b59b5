"""End-to-end acceptance checks, one PASS/FAIL line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see every line. The
statistical criteria replay the bundled simulation study at desk scale with
a fixed seed; the exact-agreement criteria compare the closed forms against
brute-force oracles.
"""

import functools
import itertools
import operator
import os
import subprocess
import sys

import numpy as np
from scipy.integrate import quad

import marktau as mt
from marktau.cli import main
from marktau.kernels import epanechnikov, scaled_kernel
from marktau.km import fit_censoring_km
from marktau.simulation import _replication_seed, rejection_rate, resolve_censoring

from oracles import (
    draw_dataset,
    ipcw_mean_difference,
    left_continuous,
    product_limit_censoring,
    stieltjes_group_mean,
)

SEED = 20260822
METRIC_GRID = mt.EvaluationGrid.explicit(
    [0.2, 0.4, 0.6, 0.8], mt.MarkInterval(0.1, 0.9)
)


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {description}{tail}")
    assert ok, f"criterion {number}: {description}{tail}"


def _rounded(values, digits=4):
    return [round(float(x), digits) for x in np.asarray(values).ravel()]


def test_criterion_1_estimation_metrics():
    scenario = mt.Scenario(
        c1=3.0, c2=0.0, c3=-1.0, n=1000, reps=500, seed=SEED, grid=METRIC_GRID
    )
    table = mt.run_replications(scenario)
    ok_bias = bool(np.all(np.abs(table.bias) <= 0.05))
    ok_ratio = bool(np.all((table.ratio >= 0.90) & (table.ratio <= 1.25)))
    ok_cp = bool(np.all((table.coverage >= 0.93) & (table.coverage <= 0.97)))
    _report(
        1,
        "bias/ratio/coverage bands at v in {0.2,0.4,0.6,0.8}, n=1000, 500 reps",
        ok_bias and ok_ratio and ok_cp,
        f"bias {_rounded(table.bias)}, ratio {_rounded(table.ratio, 3)}, "
        f"coverage {_rounded(table.coverage, 3)}",
    )


def test_criterion_2_test_size():
    scenario = resolve_censoring(
        mt.Scenario(c1=3.0, c2=0.0, c3=-2.0, n=1000, reps=500, seed=SEED)
    )
    sizes = {
        kind: rejection_rate(scenario, kind, resamples=500)[0]
        for kind in ("global", "constancy")
    }
    ok = all(0.02 <= rate <= 0.09 for rate in sizes.values())
    _report(
        2,
        "both test sizes in [0.02,0.09] under the flat null, n=1000, "
        "500 reps, B=500",
        ok,
        f"global {sizes['global']:.3f}, constancy {sizes['constancy']:.3f}",
    )


def test_criterion_3_power_monotone():
    scenario = mt.Scenario(c1=3.0, c2=0.0, c3=-1.0, n=1500, reps=200, seed=SEED)
    curve = mt.size_power_curve(
        scenario, [-1.0, 0.0, 1.0, 2.0], "global", resamples=500
    )
    steps = np.diff(curve.rate)
    slack = 2.0 * np.sqrt(curve.se[:-1] ** 2 + curve.se[1:] ** 2)
    ok_monotone = bool(np.all(steps >= -slack))
    ok_high = bool(curve.rate[-1] > 0.9)
    _report(
        3,
        "global power non-decreasing in c3 within 2 MC SEs and > 0.9 at c3=2",
        ok_monotone and ok_high,
        f"power {_rounded(curve.rate, 3)} at c3 {curve.c3.tolist()}",
    )


def test_criterion_4_oracle_equivalence():
    # censoring curve against the explicit product-limit form
    base_times = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0, 5.0]
    km_worst = 0.0
    for n in range(1, 9):
        y = np.array(base_times[:n])
        for pattern in itertools.product([0, 1], repeat=n):
            delta = np.array(pattern)
            jump_times, values, _, _ = fit_censoring_km(y[None], delta[None],
                                                        np.zeros((1, n), np.int64))
            probes = sorted(set([0.0, 6.0] + list(y) + [t + 0.5 for t in y]))
            for t in probes:
                km_worst = max(
                    km_worst,
                    abs(left_continuous(jump_times, values, t)
                        - product_limit_censoring(y, delta, t)),
                )
    ok_km = km_worst <= 1e-12

    # closed-form group means against double Stieltjes integration
    ys = [1.0, 2.0, 2.0, 3.0, 4.5, 5.0, 5.0, 6.0, 7.5, 8.0]
    marks = [0.15, 0.4, 0.55, 0.6, 0.8, 0.35, 0.25, 0.7, 0.45, 0.9]
    grid = mt.EvaluationGrid.explicit([0.3, 0.55, 0.8], mt.MarkInterval(0.0, 1.0))
    est_worst = 0.0
    for n in range(2, 11):
        y = np.array(ys[:n])
        base_marks = np.array(marks[:n])
        arm = np.array([1] * ((n + 1) // 2) + [0] * (n // 2))
        for pattern in itertools.product([0, 1], repeat=n):
            delta = np.array(pattern)
            mark = np.where(delta == 1, base_marks, np.nan)
            ds = mt.Dataset.from_arrays(y, delta, mark, arm)
            est = mt.estimate_on_grid(ds, grid, bandwidth=0.3)
            jump_times, values, jump_arm, _ = fit_censoring_km(y[None], delta[None], arm[None])
            for a, curve in ((0, est.tau0), (1, est.tau1)):
                idx = np.flatnonzero(arm == a)
                surv = functools.partial(left_continuous, jump_times[jump_arm == a],
                                         values[jump_arm == a])
                for got, v in zip(curve, grid.points):
                    want = stieltjes_group_mean(
                        y[idx], delta[idx], mark[idx], surv, v, 0.3
                    )
                    est_worst = max(est_worst, abs(got - want))
    ok_est = est_worst <= 1e-12
    _report(
        4,
        "exact agreement with brute-force oracles (KM n<=8, estimator n<=10)",
        ok_km and ok_est,
        f"max |KM diff| {km_worst:.2e}, max |estimator diff| {est_worst:.2e}",
    )


def test_criterion_5_no_censoring_reduction():
    rng = np.random.default_rng(SEED)
    n = 60
    y = rng.exponential(2.0, n)
    mark = rng.random(n)
    arm = np.array([1] * 36 + [0] * 24)
    ds = mt.Dataset.from_arrays(y, np.ones(n, dtype=int), mark, arm)
    grid = mt.EvaluationGrid.explicit([0.2, 0.5, 0.8], mt.MarkInterval(0.0, 1.0))
    equal = 0
    for h in (0.1, 0.27):
        est = mt.estimate_on_grid(ds, grid, bandwidth=h)
        for a, curve in ((0, est.tau0), (1, est.tau1)):
            idx = np.flatnonzero(ds.arm == a)
            for got, v in zip(curve, grid.points):
                # the estimator adds an arm's terms left to right in record order
                terms = y[idx] * scaled_kernel(mark[idx], v, h)
                plain = functools.reduce(operator.add, terms) / idx.size
                equal += int(got == plain)
    _report(5, "with no censoring the estimator is the plain kernel-weighted "
               "mean, bitwise", equal == 12, f"{equal} of 12 cases equal")


def test_criterion_6_kernel_quadrature():
    mass_worst = 0.0
    for v, h in [(0.3, 0.1), (0.5, 0.25), (0.7, 0.04), (0.0, 1.0)]:
        total, _ = quad(lambda u: scaled_kernel(u, v, h), v - h, v + h)
        mass_worst = max(mass_worst, abs(total - 1.0))
    nu0, _ = quad(lambda x: epanechnikov(x) ** 2, -1.0, 1.0)
    nu0_err = abs(nu0 - 0.6)
    ok = mass_worst <= 1e-8 and nu0_err <= 1e-9
    _report(
        6,
        "kernel mass 1 to 1e-8 and squared-kernel integral 0.6 to 1e-9",
        ok,
        f"max mass error {mass_worst:.2e}, nu0 error {nu0_err:.2e}",
    )


def test_criterion_7_unmarked_analysis_misses_the_effect():
    # tau1 = 3 + 2 sin(2 pi v) against tau0 = 3 - 2 sin(2 pi v): the
    # mark-averaged effect is zero, so a difference of IPCW means sees
    # nothing while the mark-specific global test has power
    scenario = resolve_censoring(
        mt.Scenario(c1=3.0, c2=0.0, c3=2.0, n=1500, reps=500, seed=SEED)
    )
    diffs = np.empty(scenario.reps)
    for r in range(scenario.reps):
        rng = np.random.default_rng(_replication_seed(SEED, r, 0))
        diffs[r] = ipcw_mean_difference(draw_dataset(scenario, rng))
    mean_diff = float(np.mean(diffs))

    import dataclasses

    power, _ = rejection_rate(
        dataclasses.replace(scenario, reps=200), "global", resamples=500
    )
    ok = abs(mean_diff) <= 0.1 and power > 0.9
    _report(
        7,
        "difference of IPCW means within 0.1 of zero while global power "
        "exceeds 0.9, n=1500",
        ok,
        f"mean difference {mean_diff:.4f}, power {power:.3f}",
    )


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "marktau.cli", *args],
        capture_output=True, text=True, env={**os.environ},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_8_byte_identical_artifacts(tmp_path, trial_files):
    csv_path, meta_path = trial_files

    sim_bytes = []
    for threads in (1, 2, 8):
        out = tmp_path / f"sim_t{threads}.csv"
        _run_cli([
            "simulate", "--c3", "-1", "--n", "300", "--reps", "40",
            "--seed", str(SEED),
            "--censor-mean0", "5.440745", "--censor-mean1", "5.757202",
            "--interval", "0.1,0.9", "--grid-points", "8",
            "--threads", str(threads), "--out", str(out),
        ])
        sim_bytes.append(out.read_bytes())
    sim_ok = sim_bytes[0] == sim_bytes[1] == sim_bytes[2]

    power_bytes = []
    for threads in (1, 2, 8):
        out = tmp_path / f"pow_t{threads}.csv"
        _run_cli([
            "power", "--kind", "global", "--c3-range=-2:-1:1",
            "--n", "200", "--reps", "10", "--resamples", "50",
            "--seed", str(SEED),
            "--censor-mean0", "5.44", "--censor-mean1", "5.5",
            "--interval", "0.1,0.9", "--grid-points", "5",
            "--threads", str(threads), "--out", str(out),
        ])
        power_bytes.append(out.read_bytes())
    power_ok = power_bytes[0] == power_bytes[1] == power_bytes[2]

    est_bytes, test_bytes = [], []
    for attempt in (1, 2):
        est_out = tmp_path / f"est_{attempt}.csv"
        _run_cli([
            "estimate", "--input", str(csv_path), "--meta", str(meta_path),
            "--interval", "0.2,0.45", "--grid-points", "6",
            "--out", str(est_out),
        ])
        est_bytes.append(
            est_out.read_bytes() + est_out.with_suffix(".json").read_bytes()
        )
        test_out = tmp_path / f"report_{attempt}.json"
        _run_cli([
            "test", "--input", str(csv_path), "--meta", str(meta_path),
            "--interval", "0.2,0.45", "--grid-points", "5",
            "--kind", "global", "--resamples", "200", "--seed", str(SEED),
            "--out", str(test_out),
        ])
        test_bytes.append(test_out.read_bytes())
    rerun_ok = est_bytes[0] == est_bytes[1] and test_bytes[0] == test_bytes[1]

    _report(
        8,
        "byte-identical artifacts across --threads 1/2/8 and across re-runs",
        sim_ok and power_ok and rerun_ok,
        f"simulate {sim_ok}, power {power_ok}, re-runs {rerun_ok}",
    )


def test_synthetic_trial_pipeline(tmp_path, capsys, trial_files):
    # stands in for the private trial data: same schema, raw mark scale,
    # metadata sidecar; the full pipeline must run and fill every field
    import json

    csv_path, meta_path = trial_files
    est_out = tmp_path / "trial_est.csv"
    code = main([
        "estimate", "--input", str(csv_path), "--meta", str(meta_path),
        "--interval", "0.2,0.45", "--grid-points", "6", "--out", str(est_out),
    ])
    assert code == 0
    summary = json.loads(est_out.with_suffix(".json").read_text())
    ok = summary["observed_events"] > 0 and summary["h"] > 0

    stats = {}
    for kind in ("global", "constancy"):
        report_out = tmp_path / f"trial_{kind}.json"
        code = main([
            "test", "--input", str(csv_path), "--meta", str(meta_path),
            "--interval", "0.2,0.45", "--grid-points", "6",
            "--kind", kind, "--resamples", "200", "--seed", str(SEED),
            "--out", str(report_out),
        ])
        assert code == 0
        report = json.loads(report_out.read_text())
        stats[kind] = (report["statistic"], report["p_value"])
        ok = ok and np.isfinite(report["statistic"])
        ok = ok and 0.0 <= report["p_value"] <= 1.0
        ok = ok and isinstance(report["reject"], bool)
    capsys.readouterr()
    status = "PASS" if ok else "FAIL"
    print(
        f"{status} synthetic trial fixture: pipeline complete "
        f"(global stat {stats['global'][0]:.3f} p {stats['global'][1]:.3f}, "
        f"constancy stat {stats['constancy'][0]:.3f} "
        f"p {stats['constancy'][1]:.3f})"
    )
    assert ok
