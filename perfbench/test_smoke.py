"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import Op, SimSpec, TrialSpec  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "trial_1e4": TrialSpec(n=2000, resamples=50, kinds=("global", "constancy"),
                           raw_marks=False),
    "trial_2e5": TrialSpec(n=2000, resamples=50, kinds=("global",), raw_marks=True),
    "sim_study": SimSpec(n=300, sim_reps=5, power_reps=4, resamples=50),
}
PER_OP = {
    "trial_1e4": {"estimate_p50_s", "test_global_p50_s", "test_constancy_p50_s"},
    "trial_2e5": {"estimate_p50_s", "test_global_p50_s"},
    "sim_study": {"simulate_reps_per_s", "power_global_reps_per_s",
                  "power_constancy_reps_per_s"},
}


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def _execute(cli, tmp_path, name, trace, extra_ops=()):
    return run.execute(cli, name, TINY[name], 3, 0.0, trace, tmp_path, time.perf_counter(),
                       extra_ops)


def _assert_declared(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(cli, tmp_path, name):
    result, report = _execute(cli, tmp_path, name, trace=False)
    _assert_declared(result["metrics"], BENCHMARK["end_to_end"])
    assert result["attempted"] == len(report["samples_s"]) >= 2
    assert set(report["per_op"]) == PER_OP[name]
    assert report["failed_op_frac"] == result["failed"] / result["attempted"]
    assert set(report["artifacts_sha256"]) == set(report["samples_s"])
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())

    result, report = _execute(cli, tmp_path, name, trace=True)
    _assert_declared(result["metrics"], BENCHMARK["per_layer"])
    assert report["trace_absent"] == []


def test_forced_failure_raises_failed_op_frac(cli, tmp_path):
    missing = tmp_path / "missing.csv"
    out = tmp_path / "broken.csv"
    broken = Op("broken", False,
                ("estimate", "--input", str(missing), "--interval", "0.1,0.9",
                 "--out", str(out)),
                (out,), lambda artifacts: {})
    result, report = _execute(cli, tmp_path, "trial_2e5", False, extra_ops=(broken,))
    assert result["failed"] >= 1 and not result["correct"]
    assert report["failed_op_frac"] > 0
    assert report["failures"][0]["op"] == "broken"


def test_missing_entry_point_is_listed_not_fatal(cli, tmp_path, monkeypatch):
    gone = ("inference.gone", "marktau.inference", "no_such_function", None)
    monkeypatch.setattr(spans, "ENTRY_POINTS", spans.ENTRY_POINTS + (gone,))
    result, report = _execute(cli, tmp_path, "trial_2e5", trace=True)
    assert report["trace_absent"] == ["marktau.inference.no_such_function"]
    assert result["metrics"]["inference.multiplier_draws.s"]["value"] > 0
