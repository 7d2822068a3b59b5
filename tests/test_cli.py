import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from marktau.cli import main

from oracles import parse_dataset_rows, product_limit_steps


SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: this test process has scipy loaded by the oracles. The
    # process pool, and multiprocessing with it, loads only for --threads > 1.
    code = ("import marktau.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.') "
            "or m in ('multiprocessing', 'concurrent.futures.process')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert proc.stdout.strip() == "[]"


_DATA_OPTIONS = {"--input", "--meta", "--drop-missing-marks"}
_GRID_OPTIONS = {"--interval", "--grid-points", "--grid", "--bandwidth-scale"}
_SCENARIO_OPTIONS = {"--c1", "--c2", "--n", "--p-treat", "--censor-mean0", "--censor-mean1",
                     "--censor-target", "--alpha", "--reps", "--seed", "--threads", "--out"}
OPTIONS = {
    "estimate": _DATA_OPTIONS | _GRID_OPTIONS | {"--bandwidth", "--alpha", "--out",
                                                 "--dump-censoring"},
    "test": _DATA_OPTIONS | _GRID_OPTIONS | {"--bandwidth", "--kind", "--resamples", "--alpha",
                                             "--seed", "--pi-design", "--add-one-correction",
                                             "--out"},
    "simulate": _GRID_OPTIONS | _SCENARIO_OPTIONS | {"--c3"},
    "power": _GRID_OPTIONS | _SCENARIO_OPTIONS | {"--kind", "--c3-range", "--resamples"},
}


def _help(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv) if argv else None)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_command_and_only_the_named_commands_options(capsys, monkeypatch):
    # the parser adds options only to the command it runs
    top = _help(capsys, "-h")
    for command in OPTIONS:
        assert re.search(rf"^    {command} +\S", top, re.MULTILINE), command
    for command, options in OPTIONS.items():
        text = _help(capsys, command, "-h")
        assert set(re.findall(r"(?<![\w-])--[a-z0-9-]+", text)) == options | {"--help"}
    # with no arguments, main reads the command line
    monkeypatch.setattr(sys, "argv", ["marktau", "power", "-h"])
    assert _help(capsys) == _help(capsys, "power", "-h")


def test_unknown_option_before_the_command_fails_as_the_command_does(capsys):
    # the command's options are added even when the command is not the first argument
    with pytest.raises(SystemExit) as exc:
        main(["--x", "estimate"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "marktau estimate: error: the following arguments are required: --input, --out\n")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _read_artifact(path):
    """Split a CSV artifact into (config dict, header, data rows)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    prefix = "# marktau format=7 config="
    assert lines[0].startswith(prefix)
    config = json.loads(lines[0][len(prefix):])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return config, header, rows


def test_estimate_artifacts(tmp_path, capsys, trial_files):
    csv_path, meta_path = trial_files
    out = tmp_path / "est.csv"
    code, _, err = _run(
        capsys,
        "estimate", "--input", str(csv_path), "--meta", str(meta_path),
        "--interval", "0.2,0.45", "--grid-points", "6", "--out", str(out),
    )
    assert code == 0, err
    config, header, rows = _read_artifact(out)
    assert header == [
        "v", "tau1", "tau0", "tau", "sigma2", "ci_lower", "ci_upper",
        "events1", "events0",
    ]
    assert len(rows) == 6
    for row in rows:
        floats = [float(x) for x in row[:7]]
        assert all(math.isfinite(x) for x in floats)
        assert floats[5] <= floats[3] <= floats[6]
        assert int(row[7]) >= 0 and int(row[8]) >= 0

    summary = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    assert summary["format_version"] == 7
    assert summary["config"] == config
    assert summary["n"] == summary["n0"] + summary["n1"]
    assert summary["h"] > 0
    assert summary["observed_events"] >= 20
    assert summary["dropped_rows"] == 0
    assert "input_sha256" in config
    assert "threads" not in config and "input" not in config


def test_estimate_rejects_nonpositive_bandwidth(tmp_path, capsys, trial_files):
    csv_path, meta_path = trial_files
    for value in ("0", "-0.1", "nan", "inf"):
        code, _, err = _run(
            capsys,
            "estimate", "--input", str(csv_path), "--meta", str(meta_path),
            "--interval", "0.2,0.45", "--bandwidth", value,
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1, value
        assert "bandwidth must be positive" in err, value


def test_estimate_requires_scaled_marks(tmp_path, capsys, trial_files):
    csv_path, _ = trial_files
    # without the sidecar the raw marks are far outside [0,1]
    code, _, err = _run(
        capsys,
        "estimate", "--input", str(csv_path),
        "--interval", "0.2,0.45", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "fails validation" in err
    assert "mark in [0,1]" in err


def test_estimate_requires_interval_or_grid(tmp_path, capsys, trial_files):
    csv_path, meta_path = trial_files
    code, _, err = _run(
        capsys,
        "estimate", "--input", str(csv_path), "--meta", str(meta_path),
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "pass --interval" in err


def test_estimate_dumps_censoring_curves(tmp_path, capsys, trial_files):
    csv_path, meta_path = trial_files
    out = tmp_path / "est.csv"
    prefix = tmp_path / "cens"
    code, _, _ = _run(
        capsys,
        "estimate", "--input", str(csv_path), "--meta", str(meta_path),
        "--interval", "0.2,0.45", "--out", str(out),
        "--dump-censoring", str(prefix),
    )
    assert code == 0
    for a in (0, 1):
        _, header, rows = _read_artifact(tmp_path / f"cens_arm{a}.csv")
        assert header == ["t", "survival"]
        assert [float(x) for x in rows[0]] == [0.0, 1.0]
        surv = [float(r[1]) for r in rows]
        times = [float(r[0]) for r in rows]
        assert times == sorted(times)
        assert all(b <= a for a, b in zip(surv, surv[1:]))
    _assert_dump_is_the_oracle(prefix, parse_dataset_rows(csv_path.read_text()))


def _assert_dump_is_the_oracle(prefix, dataset):
    """Each arm's dump is 0.0,1.0 and then that arm's product-limit steps, bit for bit."""
    for a in (0, 1):
        _, header, rows = _read_artifact(Path(f"{prefix}_arm{a}.csv"))
        assert header == ["t", "survival"]
        mine = dataset.arm == a
        steps = product_limit_steps(dataset.y[mine], dataset.delta[mine])
        assert rows == [["0.0", "1.0"]] + [[repr(t), repr(value)] for t, value in steps]


@pytest.mark.parametrize("first, second", [("-0.0", "0.0"), ("0.0", "-0.0")])
def test_dump_of_signed_zero_censorings_and_an_uncensored_arm(tmp_path, capsys, first,
                                                              second):
    # the control arm's censorings at -0.0 and 0.0 tie with its failure at
    # 0.0, and the jump has the sign of the last in record order; the
    # treated arm has no censoring, so its dump is the header and 0.0,1.0
    text = ("y,delta,mark,a\n0.0,1,0.3,0\n"
            f"{first},0,,0\n{second},0,,0\n"
            "1.5,0,,0\n2.0,1,0.6,0\n2.5,1,0.4,0\n1.0,1,0.5,1\n2.0,1,0.7,1\n3.0,1,0.2,1\n")
    path = tmp_path / "zeros.csv"
    path.write_text(text, encoding="utf-8")
    prefix = tmp_path / "cens"
    code, _, _ = _run(capsys, "estimate", "--input", str(path), "--interval", "0.1,0.9",
                      "--bandwidth", "0.3", "--out", str(tmp_path / "est.csv"),
                      "--dump-censoring", str(prefix))
    assert code == 0
    _assert_dump_is_the_oracle(prefix, parse_dataset_rows(text))
    # at zero, 2 of the arm's 6 subjects are censored
    assert _read_artifact(tmp_path / "cens_arm0.csv")[2][1] == [second, repr(4 / 6)]
    assert _read_artifact(tmp_path / "cens_arm1.csv")[2] == [["0.0", "1.0"]]


def test_test_report_and_determinism(tmp_path, capsys, trial_files):
    csv_path, meta_path = trial_files
    out = tmp_path / "report.json"
    args = (
        "test", "--input", str(csv_path), "--meta", str(meta_path),
        "--interval", "0.2,0.45", "--grid-points", "5", "--kind", "global",
        "--resamples", "60", "--seed", "11", "--out", str(out),
    )
    code, stdout, _ = _run(capsys, *args)
    assert code == 0
    assert "global test:" in stdout
    assert "reject=" in stdout
    report = json.loads(out.read_text(encoding="utf-8"))
    for key in ("format_version", "config", "kind", "statistic",
                "critical_value", "p_value", "reject", "alpha", "B", "seed",
                "grid", "excluded_points", "skipped_pairs", "covariance_rank", "h", "n"):
        assert key in report, key
    assert report["kind"] == "global"
    assert report["B"] == 60 and report["seed"] == 11 and report["alpha"] == 0.05
    assert 1 <= report["covariance_rank"] <= 5
    first = out.read_bytes()

    code, _, _ = _run(capsys, *args)
    assert code == 0
    assert out.read_bytes() == first

    reseeded = tmp_path / "report2.json"
    code, _, _ = _run(capsys, *args[:-2], "--seed", "12", "--out", str(reseeded))
    assert code == 0
    a = json.loads(out.read_text(encoding="utf-8"))
    b = json.loads(reseeded.read_text(encoding="utf-8"))
    assert a["statistic"] == b["statistic"]
    assert a["critical_value"] != b["critical_value"]


def test_constancy_needs_a_real_grid(tmp_path, capsys, trial_files):
    csv_path, meta_path = trial_files
    code, _, err = _run(
        capsys,
        "test", "--input", str(csv_path), "--meta", str(meta_path),
        "--interval", "0.2,0.45", "--grid", "0.3", "--kind", "constancy",
        "--resamples", "20",
    )
    assert code == 1
    assert "at least 2 usable" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--alpha", "1.5", "alpha must be in (0,1), got 1.5"),
    ("--resamples", "0", "resamples must be >= 1, got 0"),
    ("--pi-design", "1.5", "pi_design must be in (0,1), got 1.5"),
])
def test_test_setting_out_of_range_is_an_error_line(tmp_path, capsys, trial_files,
                                                    flag, value, message):
    csv_path, meta_path = trial_files
    out = tmp_path / "report.json"
    code, stdout, err = _run(
        capsys,
        "test", "--input", str(csv_path), "--meta", str(meta_path),
        "--interval", "0.2,0.45", "--grid-points", "5", "--kind", "global",
        flag, value, "--out", str(out),
    )
    assert code == 1
    assert err == f"error: {message}\n"
    assert stdout == "" and not out.exists()


def test_simulate_artifact(tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    code, _, err = _run(
        capsys,
        "simulate", "--c3", "-1", "--n", "150", "--reps", "4", "--seed", "5",
        "--censor-mean0", "5.44", "--censor-mean1", "5.76",
        "--grid", "0.3,0.5,0.7", "--interval", "0.1,0.9", "--out", str(out),
    )
    assert code == 0, err
    config, header, rows = _read_artifact(out)
    assert header == [
        "v", "true_tau", "bias", "bias_se", "ratio", "ratio_se",
        "coverage", "coverage_se", "reps", "n",
    ]
    assert len(rows) == 3
    assert config["reps"] == 4 and config["n"] == 150
    for row in rows:
        assert int(row[8]) == 4 and int(row[9]) == 150


def test_power_artifact(tmp_path, capsys):
    out = tmp_path / "power.csv"
    code, _, err = _run(
        capsys,
        "power", "--kind", "global", "--c3-range=-2:0:2",
        "--n", "150", "--reps", "3", "--resamples", "20", "--seed", "5",
        "--censor-mean0", "5.44", "--censor-mean1", "5.5",
        "--grid", "0.3,0.5,0.7", "--interval", "0.1,0.9", "--out", str(out),
    )
    assert code == 0, err
    config, header, rows = _read_artifact(out)
    assert header == ["c3", "rate", "se", "rejections", "reps", "n"]
    assert [float(r[0]) for r in rows] == [-2.0, 0.0]
    assert config["kind"] == "global" and config["B"] == 20
    for row in rows:
        assert 0.0 <= float(row[1]) <= 1.0
        assert int(row[4]) == 3 and int(row[5]) == 150


@pytest.mark.parametrize("command", [
    ("simulate", "--c3", "-1", "--c1", "nan"),
    ("simulate", "--c3", "-1", "--c1", "inf"),
    ("power", "--kind", "global", "--c3-range=-1:-1:1", "--c2=-inf"),
])
def test_non_finite_coefficient_is_an_error_line(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    code, _, err = _run(
        capsys, *command, "--censor-mean0", "5", "--censor-mean1", "5",
        "--n", "200", "--reps", "3", "--out", str(out),
    )
    assert code == 1
    assert err.startswith("error: c") and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ("simulate", "--c3", "-1"),
    ("power", "--kind", "global", "--c3-range=-1:-1:1"),
])
@pytest.mark.parametrize("scale, shown", [("0", "0.0"), ("-1", "-1.0"), ("nan", "nan")])
def test_nonpositive_bandwidth_scale_fails_before_calibrating(tmp_path, capsys, monkeypatch,
                                                              command, scale, shown):
    # the scenario rejects the scale, so no censoring calibration runs first
    from marktau import simulation

    def no_calibration(*args):
        raise AssertionError("calibrated before checking the bandwidth scale")

    monkeypatch.setattr(simulation, "calibrate_censoring", no_calibration)
    out = tmp_path / "x.csv"
    code, stdout, err = _run(capsys, *command, "--n", "200", "--reps", "3",
                             "--bandwidth-scale", scale, "--out", str(out))
    assert code == 1
    assert err == f"error: bandwidth scale must be positive, got {shown}\n"
    assert stdout == "" and not out.exists()


def test_non_integer_thread_variable_is_an_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MARKTAU_THREADS", "abc")
    out = tmp_path / "x.csv"
    code, _, err = _run(
        capsys, "simulate", "--c3", "-1", "--n", "150", "--reps", "2",
        "--censor-mean0", "5.44", "--censor-mean1", "5.76", "--out", str(out),
    )
    assert code == 1
    assert err == "error: MARKTAU_THREADS must be an integer, got 'abc'\n"
    assert not out.exists()


@pytest.mark.parametrize("threads, env", [(["--threads", "0"], None), ([], "0")])
def test_zero_threads_is_an_error_line(tmp_path, capsys, monkeypatch, threads, env):
    if env is not None:
        monkeypatch.setenv("MARKTAU_THREADS", env)
    out = tmp_path / "x.csv"
    code, _, err = _run(
        capsys, "simulate", "--c3", "-1", "--n", "150", "--reps", "2",
        "--censor-mean0", "5.44", "--censor-mean1", "5.76", *threads, "--out", str(out),
    )
    assert code == 1
    assert err == "error: thread count must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ("simulate", "--c3", "-1"),
    ("power", "--kind", "global", "--c3-range=-2:0:2"),
])
def test_simulation_commands_take_no_explicit_bandwidth(tmp_path, capsys, command):
    # scenarios always use the rule of thumb; only --bandwidth-scale acts on them
    with pytest.raises(SystemExit) as exc:
        main([*command, "--n", "150", "--reps", "2", "--interval", "0.1,0.9",
              "--bandwidth", "0.01", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bandwidth 0.01" in capsys.readouterr().err


def test_drop_missing_marks_flag(tmp_path, capsys):
    text = "y,delta,mark,a\n1.0,1,,1\n2.0,0,,0\n1.5,1,0.6,0\n3.0,1,0.2,1\n"
    path = tmp_path / "holes.csv"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "est.csv"
    base = (
        "estimate", "--input", str(path), "--grid", "0.2,0.6",
        "--interval", "0.1,0.9", "--bandwidth", "0.3", "--out", str(out),
    )
    code, _, err = _run(capsys, *base)
    assert code == 1
    assert "mark absent" in err

    code, _, err = _run(capsys, *base, "--drop-missing-marks")
    assert code == 0, err
    summary = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    assert summary["dropped_rows"] == 1
    assert summary["n"] == 3


@pytest.mark.parametrize("row, message", [
    ("x,1,,7", "line 2: y is not numeric: 'x'"),
    ("1,1,,7", "line 2: a must be 0 or 1, got '7'"),
])
def test_drop_missing_marks_reports_a_row_with_another_fault(tmp_path, capsys, row, message):
    # an empty mark is not the only fault of this row, so it is not dropped
    path = tmp_path / "bad.csv"
    path.write_text(f"y,delta,mark,a\n{row}\n2,0,,0\n1,1,0.5,1\n", encoding="utf-8")
    out = tmp_path / "est.csv"
    code, _, err = _run(capsys, "estimate", "--input", str(path), "--grid", "0.5",
                        "--bandwidth", "0.3", "--drop-missing-marks", "--out", str(out))
    assert code == 1
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_small_event_count_warns(tmp_path, capsys):
    rows = ["y,delta,mark,a"]
    rows += [f"{1.0 + i / 10.0},1,{0.1 + 0.08 * i},{i % 2}" for i in range(8)]
    path = tmp_path / "tiny.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, _, err = _run(
        capsys,
        "estimate", "--input", str(path), "--grid", "0.3,0.5",
        "--interval", "0.1,0.9", "--bandwidth", "0.3",
        "--out", str(tmp_path / "est.csv"),
    )
    assert code == 0
    assert "only 8 observed events" in err


def test_lone_cr_line_ends_estimate_and_hash_the_bytes(tmp_path, capsys):
    rows = [f"{1.0 + i / 10.0},1,{0.1 + 0.03 * i},{i % 2}" for i in range(24)]
    data = "\r".join(["y,delta,mark,a", *rows]).encode("utf-8")
    path = tmp_path / "mac.csv"
    path.write_bytes(data)
    out = tmp_path / "est.csv"
    code, _, err = _run(
        capsys,
        "estimate", "--input", str(path), "--grid", "0.3,0.5",
        "--interval", "0.1,0.9", "--out", str(out),
    )
    assert code == 0, err
    summary = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    assert summary["n"] == 24
    assert summary["config"]["input_sha256"] == hashlib.sha256(data).hexdigest()


def test_validation_failure_lists_the_first_20_violations(tmp_path, capsys):
    # one line per violation flooded stderr: 120 027 lines on a 2e5-row raw-mark file
    rows = [f"{1.0 + i / 10.0},1,{2.0 + i},{i % 2}" for i in range(25)]
    path = tmp_path / "raw.csv"
    path.write_text("\n".join(["y,delta,mark,a", *rows]) + "\n", encoding="utf-8")
    code, _, err = _run(
        capsys,
        "estimate", "--input", str(path), "--grid", "0.3,0.5",
        "--interval", "0.1,0.9", "--out", str(tmp_path / "est.csv"),
    )
    assert code == 1
    lines = err.splitlines()
    assert lines[0] == "error: input fails validation:"
    assert lines[1:21] == [f"row {i}: mark in [0,1] (mark={2.0 + i!r} (is the data scaled?))"
                           for i in range(20)]
    assert lines[21:] == ["... and 5 more"]


def test_malformed_csv_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("y,delta,mark,a\n1.0,7,0.3,1\n", encoding="utf-8")
    code, _, err = _run(
        capsys,
        "estimate", "--input", str(path), "--grid", "0.3,0.5",
        "--interval", "0.1,0.9", "--out", str(tmp_path / "est.csv"),
    )
    assert code == 1
    assert err.startswith("error:")
    assert "line 2" in err


@pytest.mark.parametrize("flags, sidecar, message", [
    (("--interval", "a,0.9"), None, "interval must be 'lower,upper'"),
    (("--interval", "0.2,0.45", "--grid", "0.3,nan"), None, "strictly increasing"),
    (("--interval", "0.2,0.45"), '{"mark_scaling": {"min": "a", "max": 10}}',
     "min must be a number"),
    (("--interval", "0.2,0.45"), '{"mark_scaling": {"min": null, "max": 10}}',
     "min must be a number"),
    (("--interval", "0.2,0.45"), '{"mark_scaling": {"min": [1], "max": 10}}',
     "min must be a number"),
])
def test_non_numeric_estimate_input_is_an_error_line(tmp_path, capsys, trial_files,
                                                     flags, sidecar, message):
    csv_path, meta_path = trial_files
    if sidecar is not None:
        meta_path = tmp_path / "meta.json"
        meta_path.write_text(sidecar, encoding="utf-8")
    code, _, err = _run(
        capsys,
        "estimate", "--input", str(csv_path), "--meta", str(meta_path), *flags,
        "--out", str(tmp_path / "est.csv"),
    )
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("c3_range, message", [
    ("a:1:1", "must be 'lo:hi:step'"),
    ("-2:0", "must be 'lo:hi:step'"),
    ("nan:1:1", "finite lo <= hi"),
    ("0:inf:1", "finite lo <= hi"),
])
def test_non_numeric_c3_range_is_an_error_line(tmp_path, capsys, c3_range, message):
    code, _, err = _run(
        capsys,
        "power", "--kind", "global", f"--c3-range={c3_range}", "--n", "150",
        "--reps", "2", "--out", str(tmp_path / "power.csv"),
    )
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_sidecar_follow_up_is_an_unknown_key(tmp_path, capsys, trial_files):
    # follow_up changed no result, so the sidecar no longer takes it
    csv_path, _ = trial_files
    meta_path = tmp_path / "meta.json"
    meta_path.write_text(json.dumps({"mark_scaling": "auto", "follow_up": 12.5}),
                         encoding="utf-8")
    out = tmp_path / "out.csv"
    for command in (("estimate",), ("test", "--kind", "global")):
        code, _, err = _run(capsys, *command, "--input", str(csv_path), "--meta",
                            str(meta_path), "--interval", "0.2,0.45", "--grid-points", "5",
                            "--out", str(out))
        assert code == 1
        assert err == "error: unknown sidecar keys: ['follow_up']\n"
        assert not out.exists()



@pytest.mark.parametrize("command", ["estimate", "test"])
@pytest.mark.parametrize("bad", ["input", "sidecar"])
def test_bytes_that_are_not_utf8_are_an_error_line(tmp_path, capsys, trial_files, command,
                                                   bad):
    csv_path, meta_path = trial_files
    if bad == "input":
        # the last row's decimal point becomes a byte 0xff
        data = csv_path.read_bytes()
        offset = data.rindex(b".")
        csv_path = path = tmp_path / "latin.csv"
        path.write_bytes(data[:offset] + b"\xff" + data[offset + 1:])
    else:
        data = b'{"mark_scaling": \xff"auto"}'
        offset = data.index(b"\xff")
        meta_path = path = tmp_path / "latin.json"
        path.write_bytes(data)
    flags = ("--kind", "global", "--resamples", "20") if command == "test" else ()
    out = tmp_path / "out.csv"
    code, stdout, err = _run(capsys, command, "--input", str(csv_path), "--meta", str(meta_path),
                             "--interval", "0.2,0.45", *flags, "--out", str(out))
    assert code == 1
    assert err == f"error: {bad} {path} is not UTF-8: byte 0xff at offset {offset}\n"
    assert stdout == "" and not out.exists()
