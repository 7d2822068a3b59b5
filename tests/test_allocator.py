"""The CLI's malloc thresholds: artifacts that do not depend on the allocator, a CLI that
runs where there is no ``mallopt``, and the page faults a repeated sweep no longer takes."""

import ctypes
import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import pytest

from marktau import simulation
from marktau.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# One process runs every command, so later commands get the heap blocks earlier ones freed.
_COMMANDS = r"""
import sys
from marktau.cli import main
csv, meta, out = sys.argv[1:]
data = ["--input", csv, "--meta", meta, "--interval", "0.1,0.9", "--grid-points", "12"]
sweep = ["--c3-range=-2:0:2", "--n", "300", "--reps", "12", "--resamples", "100", "--seed", "3"]
for argv in (
    ["estimate", *data, "--out", f"{out}/est.csv", "--dump-censoring", f"{out}/cens"],
    ["test", "--kind", "global", *data, "--resamples", "300", "--seed", "3",
     "--out", f"{out}/global.json"],
    ["test", "--kind", "constancy", *data, "--resamples", "300", "--seed", "3",
     "--out", f"{out}/constancy.json"],
    ["simulate", "--c3", "-1", "--n", "300", "--reps", "20", "--seed", "3",
     "--out", f"{out}/sim.csv"],
    ["power", "--kind", "global", *sweep, "--out", f"{out}/power_global.csv"],
    ["power", "--kind", "constancy", *sweep, "--out", f"{out}/power_constancy.csv"],
):
    assert main(argv) == 0, argv
"""


def _env(**extra):
    """This environment without glibc's malloc variables, plus ``extra``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    return {**env, "PYTHONPATH": str(SRC), **extra}


def _artifacts(folder):
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


def test_artifacts_do_not_depend_on_the_allocator(tmp_path, trial_files):
    # MALLOC_PERTURB_ fills every byte glibc hands out or takes back, so an
    # array read before it is written gives other bytes than in a plain run
    runs = {}
    for name, extra in (("plain", {}), ("perturbed", {"MALLOC_PERTURB_": "165"})):
        out = tmp_path / name
        out.mkdir()
        proc = subprocess.run([sys.executable, "-c", _COMMANDS, *map(str, trial_files), str(out)],
                              capture_output=True, text=True, env=_env(**extra))
        assert proc.returncode == 0, proc.stderr
        runs[name] = (proc.stdout, _artifacts(out))
    assert len(runs["plain"][1]) == 9
    assert runs["perturbed"] == runs["plain"]


def test_keep_freed_memory_fixes_both_thresholds(monkeypatch):
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(
        mallopt=lambda param, value: calls.append((param, value)) or 1))
    simulation._keep_freed_memory()
    # M_TRIM_THRESHOLD (-1) at 64 MiB and M_MMAP_THRESHOLD (-3) at 8 MiB
    assert calls == [(-1, 64 << 20), (-3, 8 << 20)]


def _missing_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_missing_library, lambda name: types.SimpleNamespace()],
                         ids=["no-library", "no-mallopt"])
def test_cli_runs_where_there_is_no_mallopt(tmp_path, capsys, monkeypatch, trial_files, cdll):
    csv_path, meta_path = trial_files

    def estimate(out):
        code = main(["estimate", "--input", str(csv_path), "--meta", str(meta_path),
                     "--interval", "0.2,0.8", "--grid-points", "6", "--out", str(out)])
        return code, out.read_bytes(), out.with_suffix(".json").read_bytes()

    plain = estimate(tmp_path / "plain.csv")
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert estimate(tmp_path / "patched.csv") == plain
    assert plain[0] == 0
    assert "error" not in capsys.readouterr().err


# The sim_study sweep, twice; the faults of the second call.
_FAULTS = r"""
import ctypes, resource, sys, types
from marktau.cli import main
if sys.argv[1] == "no-op":
    ctypes.CDLL = lambda name: types.SimpleNamespace(mallopt=lambda param, value: 1)
argv = ["power", "--kind", "constancy", "--c3-range=-2:0:1", "--n", "1000", "--reps", "40",
        "--resamples", "500", "--grid-points", "20", "--out", sys.argv[2]]
assert main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt thresholds")
def test_a_repeated_sweep_faults_its_pages_in_only_once(tmp_path):
    faults = {}
    for mallopt in ("glibc", "no-op"):
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTS, mallopt, str(tmp_path / f"{mallopt}.csv")],
            capture_output=True, text=True, env=_env(), check=True)
        faults[mallopt] = int(proc.stdout)
    assert faults["glibc"] * 10 < faults["no-op"], faults
