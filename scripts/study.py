#!/usr/bin/env python3
"""Run the simulation study and write one CSV per study.

The cells are the constant table ``STUDIES``, all at seed 20260822 with
each arm's censoring mean solved for the 40 % target: the estimation
metrics, the size and power sweep of both tests, and both tests near the
null. A cell's rows are the ones that ``marktau simulate`` or ``marktau
power`` writes for it, after its name and, in a sweep, the test kind. Each
file starts with the CLI's ``# marktau format=`` line, whose config maps
each cell to its resolved configuration, censoring means included. The
files are byte-identical for any ``--threads``, and ``docs/study/`` holds
those of this table. Run other cells through ``marktau simulate`` and
``marktau power``.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import marktau as mt
from marktau.cli import (_POWER_HEADER, _SIMULATE_HEADER, _parse_c3_range, _power_rows,
                         _resolve_workers, _scenario_config, _simulate_rows, _write_csv)
from marktau.inference import TEST_KINDS
from marktau.simulation import resolve_censoring

SEED = 20260822
_METRICS_GRID = mt.EvaluationGrid.explicit([0.2, 0.4, 0.6, 0.8], mt.MarkInterval(0.1, 0.9))


def metrics_cell(c3: float, n: int, reps: int, workers: int = 1) -> tuple[dict, list]:
    """The resolved config and the rows of a ``marktau simulate`` cell."""
    scenario = resolve_censoring(mt.Scenario(c1=3.0, c2=0.0, c3=c3, n=n, reps=reps, seed=SEED,
                                             grid=_METRICS_GRID))
    table = mt.run_replications(scenario, workers=workers)
    return _scenario_config(scenario, "simulate"), list(_simulate_rows(table, scenario))


def power_cell(c3_range: str, n: int, reps: int, resamples: int, workers: int = 1,
               ) -> tuple[dict, list]:
    """The config, with the means the sweep used, and the rows of both kinds of ``power``."""
    c3_values = _parse_c3_range(c3_range)
    base = mt.Scenario(c1=3.0, c2=0.0, c3=c3_values[0], n=n, reps=reps, seed=SEED)
    rows = []
    for kind in TEST_KINDS:
        table = mt.size_power_curve(base, c3_values, kind, resamples=resamples,
                                    workers=workers)
        rows += [(kind, *row) for row in _power_rows(table, base)]
    # no kind moves a censoring mean, so the last sweep's are every sweep's
    config = _scenario_config(replace(base, censor_mean0=table.censor_mean0), "power")
    return {**config, "kinds": list(TEST_KINDS), "c3": c3_values, "B": resamples,
            "censor_mean1": table.censor_mean1}, rows


# study -> (the function that runs a cell, the header after "cell", {cell: its arguments})
STUDIES = {
    "metrics": (metrics_cell, _SIMULATE_HEADER,
                {f"n{n}_c3{c3:+g}": (c3, n, 5000) for c3 in (-1.0, 0.0, 1.0)
                 for n in (1000, 1500)}),
    "size_power": (power_cell, ("kind", *_POWER_HEADER),
                   {"n1000": ("-2:2:0.25", 1000, 1000, 1000)}),
    "near_null": (power_cell, ("kind", *_POWER_HEADER),
                  {f"n{n}": ("-2:-1.25:0.25", n, 2000, 1000) for n in (1000, 4000)}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--threads", type=int,
                        help="worker processes (default: MARKTAU_THREADS or 1)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parents[1] / "docs" / "study",
                        help="directory of the CSVs (default: docs/study)")
    args = parser.parse_args(argv)
    workers = _resolve_workers(args.threads)
    args.out.mkdir(parents=True, exist_ok=True)
    for study, (run, header, cells) in STUDIES.items():
        configs, rows = {}, []
        for name, cell in cells.items():
            start = time.perf_counter()
            configs[name], cell_rows = run(*cell, workers=workers)
            rows += [(name, *row) for row in cell_rows]
            print(f"{study} {name}: {time.perf_counter() - start:.1f} s")
        _write_csv(args.out / f"{study}.csv", ("cell", *header), rows,
                   {"study": study, "cells": configs})
    return 0


if __name__ == "__main__":
    sys.exit(main())
