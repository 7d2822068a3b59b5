import json
import math

import numpy as np
import pytest

import marktau as mt
from marktau.simulation import resolve_censoring
from oracles import draw_dataset, serialize_dataset


def hand_dataset(v: float = 0.5):
    """Two arms of four subjects; one failure each, censorings far out at t=10.

    The failure marks sit exactly at ``v``, so with h = 0.1 the treated
    contribution is 2 * 7.5 = 15 and the control one is (4/3) * 7.5 = 10.
    """
    y = [2.0, 10.0, 10.0, 10.0, 4.0 / 3.0, 10.0, 10.0, 10.0]
    delta = [1, 0, 0, 0, 1, 0, 0, 0]
    mark = [v, math.nan, math.nan, math.nan, v, math.nan, math.nan, math.nan]
    arm = [1, 1, 1, 1, 0, 0, 0, 0]
    return mt.Dataset.from_arrays(y, delta, mark, arm)


@pytest.fixture(scope="session")
def trial_files(tmp_path_factory):
    """Synthetic trial-shaped CSV with marks on a raw scale, plus its sidecar.

    Mimics the analysis workflow for externally supplied data: raw marks far
    outside [0, 1], min-max scaling requested through the metadata sidecar,
    and effects evaluated on a narrow mark interval.
    """
    scenario = resolve_censoring(
        mt.Scenario(c1=3.0, c2=0.0, c3=-1.0, n=600, reps=1, seed=914)
    )
    ds = draw_dataset(scenario, np.random.default_rng(914))
    raw_marks = np.where(ds.delta == 1, 0.074 + ds.mark * (77.56 - 0.074), np.nan)
    raw = mt.Dataset.from_arrays(ds.y, ds.delta, raw_marks, ds.arm)
    folder = tmp_path_factory.mktemp("trial")
    csv_path = folder / "trial.csv"
    csv_path.write_text(serialize_dataset(raw), encoding="utf-8")
    meta_path = folder / "trial.json"
    meta_path.write_text(json.dumps({"mark_scaling": "auto"}), encoding="utf-8")
    return csv_path, meta_path
