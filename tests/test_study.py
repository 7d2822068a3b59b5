"""The committed study tables are what ``scripts/study.py`` writes."""

import importlib.util
import json
from pathlib import Path

from marktau.cli import FORMAT_VERSION, _format_cell, _json_safe

ROOT = Path(__file__).resolve().parents[1]


def _load_study():
    spec = importlib.util.spec_from_file_location("study", ROOT / "scripts" / "study.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_tables_are_the_studies_of_the_script():
    script = _load_study()
    committed = sorted(path.name for path in (ROOT / "docs" / "study").iterdir())
    assert committed == sorted(f"{study}.csv" for study in script.STUDIES)
    for study, (_, header, cells) in script.STUDIES.items():
        lines = (ROOT / "docs" / "study" / f"{study}.csv").read_text(encoding="utf-8")
        first, columns, *rows = lines.splitlines()
        prefix = f"# marktau format={FORMAT_VERSION} config="
        assert first.startswith(prefix)
        config = json.loads(first[len(prefix):])
        assert config["study"] == study and sorted(config["cells"]) == sorted(cells)
        assert columns == ",".join(("cell", *header))
        assert sorted({row.split(",", 1)[0] for row in rows}) == sorted(cells)


def test_one_metrics_cell_reruns_to_its_committed_rows():
    run, _, cells = _load_study().STUDIES["metrics"]
    name = "n1000_c3-1"
    config, rows = run(*cells[name])
    lines = (ROOT / "docs" / "study" / "metrics.csv").read_text(encoding="utf-8").splitlines()
    committed = [line for line in lines[2:] if line.startswith(name + ",")]
    assert [",".join(_format_cell(cell) for cell in (name, *row)) for row in rows] == committed
    recorded = json.loads(lines[0].split(" config=", 1)[1])["cells"][name]
    assert recorded == json.loads(json.dumps(_json_safe(config)))
    assert recorded["censor_mean0"] is not None and recorded["censor_mean1"] is not None


def test_one_power_cell_reruns_to_its_committed_rows():
    # the n = 1000 point at c3 = -2 of the size and power sweep, both kinds
    _, rows = _load_study().power_cell("-2:-2:0.25", 1000, 1000, 1000)
    lines = (ROOT / "docs" / "study" / "size_power.csv").read_text(encoding="utf-8").splitlines()
    committed = [line for line in lines[2:]
                 if line.startswith("n1000,") and line.split(",")[2] == "-2.0"]
    assert [",".join(_format_cell(cell) for cell in ("n1000", *row)) for row in rows] == committed
    assert [line.split(",")[5] for line in committed] == ["53", "45"]
