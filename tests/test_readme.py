"""The README names exactly the public API and the current artifact format."""

import re
from pathlib import Path

import marktau as mt
from marktau.cli import FORMAT_VERSION

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_export_list_is_all():
    listed = re.search(r"exports exactly these names:(.*?)\.\s", _library_section(), re.S)
    assert sorted(re.findall(r"`(\w+)`", listed.group(1))) == sorted(mt.__all__)


def test_readme_library_block_uses_exported_names():
    block = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    used = set(re.findall(r"\bmt\.(\w+)", block))
    assert used and used <= set(mt.__all__)


def test_readme_format_example_is_current():
    text = README.read_text(encoding="utf-8")
    shown = re.findall(r"^# marktau format=(\d+) ", text, re.M)
    assert shown == [str(FORMAT_VERSION)]
