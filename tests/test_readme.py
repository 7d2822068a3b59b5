"""The README's Library section names exactly the public API."""

import re
from pathlib import Path

import marktau as mt

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
