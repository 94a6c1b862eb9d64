"""The Library snippet of README.md runs against the package as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs():
    (snippet,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    names = {}
    exec(snippet, names)
    assert round(names["rep"].defect, 3) == 0.826
    assert len(names["checks"]) == 368
    assert names["z"].norm == abs(2 + 1j)
    assert 0.0 <= names["t"] <= names["rep"].defect
