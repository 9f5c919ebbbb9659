"""The README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs(capsys):
    text = README.read_text()
    section = text.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name}: library sketch", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("converged ")
