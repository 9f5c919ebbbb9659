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


def test_exports_are_used():
    # every name the package exports is reached as b.<name> or bnesolve.<name>
    # in the tests or the README
    import types

    import bnesolve

    tests = Path(__file__).resolve().parent
    text = README.read_text() + "".join(p.read_text() for p in tests.glob("*.py"))
    exported = [name for name, value in vars(bnesolve).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert exported
    unused = [name for name in exported
              if not re.search(rf"\b(?:b|bnesolve)\.{name}\b", text)]
    assert unused == []
