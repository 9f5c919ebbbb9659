"""The README matches the code: its sketch runs, its key list and commands are current."""

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


def _section(heading: str) -> str:
    return README.read_text().split(heading, 1)[1].split("\n## ", 1)[0]


def test_readme_names_every_config_key():
    from dataclasses import fields

    from bnesolve.config import RunConfig

    text = _section("## Command line")
    paragraph = text[text.index("The config keys:"):].split("\n\n", 1)[0]
    missing = [f.name for f in fields(RunConfig) if f"`{f.name}`" not in paragraph]
    assert missing == []


def test_readme_commands_parse():
    import shlex

    from bnesolve.cli import build_parser

    block = re.search(r"```\n(.*?)```", _section("## Command line"), re.S).group(1)
    commands = [line for line in block.splitlines() if line.startswith("bnesolve ")]
    assert len(commands) >= 6
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.fn), line


def test_readme_grid_mass_table_has_one_row_per_construction():
    # one config per prior kind: a shipped preset for each kind a preset uses,
    # and a custom density on the baseline game
    from bnesolve.config import build_problem, config_from_mapping
    from bnesolve.presets import get_preset, preset_names

    by_kind = {get_preset(name)["prior"]: get_preset(name) for name in preset_names()}
    by_kind["custom_density"] = {**get_preset("fpsb_2_uniform"), "prior": "custom_density",
                                 "density": "2*o"}
    constructions = {}
    for kind, mapping in by_kind.items():
        small = {**mapping, "obs_points": 6, "value_points": 6, "prior_samples": 100_000}
        prior = build_problem(config_from_mapping(small)).discretize()
        constructions.setdefault(prior.meta["construction"], []).append(kind)
    assert set(by_kind) == {"uniform", "gaussian_trunc", "custom_density", "common_value",
                            "affiliated", "bernoulli_llg"}
    text = README.read_text().split("`prior.construction`:", 1)[1]
    table = [line for line in text.split("\n\n", 2)[1].splitlines() if line.startswith("|")]
    rows = [line.split("|")[2].strip() for line in table[2:]]
    assert sorted(rows) == sorted(f"`{c}`" for c in constructions)
    for row in table[2:]:
        construction = row.split("|")[2].strip().strip("`")
        assert all(f"`{kind}`" in row.split("|")[1] for kind in constructions[construction])
