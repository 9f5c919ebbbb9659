import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bnesolve.runner as runner
from bnesolve import __version__
import bnesolve.verify as verify
from bnesolve.cli import main
from bnesolve.config import (RunConfig, _compile_density, build_problem,
                             config_from_mapping, load_config, parse_config_text)
from bnesolve.evaluate import DEFAULT_EVAL_SAMPLES, evaluate, lookup_analytic
from bnesolve.gradient import DEFAULT_MEMORY_BUDGET, GradientEngine, agent_groups
from bnesolve.presets import get_preset, preset_names
from bnesolve.runner import run_batch, run_sweep, solve
from bnesolve.strategy import load_strategy
from oracles import held_array_bytes

SRC = Path(__file__).resolve().parents[1] / "src"

FAST = {
    "obs_points": 12, "action_points": 12, "iterations": 300, "runs": 2,
    "eval_samples": 1 << 12, "plot_points": 20, "check_interval": 10,
    "eta0": 50.0, "step_beta": 0.05, "seed": 9,
}


def fast_cfg(**overrides):
    return config_from_mapping({**get_preset("fpsb_2_uniform"), **FAST, **overrides})


def read_summary(path):
    with path.open() as fh:
        rows = [r for r in csv.DictReader(line for line in fh if not line.startswith("#"))]
    return rows


def write_fast_cfg(path, include="fpsb_2_uniform", **overrides):
    """A config file: ``include`` with the FAST settings and ``overrides``."""
    lines = [f"include = {include}"] + [f"{k} = {json.dumps(v)}"
                                        for k, v in {**FAST, **overrides}.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


# -- config parsing -----------------------------------------------------------

def test_parse_config_text_basics():
    text = """
    # a comment
    mechanism = fpsb
    agents = 2
    eta0 = 12.5            # trailing comment
    symmetric = true
    obs_lower = [0.0, 1.0]
    name = "a#b"  # a "quoted" comment
    """
    m = parse_config_text(text)
    assert m["mechanism"] == "fpsb" and m["agents"] == 2
    assert m["eta0"] == 12.5 and m["symmetric"] is True
    assert m["obs_lower"] == [0.0, 1.0]
    assert m["name"] == "a#b"


def test_parse_config_include_preset_and_override(tmp_path):
    p = tmp_path / "my.cfg"
    p.write_text("include = fpsb_2_uniform\niterations = 77\n")
    cfg = load_config(p)
    assert cfg.mechanism == "fpsb" and cfg.iterations == 77
    assert cfg.obs_points == 64


def test_parse_config_include_file(tmp_path):
    base = tmp_path / "base.cfg"
    base.write_text("mechanism = tullock\ntullock_r = 1.5\n")
    child = tmp_path / "child.cfg"
    child.write_text(f"include = {base.name}\nagents = 2\n")
    m = parse_config_text(child.read_text(), base_dir=tmp_path)
    assert m["mechanism"] == "tullock" and m["tullock_r"] == 1.5


def test_unknown_config_key_rejected():
    # the shared value's range is the prior model's own (``value_bounds``), not a key
    for key in ["mechanismo"] + [f"value_{end}" for end in ("lower", "upper")]:
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_mapping({key: 0.0})


def test_config_include_cycles_refused(tmp_path, capsys):
    a, b, itself = tmp_path / "a.cfg", tmp_path / "b.cfg", tmp_path / "itself.cfg"
    a.write_text("include = b.cfg\nruns = 1\n")
    b.write_text("include = a.cfg\n")
    itself.write_text("include = fpsb_2_uniform\ninclude = itself.cfg\n")
    with pytest.raises(ValueError) as exc:
        load_config(a)
    assert str(exc.value) == f"config include cycle: {a} -> {b} -> {a}"
    with pytest.raises(ValueError) as exc:
        load_config(itself)
    assert str(exc.value) == f"config include cycle: {itself} -> {itself}"
    rc = main(["solve", "--config", str(b), "--quiet", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"error: config include cycle: {b} -> {a} -> {b}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # one file included twice, side by side, is no cycle
    twice = tmp_path / "twice.cfg"
    (tmp_path / "base.cfg").write_text("include = fpsb_2_uniform\n")
    twice.write_text("include = base.cfg\ninclude = base.cfg\nruns = 3\n")
    assert load_config(twice).runs == 3


BAD_RUN_SETTINGS = [
    ({"iterations": -1}, "iterations"),
    ({"check_interval": 0}, "check_interval"),
    ({"plot_points": 0}, "plot_points"),
    ({"learner": "sgd"}, "unknown update rule"),
    ({"eta0": 0.0}, "eta0"),
    ({"step_beta": 1.5}, "beta"),
    ({"init": "zeros"}, "unknown init mode"),
    ({"eval_samples": -5}, "eval_samples"),
    ({"obs_points": 64.9}, "obs_points"),
    ({"runs": 2.5}, "runs"),
    ({"risk_rho": [0.5]}, "risk_rho"),
    ({"symmetric": "ture"}, "symmetric"),
    ({"runs": "ten"}, "runs"),
    ({"eta0": "fast"}, "eta0"),
    ({"eta0": float("nan")}, "eta0"),
    ({"eta0": float("inf")}, "eta0"),
    ({"tolerance": float("nan")}, "tolerance"),
    ({"tullock_r": float("inf")}, "tullock_r"),
    ({"memory_budget_gib": -1}, "memory_budget_gib"),
    ({"tolerance": 0}, "tolerance"),
    ({"tolerance": -1}, "tolerance"),
    ({"prior": "gaussian_trunc", "sigma": -0.1}, "sigma"),
    ({"prior": "gaussian_trunc", "sigma": 0}, "sigma"),
    ({"prior": "affiliated", "prior_samples": 1000}, "prior_samples"),
    ({"prior": "affiliated", "prior_samples": 99_999}, "prior_samples"),
    ({"seed": -1}, "seed must be"),
    ({"prior_seed": -1}, "prior_seed must be"),
    ({"symmetric": 2}, "symmetric"),
    ({"symmetric": 0.5}, "symmetric"),
    ({"symmetric": None}, "symmetric"),
    ({"obs_lower": [0.0, 0.0, 0.0]}, "config key 'obs_lower' takes 2 per-agent entries"),
    ({"action_lower": [0.0, 0.0, 0.0]}, "config key 'action_lower' takes 2 per-agent entries"),
    ({"mechanism": "split_award", "action_lower": [1.0, 0.3, 0.0]},
     "config key 'action_lower' takes 2 per-axis entries"),
    # a bound is a number or a list of numbers, and no key reads a boolean as one
    ({"action_upper": None}, "config key 'action_upper' takes a number"),
    ({"action_upper": {"a": 1.0}}, "config key 'action_upper' takes a number"),
    ({"action_upper": [[1.0], 1.0]}, "config key 'action_upper' takes a number"),
    ({"obs_lower": "abc"}, "config key 'obs_lower' takes a number"),
    ({"obs_upper": True}, "config key 'obs_upper' takes a number"),
    ({"runs": True}, "config key 'runs' takes an integer"),
    ({"iterations": False}, "config key 'iterations' takes an integer"),
    ({"eta0": True}, "config key 'eta0' takes a number"),
]


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(agents=1).validate()
    with pytest.raises(ValueError):
        RunConfig(runs=0).validate()
    # a bound set in Python, not loaded, is refused by name too
    with pytest.raises(ValueError, match="config key 'action_upper' takes a number"):
        RunConfig(action_upper=None).validate()
    # a baseline is always looked up: there is no key to switch it off
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_mapping({"analytic": "none"})
    # each of these used to be accepted and then fail, or skip evaluation, in every run
    for bad, message in BAD_RUN_SETTINGS:
        with pytest.raises(ValueError, match=message):
            config_from_mapping(bad)
    # the edges that work stay accepted: no steps, no evaluation, a rule
    # without step parameters, an integral float for an integer key, and a
    # sigma or sample count that the prior does not read
    RunConfig(iterations=0, eval_samples=0, learner="sofw",
              init="truthful").validate()
    RunConfig(sigma=0.0, prior_samples=1000).validate()
    RunConfig(prior="common_value", prior_samples=1000).validate()
    RunConfig(prior="affiliated", prior_samples=100_000).validate()
    assert config_from_mapping({"eval_samples": 1e3}).eval_samples == 1000


def test_config_reads_boolean_words():
    # any case of 1/0, true/false and yes/no; JSON booleans and numbers as
    # before (BAD_RUN_SETTINGS holds a word outside these)
    for word, expected in [("1", True), ("TRUE", True), ("Yes", True), ("0", False),
                           ("false", False), ("NO", False), (True, True), (0, False)]:
        assert config_from_mapping({"symmetric": word}).symmetric is expected, word


def test_config_roundtrip_and_hash():
    # a '#' inside a JSON string is text, not a comment
    for cfg in (fast_cfg(), RunConfig(notes='run #2, "#3" next', name="a#b",
                                      density="2 * o  # linear")):
        again = config_from_mapping(parse_config_text(cfg.to_text()))
        assert again == cfg
        assert again.hash() == cfg.hash()
    cfg = fast_cfg()
    assert config_from_mapping({**cfg.__dict__, "seed": 10}).hash() != cfg.hash()


def test_config_defaults_are_the_library_defaults():
    # stated once, in evaluate and gradient; a default config keeps its hash
    cfg = RunConfig()
    assert cfg.hash() == "c85780539d48bd74"
    assert cfg.eval_samples == DEFAULT_EVAL_SAMPLES
    assert build_problem(cfg).memory_budget == DEFAULT_MEMORY_BUDGET


def test_all_presets_build():
    for name in preset_names():
        problem = build_problem(config_from_mapping(get_preset(name)))
        assert problem.mech.n_agents == problem.config.agents


def test_agents_with_different_action_bounds_learn_apart(tmp_path, capsys):
    problem = build_problem(fast_cfg(action_upper=[1.0, 0.8]))
    assert problem.groups == [[0], [1]]
    result = solve(problem, (0, 0))
    assert [s.action_grids[0].upper for s in result.strategies] == [1.0, 0.8]
    three = build_problem(fast_cfg(agents=3, action_upper=[1.0, 1.0, 0.8]))
    assert three.groups == [[0, 1], [2]]
    assert build_problem(fast_cfg(agents=3, action_upper=[1.0, 1.0, 0.8],
                                  symmetric=False)).groups == [[0], [1], [2]]
    cfg_path = tmp_path / "bounds.cfg"
    cfg_path.write_text("include = fpsb_2_uniform\n"
                        + "".join(f"{k} = {json.dumps(v)}\n" for k, v in FAST.items())
                        + "action_upper = [1.0, 0.8]\nruns = 1\n")
    rc = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 0, capsys.readouterr().err
    assert (tmp_path / "out" / "run_000" / "strategy_agent1.csv").exists()


@pytest.mark.parametrize("expr, expected", [
    ("np.exp(-o)", lambda o: np.exp(-o)),
    ("2 * o ** 2 - o / 3 + 1", lambda o: 2 * o ** 2 - o / 3 + 1),
    ("-o + +1.5", lambda o: -o + 1.5),
    ("np.where(o < 0.5, np.sqrt(o + 1), np.log(o + 2))",
     lambda o: np.where(o < 0.5, np.sqrt(o + 1), np.log(o + 2))),
    ("np.maximum(np.abs(o - 0.5), np.minimum(o, 0.1))",
     lambda o: np.maximum(np.abs(o - 0.5), np.minimum(o, 0.1))),
    ("1.0 * (o >= 0.25) + 2 * (o != 0.5) + (o == 1) * 3 - (o <= 0.1) * 1 + (o > 0.9) * 4",
     lambda o: (1.0 * (o >= 0.25) + 2 * (o != 0.5) + (o == 1) * 3 - (o <= 0.1) * 1
                + (o > 0.9) * 4)),
    ("3", lambda o: np.full_like(o, 3.0)),
])
def test_density_expression_matches_numpy(expr, expected):
    o = np.linspace(0.0, 1.0, 33)
    assert np.array_equal(_compile_density(expr)(o), expected(o))


def test_density_constants_are_floats():
    # integer constants would let 9 ** 9 ** 9 build a 370-million-digit integer
    with pytest.raises(OverflowError):
        _compile_density("o * 0 + 9 ** 9 ** 9")(np.linspace(0.0, 1.0, 5))


ESCAPE = "o*0 + ().__class__.__base__.__subclasses__().__len__()"


@pytest.mark.parametrize("expr", [
    ESCAPE, "o.__class__", "__import__('os').getcwd()", "np.load('x.npy')", "open('x')",
    "o[0]", "(lambda x: x)(o)", "'abc'", "np.exp(o, o)", "np.exp(x=o)", "np", "x + 1",
    "0 < o < 1", "True", "o if o else 1", "[o]", "o // 2", "np.exp",
])
def test_density_expression_outside_whitelist_rejected(expr):
    with pytest.raises(ValueError, match="not allowed"):
        build_problem(fast_cfg(prior="custom_density", density=expr))


def test_custom_density_discretizes_like_the_function():
    # each point gets its cell's probability under the density, here
    # exp(-o) on [0, 1], whose cdf is (1 - exp(-o)) / (1 - exp(-1)), up to
    # the trapezoid rule's error
    problem = build_problem(fast_cfg(prior="custom_density", density="np.exp(-o)"))
    prior = problem.discretize()
    assert prior.meta == {"kind": "independent", "construction": "exact"}
    for grid, marginal in zip(prior.obs_grids, prior.marginals):
        mid = (grid.points[1:] + grid.points[:-1]) / 2
        cdf = -np.expm1(-np.concatenate(([0.0], mid, [1.0]))) / -np.expm1(-1.0)
        assert np.max(np.abs(marginal - np.diff(cdf))) < 1e-8


def test_density_vanishing_at_an_end_point_evaluates(tmp_path):
    # 2*o vanishes at 0, but draws in the half cell of the point at 0 still
    # reach it; that point's mass is its cell's probability, so no draw maps
    # to a point of zero mass
    problem = build_problem(RunConfig(prior="custom_density", density="2*o", obs_points=16,
                                      action_points=16, eval_samples=1 << 14))
    summary = run_batch(problem, tmp_path / "out")
    assert [row["status"] for row in summary.rows] == ["ok"] * problem.config.runs


def test_custom_density_agents_share_one_strategy():
    # one compiled density per config, so the agents' marginals compare equal
    assert build_problem(RunConfig(prior="custom_density", density="2*o")).groups == [[0, 1]]


def test_cli_solve_rejects_density_escape(tmp_path, capsys):
    cfg_path = tmp_path / "escape.cfg"
    cfg_path.write_text(f"include = fpsb_2_uniform\nprior = custom_density\n"
                        f"density = {ESCAPE}\n")
    rc = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
               "--quiet"])
    assert rc == 2
    assert "not allowed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- batch runner -------------------------------------------------------------

def test_run_batch_artifacts(tmp_path):
    problem = build_problem(fast_cfg())
    out = tmp_path / "batch"
    summary = run_batch(problem, out)
    assert (out / "config.cfg").exists()
    rows = read_summary(out / "summary.csv")
    assert [r["run"] for r in rows] == ["run_000", "run_001", "mean", "std"]
    assert all(r["status"] == "ok" for r in rows[:2])
    for d in ("run_000", "run_001"):
        rd = out / d
        assert (rd / "strategy_agent0.csv").exists()
        assert (rd / "strategy_agent0.csv.meta.json").exists()
        assert (rd / "metrics.csv").exists()
        assert (rd / "plotdata.csv").exists()
        meta = json.loads((rd / "meta.json").read_text())
        assert meta["config_hash"] == problem.config.hash()
        assert meta["version"]
    assert summary.mean("max_loss") is not None
    assert summary.mean("L_agent0") is not None


def test_meta_records_gradient_path_and_cache_bytes(tmp_path):
    run_batch(build_problem(fast_cfg(runs=1, iterations=20)), tmp_path / "sym")
    meta = json.loads((tmp_path / "sym" / "run_000" / "meta.json").read_text())
    assert meta["gradient_path"] == "affine"
    # A and B on the 12 x 12 (own bid x highest opponent bid) grid, of the one
    # agent whose gradient a run of one group takes
    assert meta["engine_cache_bytes"] == 2 * 12 * 12 * 8
    assert meta["kernel_agents"] == []
    cfg = fast_cfg(runs=1, iterations=20, risk_rho=0.5, symmetric=False)
    run_batch(build_problem(cfg), tmp_path / "ra")
    meta = json.loads((tmp_path / "ra" / "run_000" / "meta.json").read_text())
    assert meta["gradient_path"] == "tensor"
    # at least one utility chunk of 12 values x 12 x 12 actions per agent
    assert meta["engine_cache_bytes"] >= 2 * 12 ** 3 * 8
    assert meta["kernel_agents"] == []
    # a kernel computes both split-award suppliers' gradients and the first-price
    # LLG locals', none under a core rule; the first-price global merges columns
    for game, agents in (("llg_first_price", [0, 1]), ("split_award", [0, 1]),
                         ("llg_core_rule", [])):
        problem = build_problem(replay_cfg(game))
        run_batch(problem, tmp_path / game)
        meta = json.loads((tmp_path / game / "run_000" / "meta.json").read_text())
        assert meta["kernel_agents"] == problem.engine().kernel_agents == agents, game


def test_meta_records_prior_discretization(tmp_path):
    cfg = config_from_mapping({**get_preset("affiliated_fpsb"), **FAST, "obs_points": 6,
                               "action_points": 6, "value_points": 5, "runs": 1,
                               "iterations": 10, "prior_samples": 1 << 17})
    problem = build_problem(cfg)
    run_batch(problem, tmp_path / "af")
    meta = json.loads((tmp_path / "af" / "run_000" / "meta.json").read_text())
    prior = problem.prior
    assert meta["prior"] == prior.meta
    assert meta["prior"]["kind"] == "affiliated"
    assert meta["prior"]["sample_count"] == 1 << 17
    assert meta["prior"]["seed"] == cfg.prior_seed
    assert meta["prior"]["empty_cells"] == int(np.count_nonzero(prior.obs_joint == 0))



# a game with a full baseline, one whose baseline covers the global bidder
# alone, and one without a baseline
ONE_PASS_GAMES = {
    "fpsb": {},
    "llg": {**get_preset("llg_nz_g05"), "obs_points": 6, "action_points": 6},
    "spsb": {"mechanism": "spsb"},
}


def one_pass_cfg(game, **overrides):
    return config_from_mapping({**get_preset("fpsb_2_uniform"), **FAST, "runs": 1,
                                "iterations": 20, **ONE_PASS_GAMES[game], **overrides})


class CountingStrategy:
    """A learned strategy that records each ``sample_bids`` call as (agent, size)."""

    def __init__(self, strategy, agent, calls):
        self.strategy, self.agent, self.calls = strategy, agent, calls

    def sample_bids(self, observations, rng):
        self.calls.append((self.agent, np.size(observations)))
        return self.strategy.sample_bids(observations, rng)

    def __getattr__(self, name):
        return getattr(self.strategy, name)


@pytest.mark.parametrize("game", sorted(ONE_PASS_GAMES))
def test_run_evaluates_in_one_pass(tmp_path, monkeypatch, game):
    # 2500 draws in chunks of 1000: three chunks, then one plot draw of 7 per
    # stored agent
    monkeypatch.setattr(sys.modules[evaluate.__module__], "_CHUNK", 1000)
    problem = build_problem(one_pass_cfg(game, eval_samples=2500, plot_points=7))
    problem.engine()  # discretize before the prior model's draws are counted
    draws, calls = [], []
    model_sample = type(problem.prior_model).sample

    def counting_sample(model, rng, size):
        draws.append(size)
        return model_sample(model, rng, size)

    monkeypatch.setattr(type(problem.prior_model), "sample", counting_sample)
    real_solve = runner.solve

    def counting_solve(*args, **kwargs):
        result = real_solve(*args, **kwargs)
        result.strategies = [CountingStrategy(s, j, calls)
                             for j, s in enumerate(result.strategies)]
        return result

    monkeypatch.setattr(runner, "solve", counting_solve)
    run_batch(problem, tmp_path / "out")
    reps = [g[0] for g in problem.groups]
    assert draws == [1000, 1000, 500] + [7] * len(reps)
    for agent in range(problem.mech.n_agents):
        sizes = [size for j, size in calls if j == agent]
        assert sizes == [1000, 1000, 500] + ([7] if agent in reps else [])


@pytest.mark.parametrize("game", sorted(ONE_PASS_GAMES))
def test_meta_metrics_are_one_evaluate_at_the_eval_seed(tmp_path, game):
    problem = build_problem(one_pass_cfg(game))
    run_batch(problem, tmp_path / "out")
    run_dir = tmp_path / "out" / "run_000"
    meta = json.loads((run_dir / "meta.json").read_text())
    stored = {g[0]: load_strategy(run_dir / f"strategy_agent{g[0]}.csv")[0]
              for g in problem.groups}
    strategies = [stored[problem.groups[gi][0]] for gi in agent_groups(problem.groups)]
    reps = sorted(stored)
    analytic = lookup_analytic(problem.mech, problem.prior_model)
    report = evaluate(strategies, analytic, problem.prior_model, problem.mech,
                      n_samples=meta["eval_samples"], seed=meta["eval_seed"], agents=reps)
    expected = {"revenue": report.revenue}
    for a in reps:
        if report.losses.get(a) is not None:
            expected[f"L_agent{a}"] = report.losses[a]
        for d, v in enumerate(report.l2.get(a) or ()):
            expected[f"L2_agent{a}_{d}"] = v
    assert {k: v for k, v in meta.items() if k.startswith(("L_", "L2_", "revenue"))} \
        == expected
    assert any(k.startswith("L2_") for k in expected) == (analytic is not None)
    assert meta["baseline"] == (analytic.id if analytic else None)
    if analytic is None:
        assert meta["notes"] == {}

@pytest.mark.parametrize("rho", [1.0, 0.5])
def test_meta_records_exact_llg_prior_and_cache_bytes(tmp_path, rho):
    cfg = config_from_mapping({**get_preset("llg_nb_g05"), **FAST, "obs_points": 6,
                               "action_points": 5, "runs": 1, "iterations": 10,
                               "risk_rho": rho})
    problem = build_problem(cfg)
    run_batch(problem, tmp_path / "llg")
    meta = json.loads((tmp_path / "llg" / "run_000" / "meta.json").read_text())
    assert meta["prior"] == {"kind": "bernoulli_llg", "gamma": 0.5, "construction": "exact",
                             "empty_cells": 0}
    engine = problem.engine()
    assert engine.prior.components is not None
    assert meta["gradient_path"] == ("affine" if rho == 1.0 else "tensor")
    # every cached array is counted: the dense A and B or the utilities, and
    # the block masses scaled for the locals, whose block-mate is the other local
    assert meta["engine_cache_bytes"] == engine.cache_bytes() == held_array_bytes(engine)
    scaled = [own for _, own, _, _ in engine._views[0][1] if own is not None]
    assert len(scaled) == 1 and scaled[0].shape == (6, 6)


def test_run_batch_builds_one_engine(tmp_path, monkeypatch):
    import bnesolve.config as config_mod
    built = []

    class CountingEngine(config_mod.GradientEngine):
        def __init__(self, *a, **kw):
            built.append(1)
            super().__init__(*a, **kw)

    monkeypatch.setattr(config_mod, "GradientEngine", CountingEngine)
    cfg = fast_cfg(runs=3, iterations=20, risk_rho=0.5, symmetric=False)
    problem = build_problem(cfg)
    summary = run_batch(problem, tmp_path / "batch")
    assert [r["status"] for r in summary.rows] == ["ok"] * 3
    assert len(built) == 1
    cache = [json.loads((tmp_path / "batch" / f"run_{i:03d}" / "meta.json").read_text())
             ["engine_cache_bytes"] for i in range(3)]
    assert cache[0] == cache[1] == cache[2] >= 2 * 12 ** 3 * 8
    # the engine lives with its problem: a second batch reuses it
    run_batch(problem, tmp_path / "again", runs=1)
    assert len(built) == 1


def test_run_batch_refuses_overwrite(tmp_path):
    problem = build_problem(fast_cfg(runs=1))
    out = tmp_path / "batch"
    run_batch(problem, out)
    with pytest.raises(FileExistsError):
        run_batch(problem, out)
    run_batch(problem, out, force=True)


def test_run_batch_deterministic(tmp_path):
    cols = None
    values = []
    for attempt in ("a", "b"):
        problem = build_problem(fast_cfg())
        summary = run_batch(problem, tmp_path / attempt)
        rows = read_summary(tmp_path / attempt / "summary.csv")
        keep = [{k: v for k, v in r.items() if k not in ("wall_time",)} for r in rows]
        values.append(keep)
    assert values[0] == values[1]


def test_metrics_csv_contents(tmp_path):
    problem = build_problem(fast_cfg(runs=1))
    run_batch(problem, tmp_path / "m")
    with (tmp_path / "m" / "run_000" / "metrics.csv").open() as fh:
        lines = [l for l in fh if not l.startswith("#")]
    header = lines[0].strip().split(",")
    assert header == ["iteration", "l_agent0", "l_agent1", "dist_agent0", "dist_agent1"]
    assert len(lines) > 2


def test_run_sweep(tmp_path):
    cfg = fast_cfg(runs=1)
    results = run_sweep(cfg, [8, 12], tmp_path / "sw")
    assert [r["points"] for r in results] == [8, 12]
    assert (tmp_path / "sw" / "sweep.csv").exists()
    assert (tmp_path / "sw" / "k8" / "summary.csv").exists()
    assert results[0]["mean_L_agent0"] > results[1]["mean_L_agent0"] - 0.05


def test_run_tables_keep_their_layout(tmp_path):
    # llg_nz_g05: the global bidder, agent 2, has the llg_global_truthful
    # baseline, and the locals' first agent, agent 0, has none
    cfg = config_from_mapping({**get_preset("llg_nz_g05"), **FAST})
    problem = build_problem(cfg)
    assert problem.groups == [[0, 1], [2]]
    out = tmp_path / "batch"
    summary = run_batch(problem, out)
    note = f"# config_hash={cfg.hash()} seed={cfg.seed} version={__version__}"

    def table(path):
        with path.open(newline="") as fh:
            return list(csv.reader(fh))

    for name in ("run_000/metrics.csv", "run_001/plotdata.csv", "summary.csv"):
        assert table(out / name)[0] == [note], name

    rows = table(out / "summary.csv")[1:]
    first = ["run", "seed", "status", "iterations", "termination", "max_loss", "wall_time"]
    header = rows[0]
    assert header[:7] == first and header[7:] == sorted(header[7:])
    assert {"L2_agent2_0", "revenue"} <= set(header[7:])
    assert [r[0] for r in rows[1:]] == ["run_000", "run_001", "mean", "std"]
    for stat in rows[-2:]:
        stat = dict(zip(header, stat))
        assert stat["seed"] == stat["status"] == stat["termination"] == ""
        assert stat["max_loss"] != "" and stat["L2_agent2_0"] != ""

    plot = table(out / "run_000" / "plotdata.csv")
    plot = [dict(zip(plot[1], r)) for r in plot[2:]]
    assert {r["agent"] for r in plot} == {"0", "2"}
    assert all((r["analytic_bid"] == "") == (r["agent"] == "0") for r in plot)

    # the same game on other grids: the batch's aggregates, as mean_ and std_ columns
    run_sweep(cfg, [6, 8], tmp_path / "sweep")
    rows = table(tmp_path / "sweep" / "sweep.csv")
    assert rows[0] == ["points"] + sorted(f"{stat}_{k}" for stat in ("mean", "std")
                                          for k in summary.aggregates["mean"])
    assert [r[0] for r in rows[1:]] == ["6", "8"]


# -- CLI ----------------------------------------------------------------------

def test_cli_solve_and_evaluate(tmp_path, capsys):
    cfg_path = tmp_path / "fast.cfg"
    lines = ["include = fpsb_2_uniform"] + [f"{k} = {json.dumps(v)}"
                                            for k, v in FAST.items()]
    cfg_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out),
                 "--runs", "1", "--quiet"]) == 0
    assert "runs ok" in capsys.readouterr().out
    assert main(["evaluate", "--run-dir", str(out / "run_000")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["baseline"] == "fpsb_uniform_symmetric"
    assert "L_agent0" in report["replayed"] and report["differ"] == []


def test_cli_evaluate_refuses_grid_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "fast.cfg"
    lines = ["include = fpsb_2_uniform"] + [f"{k} = {json.dumps(v)}"
                                            for k, v in FAST.items()]
    cfg_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    main(["solve", "--config", str(cfg_path), "--out", str(out), "--runs", "1", "--quiet"])
    other = tmp_path / "other.cfg"
    other.write_text(cfg_path.read_text() + "obs_points = 24\n")
    rc = main(["evaluate", "--run-dir", str(out / "run_000"), "--config", str(other)])
    assert rc == 2
    assert "mismatch" in capsys.readouterr().err


def test_cli_evaluate_names_a_missing_strategy_file(tmp_path, capsys):
    # llg_nz_g05 stores agents 0 (both locals) and 2 (the global bidder)
    cfg = config_from_mapping({**get_preset("llg_nz_g05"), "obs_points": 6,
                               "action_points": 6, "iterations": 10, "runs": 1,
                               "eval_samples": 1 << 10, "plot_points": 5})
    run_batch(build_problem(cfg), tmp_path / "out")
    run_dir = tmp_path / "out" / "run_000"
    (run_dir / "strategy_agent0.csv").unlink()
    rc = main(["evaluate", "--run-dir", str(run_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(run_dir / "strategy_agent0.csv") in err and "agent 0" in err


@pytest.mark.parametrize("stray", ["strategy_agent7.csv", "strategy_agent_x.csv",
                                   "strategy_agent01.csv"])
def test_cli_evaluate_refuses_a_stray_strategy_file(tmp_path, capsys, stray):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(write_fast_cfg(tmp_path / "fast.cfg")),
                 "--out", str(out), "--runs", "1", "--quiet"]) == 0
    run_dir = out / "run_000"
    for suffix in ("", ".meta.json"):
        shutil.copy(run_dir / f"strategy_agent0.csv{suffix}", run_dir / f"{stray}{suffix}")
    capsys.readouterr()
    assert main(["evaluate", "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert stray in err and "2 agents" in err and "Traceback" not in err


def test_cli_evaluate_refuses_strategies_of_another_game(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(write_fast_cfg(tmp_path / "fast.cfg")),
                 "--out", str(out), "--runs", "1", "--quiet"]) == 0
    capsys.readouterr()
    # the same grids and a baseline, under another prior
    other = write_fast_cfg(tmp_path / "affiliated.cfg", include="affiliated_fpsb",
                           obs_points=12, prior_samples=100_000)
    rc = main(["evaluate", "--run-dir", str(out / "run_000"), "--config", str(other)])
    assert rc == 2
    assert ("strategy_agent0.csv: stored for mechanism/prior fpsb/uniform, requested "
            "fpsb/affiliated") in capsys.readouterr().err


def test_cli_evaluate_without_an_analytic_baseline(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = write_fast_cfg(tmp_path / "spsb.cfg", mechanism="spsb")
    assert main(["solve", "--config", str(cfg_path), "--out", str(out), "--runs", "1",
                 "--quiet"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--run-dir", str(out / "run_000")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["baseline"] is None
    # the revenue and the certificate, and no L or L2
    assert sorted(report["replayed"]) == ["max_loss", "revenue"]
    assert report["compared"] == ["max_loss", "revenue"] and report["differ"] == []


@pytest.mark.parametrize("game", ["fpsb_2_uniform", "spsb"])
def test_cli_evaluate_refuses_a_missing_run_directory(tmp_path, capsys, game):
    # a run directory holds no config.cfg of its own, so a mistyped one must
    # not be read as a run of the batch whose config.cfg sits beside it
    out = tmp_path / "out"
    overrides = {"mechanism": "spsb"} if game == "spsb" else {}
    assert main(["solve", "--config", str(write_fast_cfg(tmp_path / "g.cfg", **overrides)),
                 "--out", str(out), "--runs", "1", "--quiet"]) == 0
    capsys.readouterr()
    for missing in (out / "run_999", out / "summary.csv"):
        assert main(["evaluate", "--run-dir", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: run directory {missing} does not exist" in captured.err


# one small stored run per kind of game; every one certifies its own way
REPLAY_GAMES = {
    "ipv_first_price": ("fpsb_2_uniform", {}),
    "common_value": ("common_value_spsb", {"value_points": 5}),
    "llg_core_rule": ("llg_nz_g05", {}),
    "llg_first_price": ("llg_first_price_g05", {}),
    "split_award": ("split_award_uniform", {}),
    "tullock_asymmetric": ("tullock_r10_asym", {}),
    "risk_averse_all_pay": ("risk_allpay_r05", {}),
}


def replay_cfg(game, **overrides):
    preset, settings = REPLAY_GAMES[game]
    return config_from_mapping({**get_preset(preset), "obs_points": 6, "action_points": 6,
                                "iterations": 20, "runs": 1, "eval_samples": 1 << 12,
                                "plot_points": 5, **settings, **overrides})


@pytest.mark.parametrize("game", sorted(REPLAY_GAMES))
def test_cli_evaluate_replays_a_stored_run_to_the_bit(tmp_path, capsys, game):
    run_batch(build_problem(replay_cfg(game)), tmp_path / "out")
    run_dir = tmp_path / "out" / "run_000"
    meta = json.loads((run_dir / "meta.json").read_text())
    if game == "risk_averse_all_pay":
        assert meta["gradient_path"] == "tensor"
    assert main(["evaluate", "--run-dir", str(run_dir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["seed"], report["n_samples"]) == (meta["eval_seed"], meta["eval_samples"])
    assert report["replayed"] == report["stored"]
    assert report["compared"] == ["max_loss"] + sorted(set(report["stored"]) - {"max_loss"})
    assert "revenue" in report["compared"] and report["differ"] == []
    assert report["certified"] == (meta["termination"] == "converged")


def test_cli_evaluate_replays_a_sweep_run(tmp_path, capsys):
    run_sweep(replay_cfg("ipv_first_price"), [6, 8], tmp_path / "sweep", runs=1)
    run_dir = tmp_path / "sweep" / "k8" / "run_000"
    assert main(["evaluate", "--run-dir", str(run_dir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["replayed"] == report["stored"] and len(report["compared"]) == 4


def test_replay_certifies_within_the_runs_memory_budget(tmp_path, monkeypatch):
    # one shared value per chunk of the common-value tensor path
    problem = build_problem(replay_cfg("common_value", risk_rho=0.5, memory_budget_gib=1e-6))
    run_batch(problem, tmp_path / "out")
    budgets = []
    monkeypatch.setattr(verify, "GradientEngine", lambda *a: budgets.append(a[3]) or
                        GradientEngine(*a))
    report = runner.replay(tmp_path / "out" / "run_000")
    assert budgets == [problem.memory_budget] * 3 and problem.memory_budget < 8 * 6 ** 3
    assert report["differ"] == []


# A run certifies one agent per group and the replay every agent, so the two
# agree only where each member's gradient is its representative's to the bit
# (the own-first rule of ``mechanisms``).  Before that rule these replays
# differed in the last bits of max_loss: the nearest-zero LLG locals at
# risk_rho = 0.5 (local 1 was priced at the global bid less local 0's price),
# and runs 0 and 2 of the common-value batch (agent 1's prior mass was
# contracted in another order than agent 0's).
GROUPED_REPLAYS = {
    "llg_nz_risk_averse": ("llg_nz_g05", {"obs_points": 24, "action_points": 24,
                                          "risk_rho": 0.5, "iterations": 30, "runs": 1,
                                          "memory_budget_gib": 1e-4}),
    "common_value": ("common_value_spsb", {"obs_points": 16, "action_points": 16,
                                           "value_points": 16, "runs": 3}),
}


@pytest.mark.parametrize("game", sorted(GROUPED_REPLAYS))
def test_replay_of_grouped_agents_matches_the_run_to_the_bit(tmp_path, game):
    preset, settings = GROUPED_REPLAYS[game]
    cfg = config_from_mapping({**get_preset(preset), "eval_samples": 1024, **settings})
    run_batch(build_problem(cfg), tmp_path / "out")
    for run in range(cfg.runs):
        report = runner.replay(tmp_path / "out" / f"run_{run:03d}")
        assert "max_loss" in report["compared"] and report["differ"] == [], run


def test_cli_evaluate_sees_mass_moved_within_a_row(tmp_path, capsys):
    run_batch(build_problem(replay_cfg("ipv_first_price")), tmp_path / "out")
    path = tmp_path / "out" / "run_000" / "strategy_agent0.csv"
    strategy, sidecar = load_strategy(path)
    matrix = strategy.matrix.copy()
    k = int(np.argmax(strategy.marginal))
    top = int(np.argmax(matrix[k]))
    moved = matrix[k, top] / 2
    matrix[k, top] -= moved
    matrix[k, (top + 1) % matrix.shape[1]] += moved
    assert abs(matrix[k].sum() - strategy.marginal[k]) < 1e-15
    runner.save_strategy(strategy.with_matrix(matrix), path, metadata=sidecar)
    assert main(["evaluate", "--run-dir", str(path.parent)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert "max_loss" in report["differ"]
    assert report["replayed"]["max_loss"] != report["stored"]["max_loss"]


def test_cli_evaluate_refuses_a_run_without_meta_json(tmp_path, capsys):
    run_batch(build_problem(replay_cfg("ipv_first_price")), tmp_path / "out")
    meta = tmp_path / "out" / "run_000" / "meta.json"
    meta.unlink()
    assert main(["evaluate", "--run-dir", str(meta.parent)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {meta} is missing" in captured.err


def test_cli_evaluate_refuses_strategies_of_an_edited_config(tmp_path, capsys):
    run_batch(build_problem(replay_cfg("ipv_first_price")), tmp_path / "out")
    cfg_path = tmp_path / "out" / "config.cfg"
    text = cfg_path.read_text()
    assert "eta0 = 100.0\n" in text
    cfg_path.write_text(text.replace("eta0 = 100.0\n", "eta0 = 90.0\n"))
    run_dir = tmp_path / "out" / "run_000"
    assert main(["evaluate", "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert "strategy_agent0.csv: stored under config hash" in err and str(cfg_path) in err
    # named explicitly, the edited config is replayed without the hash check
    assert main(["evaluate", "--run-dir", str(run_dir), "--config", str(cfg_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["compared"] == [] and report["differ"] == []


def test_cli_solve_n_samples_sets_eval_samples(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(write_fast_cfg(tmp_path / "fast.cfg")),
                 "--out", str(out), "--runs", "1", "--n-samples", "1000", "--quiet"]) == 0
    assert json.loads((out / "run_000" / "meta.json").read_text())["eval_samples"] == 1000
    assert load_config(out / "config.cfg").eval_samples == 1000


def test_cli_solve_prints_progress_unless_quiet(tmp_path, capsys):
    cfg_path = write_fast_cfg(tmp_path / "fast.cfg")
    for quiet, out in (([], tmp_path / "loud"), (["--quiet"], tmp_path / "quiet")):
        assert main(["solve", "--config", str(cfg_path), "--out", str(out),
                     "--runs", "1"] + quiet) == 0
        lines = capsys.readouterr().err.splitlines()
        if quiet:
            assert lines == []
            continue
        # one record per certificate, then one for the run
        assert lines[0].startswith("iteration=9 losses=[") and "max_loss=" in lines[0]
        assert all(line.startswith("iteration=") for line in lines[:-1])
        assert lines[-1].startswith("run=run_000 status=ok max_loss=")


@pytest.mark.parametrize("bad, message", BAD_RUN_SETTINGS)
def test_cli_refuses_bad_run_settings_at_load(tmp_path, capsys, bad, message):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("include = fpsb_2_uniform\n"
                        + "".join(f"{k} = {json.dumps(v)}\n" for k, v in bad.items()))
    rc = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
               "--quiet"])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_refuses_a_negative_seed_before_making_out(tmp_path, capsys):
    rc = main(["solve", "--preset", "fpsb_2_uniform", "--seed", "-1", "--quiet",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_evaluate_refuses_zero_samples(tmp_path, capsys):
    cfg_path = tmp_path / "fast.cfg"
    lines = ["include = fpsb_2_uniform"] + [f"{k} = {json.dumps(v)}"
                                            for k, v in {**FAST, "eval_samples": 0}.items()]
    cfg_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out),
                 "--runs", "1", "--quiet"]) == 0
    capsys.readouterr()
    run_dir = str(out / "run_000")
    # the run's own eval_samples = 0, then an explicit --n-samples 0
    assert main(["evaluate", "--run-dir", run_dir]) == 2
    assert "error: n_samples must be >= 1, got 0" in capsys.readouterr().err
    assert main(["evaluate", "--run-dir", run_dir, "--n-samples", "0"]) == 2
    assert "error: --n-samples must be >= 1, got 0" in capsys.readouterr().err
    assert main(["evaluate", "--run-dir", run_dir, "--n-samples", "1000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_samples"] == 1000 and report["compared"] == ["max_loss"]


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--grid", "8"], ["probe-vs"]])
def test_cli_refuses_out_naming_a_file(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("a file")
    rc = main(command + ["--preset", "fpsb_2_uniform", "--quiet", "--out", str(out)])
    assert rc == 2
    assert f"error: output path {out} exists and is not a directory" in capsys.readouterr().err
    # a directory to be made under the file
    rc = main(command + ["--preset", "fpsb_2_uniform", "--quiet", "--out", str(out / "sub")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err
    assert out.read_text() == "a file"


def test_cli_missing_config(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "config not found" in capsys.readouterr().err


def test_cli_refuses_a_config_path_naming_a_directory(tmp_path, capsys):
    # as --config, and as an include line of a config file
    with pytest.raises(FileNotFoundError, match="is not a file"):
        load_config(tmp_path)
    rc = main(["solve", "--config", str(tmp_path), "--quiet", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"error: config not found: {tmp_path} is not a file" in capsys.readouterr().err
    cfg_path = tmp_path / "dir.cfg"
    cfg_path.write_text("include = .\n")
    with pytest.raises(FileNotFoundError, match="neither a preset nor a file"):
        load_config(cfg_path)
    rc = main(["solve", "--config", str(cfg_path), "--quiet", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"error: include '.' is neither a preset nor a file: {tmp_path}" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--grid", "4"], ["probe-vs"]],
                         ids=["solve", "sweep", "probe-vs"])
def test_cli_takes_exactly_one_of_config_and_preset(tmp_path, capsys, command):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text("include = fpsb_2_uniform\nobs_points = 8\n")
    with pytest.raises(SystemExit) as exc:
        main(command + ["--config", str(cfg_path), "--preset", "tullock_r10", "--quiet",
                        "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --preset: not allowed with argument --config" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(command + ["--quiet", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "one of the arguments --config --preset is required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_refuses_dirty_out_dir(tmp_path, capsys):
    out = tmp_path / "busy"
    out.mkdir()
    (out / "something.txt").write_text("here first")
    rc = main(["solve", "--preset", "fpsb_2_uniform", "--out", str(out)])
    assert rc == 2
    assert "--force" in capsys.readouterr().err


def test_cli_force_replaces_only_what_bnesolve_wrote(tmp_path, capsys):
    out = tmp_path / "d"
    first = write_fast_cfg(tmp_path / "first.cfg")
    second = write_fast_cfg(tmp_path / "second.cfg", obs_points=10)
    assert main(["solve", "--config", str(first), "--runs", "3", "--out", str(out),
                 "--quiet"]) == 0
    # what a sweep and a probe write, and what the user put there
    (out / "k8").mkdir()
    (out / "sweep.csv").write_text("points\n")
    (out / "probe.json").write_text("{}")
    (out / "notes.txt").write_text("mine")
    (out / "run_1").mkdir()
    assert main(["solve", "--config", str(second), "--runs", "1", "--out", str(out),
                 "--force", "--quiet"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["config.cfg", "notes.txt", "run_000",
                                                     "run_1", "summary.csv"]
    assert (out / "notes.txt").read_text() == "mine"
    assert load_config(out / "config.cfg").obs_points == 10
    capsys.readouterr()
    # the first game's run_002 is gone, so it cannot be scored under the second config
    assert main(["evaluate", "--run-dir", str(out / "run_002")]) == 2
    assert f"run directory {out / 'run_002'} does not exist" in capsys.readouterr().err


def test_cli_preset_list(capsys):
    assert main(["preset", "list"]) == 0
    out = capsys.readouterr().out
    assert "fpsb_2_uniform" in out and "llg_nb_g05" in out and "split_award_uniform" in out
    with pytest.raises(SystemExit) as exc:  # a preset runs as solve --preset
        main(["preset", "run", "fpsb_2_uniform"])
    assert exc.value.code == 2


def test_cli_preset_list_into_closed_pipe():
    # the reader closes the pipe before the listing is written, as ``| head``
    # does once it has its lines: the command stops without a traceback
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.Popen([sys.executable, "-m", "bnesolve.cli", "preset", "list"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_cli_unknown_preset(capsys):
    assert main(["solve", "--preset", "fpsb_9_bidders"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_cli_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "fast.cfg"
    lines = ["include = fpsb_2_uniform"] + [f"{k} = {json.dumps(v)}"
                                            for k, v in {**FAST, "runs": 1}.items()]
    cfg_path.write_text("\n".join(lines) + "\n")
    rc = main(["sweep", "--config", str(cfg_path), "--grid", "8,12",
               "--out", str(tmp_path / "sw"), "--quiet"])
    assert rc == 0
    assert "points=8" in capsys.readouterr().out


@pytest.mark.parametrize("lines, grid, message", [
    ([], "1", "grids need at least 2 points"),
    ([], "4,4", "repeat an entry"),
    # three entries for two agents
    (["obs_lower = [0.0, 0.0, 0.0]"], "4,8",
     "config key 'obs_lower' takes 2 per-agent entries or one number, got 3")],
    ids=["1-grids need at least 2 points", "4,4-repeat an entry", "config-obs_lower"])
def test_cli_sweep_checks_every_entry_before_making_out(tmp_path, capsys, monkeypatch,
                                                         lines, grid, message):
    import bnesolve.runner as runner_mod

    def never(*a, **kw):
        raise AssertionError("a run started before every sweep entry was checked")

    monkeypatch.setattr(runner_mod, "run_batch", never)
    source = ["--preset", "fpsb_sweep"]
    if lines:
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text("\n".join(["include = fpsb_sweep"] + lines) + "\n")
        source = ["--config", str(cfg_path)]
    out = tmp_path / "sw"
    rc = main(["sweep", *source, "--grid", grid, "--quiet", "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["8,x", "8,", "8.5"])
def test_cli_sweep_refuses_a_grid_entry_that_is_not_an_integer(tmp_path, capsys, grid):
    out = tmp_path / "sw"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "fpsb_sweep", "--grid", grid, "--quiet", "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument --grid: must be comma-separated integers, got {grid}" \
        in capsys.readouterr().err
    assert not out.exists()


def test_cli_probe_vs(tmp_path, capsys):
    rc = main(["probe-vs", "--preset", "fpsb_2_uniform", "--seed", "3", "--quiet",
               "--out", str(tmp_path / "probe")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "probe value" in out
    data = json.loads((tmp_path / "probe" / "probe.json").read_text())
    assert data["probe_value"] > 0


@pytest.mark.parametrize("flag", [["--runs", "7"], ["--runs", "0"], ["--n-samples", "5"]])
def test_cli_probe_vs_refuses_flags_it_does_not_read(capsys, flag):
    # probe-vs solves one run and evaluates nothing
    with pytest.raises(SystemExit) as exc:
        main(["probe-vs", "--preset", "fpsb_2_uniform", "--quiet"] + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["nan", "inf", "-3", "-0.5"])
def test_cli_probe_vs_refuses_a_bad_scale_before_solving(capsys, monkeypatch, scale):
    import bnesolve.cli as cli_mod

    def never(*a, **kw):
        raise AssertionError("solve ran before --scale was checked")

    monkeypatch.setattr(cli_mod, "solve", never)
    with pytest.raises(SystemExit) as exc:
        main(["probe-vs", "--preset", "fpsb_2_uniform", "--quiet", "--scale", scale])
    assert exc.value.code == 2
    assert f"argument --scale: must be a finite number >= 0, got {scale}" \
        in capsys.readouterr().err


def test_cli_probe_vs_refuses_a_non_empty_out_before_solving(tmp_path, capsys, monkeypatch):
    import bnesolve.cli as cli_mod

    def never(*a, **kw):
        raise AssertionError("solve ran before --out was checked")

    monkeypatch.setattr(cli_mod, "solve", never)
    out = tmp_path / "probe"
    out.mkdir()
    (out / "kept.txt").write_text("x")
    rc = main(["probe-vs", "--preset", "fpsb_2_uniform", "--quiet", "--out", str(out)])
    assert rc == 2
    assert "not empty" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["kept.txt"]


def test_cli_solve_counts_certified_runs(tmp_path, capsys):
    # a run that stops at its cap is "ok" in summary.csv, but not certified
    for iterations, certified in ((3, 0), (300, 1)):
        cfg_path = tmp_path / f"it{iterations}.cfg"
        lines = ["include = fpsb_2_uniform"] + [
            f"{k} = {json.dumps(v)}" for k, v in {**FAST, "iterations": iterations}.items()]
        cfg_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / f"out{iterations}"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out),
                     "--runs", "1", "--quiet"]) == 0
        assert f"1/1 runs ok, {certified} certified;" in capsys.readouterr().out
        termination = read_summary(out / "summary.csv")[0]["termination"]
        assert termination == ("converged" if certified else "max_iterations")


def test_cli_probe_vs_builds_one_engine(tmp_path, capsys, monkeypatch):
    # the probe's gradients come from the engine the solve ran on
    import bnesolve.config as config_mod
    import bnesolve.verify as verify_mod
    built = []

    class CountingEngine(config_mod.GradientEngine):
        def __init__(self, *a, **kw):
            built.append(1)
            super().__init__(*a, **kw)

    monkeypatch.setattr(config_mod, "GradientEngine", CountingEngine)
    monkeypatch.setattr(verify_mod, "GradientEngine", CountingEngine)
    rc = main(["probe-vs", "--preset", "fpsb_2_uniform", "--seed", "3", "--quiet",
               "--out", str(tmp_path / "probe")])
    assert rc == 0
    assert len(built) == 1


def test_run_batch_tolerates_single_failure(tmp_path, monkeypatch):
    import bnesolve.runner as runner_mod
    problem = build_problem(fast_cfg(runs=3))
    real = runner_mod._run_once
    calls = {"n": 0}

    def flaky(problem, run_dir, run_seed, analytic, **kw):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ArithmeticError("synthetic failure")
        return real(problem, run_dir, run_seed, analytic, **kw)

    monkeypatch.setattr(runner_mod, "_run_once", flaky)
    summary = run_batch(problem, tmp_path / "flaky")
    statuses = [r["status"] for r in summary.rows]
    assert statuses == ["ok", "failed", "ok"]
    rows = read_summary(tmp_path / "flaky" / "summary.csv")
    assert rows[1]["status"] == "failed" and "synthetic failure" in rows[1]["termination"]
    # aggregates come from the successful runs only
    ok_losses = [float(r["max_loss"]) for r in rows[:3] if r["status"] == "ok"]
    mean_row = next(r for r in rows if r["run"] == "mean")
    assert float(mean_row["max_loss"]) == pytest.approx(np.mean(ok_losses))


def test_run_batch_raises_when_all_fail(tmp_path, monkeypatch):
    import bnesolve.runner as runner_mod

    def broken(*a, **kw):
        raise ArithmeticError("boom")

    monkeypatch.setattr(runner_mod, "_run_once", broken)
    problem = build_problem(fast_cfg(runs=2))
    with pytest.raises(RuntimeError, match="all 2 runs failed"):
        run_batch(problem, tmp_path / "allfail")
