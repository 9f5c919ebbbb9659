"""Experiment orchestration: solves, batches of runs, persistence, and summaries.

``solve(problem, seed)`` is the one way to run a problem: it calls
``learners.run`` on the problem's gradient engine, which holds the game
(mechanism, discretized prior, action grids and groups), with the config's
learner settings.  ``run_batch`` solves a problem once per seed, scores each
run with ``score`` and writes the artifacts below.  ``replay`` is the one
reader of a run directory: it scores and certifies the stored run again and
compares the figures with its ``meta.json``.

Layout of a batch output directory (a sweep's holds ``sweep.csv`` and one
batch directory ``k<points>/`` per grid size; ``probe-vs`` writes
``probe.json``):

    out/
      config.cfg            resolved configuration (hash recorded inside); the
                            game of every run below
      summary.csv           one row per run plus mean/std aggregate rows
      run_000/
        meta.json           seed, config hash, version, timings, metrics, and the
                            prior's discretization record (kind, samples, empty cells);
                            max_loss is the run's certificate, and L, L2 and revenue
                            come from one ``score`` of eval_samples draws at
                            eval_seed (revenue in older run directories came from
                            draws of its own, so it differs by Monte-Carlo noise);
                            written last, so a run without it did not finish
        metrics.csv         per-certificate losses and the distance of the step before
        strategy_agent<i>.csv (+ .meta.json sidecar with the config hash), one per
                            group, for the group's first agent i
        plotdata.csv        sampled (observation, bid) pairs per agent
"""

from __future__ import annotations

import csv
import json
import re
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import Problem, RunConfig, build_problem, load_config
from .evaluate import EvalReport, emit_plot_data, evaluate, lookup_analytic
# perfbench/spans.py wraps runner.estimate_revenue: drop this when perfbench is next edited
from .evaluate import estimate_revenue  # noqa: F401
from .gradient import agent_groups
from .learners import RunResult, run
from .strategy import Strategy, load_strategy, save_strategy
from .verify import relative_utility_loss

_AGG_SKIP = ("run", "seed", "status", "termination")


@dataclass
class BatchSummary:
    out_dir: Path
    rows: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)

    def mean(self, key: str):
        return self.aggregates.get("mean", {}).get(key)

    def std(self, key: str):
        return self.aggregates.get("std", {}).get(key)


# what batches, sweeps and probes write into an output directory; --force
# removes these and leaves everything else there
_WRITTEN_FILES = ("config.cfg", "summary.csv", "sweep.csv", "probe.json")
_WRITTEN_DIRS = re.compile(r"run_\d{3,}|k\d+")


def prepare_out_dir(out, force: bool = False) -> Path:
    """Make ``out``, refusing a non-empty one unless ``force``; with ``force``,
    what an earlier batch, sweep or probe wrote there is removed first."""
    out = Path(out)
    if out.exists() and not out.is_dir():
        raise FileExistsError(f"output path {out} exists and is not a directory")
    if out.exists() and any(out.iterdir()):
        if not force:
            raise FileExistsError(f"output directory {out} is not empty (use --force)")
        for entry in out.iterdir():
            if entry.is_dir() and _WRITTEN_DIRS.fullmatch(entry.name):
                shutil.rmtree(entry)
            elif entry.is_file() and entry.name in _WRITTEN_FILES:
                entry.unlink()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_table(path: Path, fieldnames, rows, note: str = ""):
    """Write ``rows`` (dicts) as a CSV table with header ``fieldnames``, under
    the ``#`` line ``note`` when there is one; a field a row lacks is empty."""
    with path.open("w", newline="") as fh:
        fh.write(note)
        w = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        w.writeheader()
        w.writerows(rows)


def _write_metrics(path: Path, result: RunResult, note: str):
    dist_by_iter = dict(result.distance_history)
    owner = agent_groups(result.groups)
    names = [f"{kind}_agent{j}" for kind in ("l", "dist") for j in range(len(owner))]
    rows = []
    for t, losses in result.loss_history:
        dists = dist_by_iter.get(t, [0.0] * len(result.groups))
        values = [repr(losses[gi]) for gi in owner] + [repr(dists[gi]) for gi in owner]
        rows.append({"iteration": t, **dict(zip(names, values))})
    _write_table(path, ["iteration"] + names, rows, note)


def solve(problem: Problem, seed, *, progress=None) -> RunResult:
    """One learning run of ``problem`` under its config's learner settings.

    ``seed`` is anything ``np.random.SeedSequence`` accepts; ``run_batch``
    passes ``(config seed, run index)``.
    """
    cfg = problem.config
    return run(problem.engine(), rule=cfg.learner, eta0=cfg.eta0, step_beta=cfg.step_beta,
               iterations=cfg.iterations, tolerance=cfg.tolerance,
               check_interval=cfg.check_interval, init=cfg.init, seed=seed,
               progress=progress)


def score(problem: Problem, profile, seed: int, n_samples: int) -> tuple[dict, EvalReport]:
    """A run's Monte-Carlo scores of ``profile``, one strategy per agent: one
    ``evaluate`` of ``n_samples`` draws at ``seed``, against the game's shipped
    analytic baseline if it has one, for the first agent of each group.

    Returns the summary fields, ``revenue`` and, where the baseline gives
    them, ``L_agent<a>`` and ``L2_agent<a>_<d>``, together with the report.
    """
    reps = [g[0] for g in problem.groups]
    report = evaluate(profile, lookup_analytic(problem.mech, problem.prior_model),
                      problem.prior_model, problem.mech, n_samples=n_samples, seed=seed,
                      agents=reps)
    fields = {"revenue": report.revenue}
    for a in reps:
        if report.losses.get(a) is not None:
            fields[f"L_agent{a}"] = report.losses[a]
        for d, v in enumerate(report.l2.get(a) or ()):
            fields[f"L2_agent{a}_{d}"] = v
    return fields, report


def _load_profile(problem: Problem, run_dir: Path, cfg_source) -> list[Strategy]:
    """The stored run's profile, one strategy per agent, from the strategy file
    of each group's first agent.  Refuses a ``strategy_agent<i>.csv`` whose
    ``<i>`` is not an agent of the game, a missing one, strategies stored for
    another mechanism, prior or observation grid, and, unless ``cfg_source``
    is None, strategies stored under another config hash than the config
    read from ``cfg_source``."""
    cfg = problem.config
    n_agents = problem.mech.n_agents
    agent_of = {f"strategy_agent{i}.csv": i for i in range(n_agents)}
    stored = {}
    for path in sorted(run_dir.glob("strategy_agent*.csv")):
        agent = agent_of.get(path.name)
        if agent is None:
            raise ValueError(f"{path.name}: not a strategy file of this game, whose "
                             f"{n_agents} agents are strategy_agent0.csv to "
                             f"strategy_agent{n_agents - 1}.csv")
        strategy, meta = load_strategy(path)
        if meta.get("mechanism") != cfg.mechanism or meta.get("prior") != cfg.prior:
            raise ValueError(f"{path.name}: stored for mechanism/prior "
                             f"{meta.get('mechanism')}/{meta.get('prior')}, requested "
                             f"{cfg.mechanism}/{cfg.prior}")
        if cfg_source is not None and meta.get("config_hash") != cfg.hash():
            raise ValueError(f"{path.name}: stored under config hash "
                             f"{meta.get('config_hash')}, but {cfg_source} has hash "
                             f"{cfg.hash()}")
        if strategy.obs_grid != problem.obs_grids[agent]:
            raise ValueError(f"{path.name}: observation grid mismatch with the "
                             "requested configuration")
        stored[agent] = strategy
    for group in problem.groups:
        if group[0] not in stored:
            raise FileNotFoundError(f"{run_dir / f'strategy_agent{group[0]}.csv'} is missing: "
                                    f"it holds agent {group[0]}'s strategy")
    return [stored[problem.groups[gi][0]] for gi in agent_groups(problem.groups)]


_SCORE_FIELDS = ("revenue", "L_agent", "L2_agent")


def replay(run_dir, config=None, seed: int | None = None,
           n_samples: int | None = None) -> dict:
    """Score and certify a stored run again and compare with its ``meta.json``.

    The game is the batch's ``config.cfg``, in the run directory's parent,
    or the config file ``config``; without ``config``, every strategy's
    sidecar must hold that config's hash.  The run's strategies are scored
    by ``score`` at ``meta.json``'s ``eval_seed`` and ``eval_samples``, or at
    ``seed`` and ``n_samples``, and certified by ``relative_utility_loss`` on
    the config's action grids, tolerance and memory budget, one engine per
    agent and never the problem's, so the check holds one agent's caches at
    a time.  It certifies every agent where the run certified one per group;
    the two agree to the bit by the own-first rule of ``mechanisms``.

    Returns the stored and replayed ``max_loss``, ``revenue``, ``L_agent*``
    and ``L2_agent*``, the fields compared and those that differ.
    ``max_loss`` is compared unless ``config`` is given, and the scores only
    when none of ``config``, ``seed`` and ``n_samples`` is.  Equal means
    equal to the bit.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise FileNotFoundError(f"run directory {run_dir} does not exist or is not "
                                "a directory")
    meta_path = run_dir / "meta.json"
    if not meta_path.is_file():
        raise FileNotFoundError(f"{meta_path} is missing: a run writes it last, so "
                                f"{run_dir} holds no finished run")
    meta = json.loads(meta_path.read_text())
    cfg_path = run_dir.parent / "config.cfg" if config is None else config
    problem = build_problem(load_config(cfg_path))
    profile = _load_profile(problem, run_dir, cfg_path if config is None else None)
    as_run = config is None and seed is None and n_samples is None
    seed = meta["eval_seed"] if seed is None else seed
    n_samples = meta["eval_samples"] if n_samples is None else n_samples
    scores, report = score(problem, profile, seed, n_samples)
    cert = relative_utility_loss(profile, problem.discretize(), problem.mech,
                                 action_grids=problem.action_grids,
                                 tolerance=problem.config.tolerance,
                                 memory_budget=problem.memory_budget)
    stored = {k: v for k, v in meta.items()
              if k == "max_loss" or k.startswith(_SCORE_FIELDS)}
    replayed = {"max_loss": cert.max_loss, **scores}
    compared = [] if config is not None else ["max_loss"]
    if as_run:
        compared += sorted((stored.keys() | replayed.keys()) - {"max_loss"})
    return {"baseline": report.baseline_id, "seed": seed,
            "n_samples": n_samples, "certified": cert.converged, "stored": stored,
            "replayed": replayed, "compared": compared,
            "differ": [k for k in compared if stored.get(k) != replayed.get(k)]}


def _run_once(problem: Problem, run_dir: Path, run_seed, analytic, *,
              note: str, progress=None) -> dict:
    cfg = problem.config
    result = solve(problem, run_seed, progress=progress)
    run_dir.mkdir(parents=True, exist_ok=True)

    reps = [g[0] for g in problem.groups]
    eval_seed = int(np.random.SeedSequence([run_seed[0], run_seed[1], 7]).generate_state(1)[0])
    row: dict = {
        "run": run_dir.name,
        "seed": f"{run_seed[0]}/{run_seed[1]}",
        "status": "ok",
        "iterations": result.iterations,
        "termination": result.termination,
        "max_loss": result.certificate.max_loss,
        "wall_time": result.wall_time,
    }
    report = None
    if cfg.eval_samples > 0:
        scores, report = score(problem, result.strategies, eval_seed, cfg.eval_samples)
        row.update(scores)

    for a in reps:
        save_strategy(result.strategies[a], run_dir / f"strategy_agent{a}.csv", metadata={
            "mechanism": cfg.mechanism, "prior": cfg.prior, "agent": a,
            "config_hash": cfg.hash(), "seed": list(run_seed), "version": __version__,
            "iteration": result.iterations,
        })
    _write_metrics(run_dir / "metrics.csv", result, note)

    plot_rows = []
    fns = analytic.bid_fns if analytic is not None else {}
    for a in reps:
        plot_rows += emit_plot_data(result.strategies[a], problem.prior_model, a,
                                    count=cfg.plot_points, seed=eval_seed + 2,
                                    analytic_fn=fns.get(a))
    if plot_rows:
        _write_table(run_dir / "plotdata.csv", sorted({k for r in plot_rows for k in r}),
                     plot_rows, note)

    meta = dict(row)
    meta.update({
        "config_hash": cfg.hash(), "version": __version__,
        "losses": result.certificate.losses,
        "loss_history": result.loss_history[-10:],
        "gradient_path": result.gradient_path,
        "kernel_agents": result.kernel_agents,
        "engine_cache_bytes": result.engine_cache_bytes,
        "prior_bytes": problem.prior.nbytes,
        "prior": problem.prior.meta,
        "baseline": report.baseline_id if report else None,
        "eval_samples": cfg.eval_samples, "eval_seed": eval_seed,
        "notes": ({str(k): v for k, v in report.notes.items()}
                  if report and analytic is not None else {}),
    })
    (run_dir / "meta.json").write_text(json.dumps(meta, indent=1, default=float))
    return row


def _aggregate(rows: list[dict]) -> dict:
    ok = [r for r in rows if r.get("status") == "ok"]
    keys = sorted({k for r in ok for k in r if k not in _AGG_SKIP})
    agg = {"mean": {}, "std": {}}
    for k in keys:
        vals = np.array([float(r[k]) for r in ok if k in r and not isinstance(r[k], str)])
        if vals.size:
            agg["mean"][k] = float(vals.mean())
            agg["std"][k] = float(vals.std())
    return agg


def write_summary(path: Path, rows: list[dict], aggregates: dict, note: str):
    keys = ["run", "seed", "status", "iterations", "termination", "max_loss", "wall_time"]
    keys += sorted({k for r in rows for k in r} - set(keys))
    stats = [{"run": stat, **{k: repr(v) for k, v in aggregates[stat].items()}}
             for stat in ("mean", "std")]
    _write_table(path, keys, rows + stats, note)


def run_batch(problem: Problem, out, *, runs: int | None = None, force: bool = False,
              progress=None) -> BatchSummary:
    """Execute independent runs with distinct seeds and aggregate the metrics."""
    cfg = problem.config
    runs = cfg.runs if runs is None else runs
    out = prepare_out_dir(out, force)
    note = f"# config_hash={cfg.hash()} seed={cfg.seed} version={__version__}\n"
    (out / "config.cfg").write_text(f"# hash={cfg.hash()} version={__version__}\n"
                                    + cfg.to_text())
    analytic = lookup_analytic(problem.mech, problem.prior_model)
    rows = []
    failures = []
    for idx in range(runs):
        run_seed = (cfg.seed, idx)
        run_dir = out / f"run_{idx:03d}"
        started = time.perf_counter()
        try:
            row = _run_once(problem, run_dir, run_seed, analytic, note=note,
                            progress=progress)
        except Exception as exc:  # noqa: BLE001 - single-run failures are summarized
            row = {"run": run_dir.name, "seed": f"{cfg.seed}/{idx}", "status": "failed",
                   "termination": f"{type(exc).__name__}: {exc}",
                   "wall_time": time.perf_counter() - started}
            failures.append((idx, exc))
        rows.append(row)
        if progress is not None:
            progress({"run": row["run"], "status": row["status"],
                      "max_loss": row.get("max_loss")})
    if failures and len(failures) == runs:
        raise RuntimeError(f"all {runs} runs failed; first error: {failures[0][1]}")
    agg = _aggregate(rows)
    write_summary(out / "summary.csv", rows, agg, note)
    return BatchSummary(out, rows, agg)


def run_sweep(cfg: RunConfig, grid_values, out, *, runs: int | None = None,
              force: bool = False, progress=None) -> list[dict]:
    """Re-run one configuration across discretization levels.

    Observation and action axes (and the value axis, for interdependent
    priors) all use the same number of points per sweep entry.  Every entry's
    problem is built, and a repeated entry refused, before ``out`` is made;
    each batch then builds its problem again, so at most one entry's
    discretized problem is held at a time.
    """
    points_list = [int(points) for points in grid_values]
    if len(set(points_list)) != len(points_list):
        raise ValueError(f"grid sizes {points_list} repeat an entry: each is written "
                         "to its own k<points> directory")
    subs = [replace(cfg, obs_points=points, action_points=points, value_points=points)
            for points in points_list]
    for sub in subs:
        build_problem(sub)
    out = prepare_out_dir(out, force)
    results = []
    for points, sub in zip(points_list, subs):
        problem = build_problem(sub)
        summary = run_batch(problem, out / f"k{points}", runs=runs, force=force,
                            progress=progress)
        entry = {"points": points}
        for key, val in summary.aggregates["mean"].items():
            entry[f"mean_{key}"] = val
            entry[f"std_{key}"] = summary.aggregates["std"][key]
        results.append(entry)
    keys = sorted({k for r in results for k in r} - {"points"})
    _write_table(out / "sweep.csv", ["points"] + keys, results)
    return results
