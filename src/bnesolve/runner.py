"""Experiment orchestration: solves, batches of runs, persistence, and summaries.

``solve(problem, seed)`` is the one way to run a problem: it calls
``learners.run`` on the problem's gradient engine, which holds the game
(mechanism, discretized prior, action grids and groups), with the config's
learner settings.  ``run_batch`` solves a problem once per seed and writes
the artifacts below.

Layout of a batch output directory (a sweep's holds ``sweep.csv`` and one
batch directory ``k<points>/`` per grid size; ``probe-vs`` writes
``probe.json``):

    out/
      config.cfg            resolved configuration (hash recorded inside)
      summary.csv           one row per run plus mean/std aggregate rows
      run_000/
        meta.json           seed, config hash, version, timings, metrics, and the
                            prior's discretization record (kind, samples, empty cells);
                            L, L2 and revenue come from one set of eval_samples
                            draws at eval_seed (revenue in older run directories
                            came from draws of its own, so it differs by
                            Monte-Carlo noise)
        metrics.csv         per-certificate losses and the distance of the step before
        strategy_agent<i>.csv (+ .meta.json sidecar)
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
from .config import Problem, RunConfig, build_problem
from .evaluate import emit_plot_data, evaluate, lookup_analytic
# perfbench/spans.py wraps runner.estimate_revenue: drop this when perfbench is next edited
from .evaluate import estimate_revenue  # noqa: F401
from .gradient import agent_groups
from .learners import RunResult, run
from .strategy import save_strategy

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


def _write_metrics(path: Path, result: RunResult, header_note: str):
    dist_by_iter = dict(result.distance_history)
    owner = agent_groups(result.groups)
    n_agents = len(owner)
    with path.open("w", newline="") as fh:
        fh.write(header_note)
        w = csv.writer(fh)
        w.writerow(["iteration"] + [f"l_agent{j}" for j in range(n_agents)]
                   + [f"dist_agent{j}" for j in range(n_agents)])
        for t, losses in result.loss_history:
            dists = dist_by_iter.get(t, [0.0] * len(result.groups))
            w.writerow([t] + [repr(losses[gi]) for gi in owner]
                       + [repr(dists[gi]) for gi in owner])


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


def _run_once(problem: Problem, run_dir: Path, run_seed, analytic, *,
              note: str, progress=None) -> dict:
    cfg = problem.config
    result = solve(problem, run_seed, progress=progress)
    run_dir.mkdir(parents=True, exist_ok=True)

    reps = [g[0] for g in problem.groups]
    eval_seed = int(np.random.SeedSequence([run_seed[0], run_seed[1], 7]).generate_state(1)[0])
    report = None
    if cfg.eval_samples > 0:
        report = evaluate(result.strategies, analytic, problem.prior_model, problem.mech,
                          n_samples=cfg.eval_samples, seed=eval_seed, agents=reps)

    row: dict = {
        "run": run_dir.name,
        "seed": f"{run_seed[0]}/{run_seed[1]}",
        "status": "ok",
        "iterations": result.iterations,
        "termination": result.termination,
        "max_loss": result.certificate.max_loss,
        "wall_time": result.wall_time,
    }
    if report is not None:
        row["revenue"] = report.revenue
        for a in reps:
            if report.losses.get(a) is not None:
                row[f"L_agent{a}"] = report.losses[a]
            if report.l2.get(a) is not None:
                for d, v in enumerate(report.l2[a]):
                    row[f"L2_agent{a}_{d}"] = v

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
        keys = sorted({k for r in plot_rows for k in r})
        with (run_dir / "plotdata.csv").open("w", newline="") as fh:
            fh.write(note)
            w = csv.DictWriter(fh, fieldnames=keys)
            w.writeheader()
            w.writerows(plot_rows)

    meta = dict(row)
    meta.update({
        "config_hash": cfg.hash(), "version": __version__,
        "losses": result.certificate.losses,
        "loss_history": result.loss_history[-10:],
        "gradient_path": result.gradient_path,
        "engine_cache_bytes": result.engine_cache_bytes,
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
    with path.open("w", newline="") as fh:
        fh.write(note)
        w = csv.DictWriter(fh, fieldnames=keys, restval="")
        w.writeheader()
        for r in rows:
            w.writerow(r)
        for stat in ("mean", "std"):
            row = {"run": stat, "status": ""}
            row.update({k: repr(v) for k, v in aggregates[stat].items()})
            w.writerow(row)


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
    config is checked, and a repeated entry refused, before ``out`` is made.
    """
    points_list = [int(points) for points in grid_values]
    if len(set(points_list)) != len(points_list):
        raise ValueError(f"grid sizes {points_list} repeat an entry: each is written "
                         "to its own k<points> directory")
    subs = [replace(cfg, obs_points=points, action_points=points,
                    value_points=points).validate() for points in points_list]
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
    with (out / "sweep.csv").open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["points"] + keys, restval="")
        w.writeheader()
        w.writerows(results)
    return results
