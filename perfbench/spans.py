"""In-memory spans around bnesolve's public calls, and their arithmetic.

A span records a name, start and end (``time.perf_counter`` seconds), the
index of the span that was open when it began (its parent) and a run id.
Spans are kept in a list and written out when the benchmark ends.  A
layer's self time is its span's duration minus the part of that interval
its child spans cover.

Wrappers are installed where the caller looks a name up, for example
``bnesolve.runner.run`` (the learner entry point as the runner sees it) or
``bnesolve.learners.utility_loss``; methods are wrapped on their class.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

# Strategy.sample_bids gathers its per-row CDF table in chunks of this many
# observations; table_mb below is computed from it.
SAMPLE_BIDS_CHUNK = 1 << 18


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    run: str = ""
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Span recorder; spans of one run share the id of the run's root span."""

    def __init__(self, context: str = "setup"):
        self.spans: list[Span] = []
        self.context = context
        self._stack: list[int] = []
        self._runs = 0

    def begin(self, name: str, run_root: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        if run_root:
            self._runs += 1
            run = f"run-{self._runs}"
        else:
            run = self.spans[parent].run if parent >= 0 else self.context
        self.spans.append(Span(name, perf_counter(), parent=parent, run=run))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, **attrs):
        span = self.spans[index]
        span.end = perf_counter()
        span.attrs.update(attrs)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span '{span.name}' closed out of order")

    def ancestors(self):
        """Names of the open spans, innermost first."""
        return [self.spans[i].name for i in reversed(self._stack)]


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def tail_percentile(samples):
    """(p, value): the highest whole percentile with at least ten samples beyond it.

    Nearest-rank definition.  With fewer than forty samples there is no such
    tail above the 75th percentile and the result is None.
    """
    n = len(samples)
    if n < 40:
        return None
    p = (100 * (n - 10)) // n
    rank = math.ceil(p * n / 100)
    return p, sorted(samples)[rank - 1]


def run_residuals(spans, selfs) -> dict:
    """Per run: the run root's duration minus the sum of its spans' self times."""
    roots = {}
    for s in spans:
        if s.run.startswith("run-"):
            roots.setdefault(s.run, s)
    sums = defaultdict(float)
    for s, t in zip(spans, selfs):
        sums[s.run] += t
    return {run: root.end - root.start - sums[run] for run, root in roots.items()}


# -- wrappers ------------------------------------------------------------------

def _wrap(tracer, owner, attr, name, *, run_root=False, before=None, after=None):
    """Replace ``owner.attr`` by a spanned call.

    ``name`` may be a callable of the call's arguments.  ``before`` and
    ``after`` return span attributes from the arguments and from the result;
    ``before`` is the one to use where the call may raise.
    """
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name(*args) if callable(name) else name, run_root)
        if before is not None:
            tracer.spans[index].attrs.update(before(*args, **kwargs))
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.end(index, failed=True)
            raise
        tracer.end(index)
        if after is not None:
            tracer.spans[index].attrs.update(after(out, *args, **kwargs))
        return out

    setattr(owner, attr, wrapper)


def _nbytes(arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def install(tracer: Tracer, bn) -> None:
    """Wrap the public calls of every pipeline layer; ``bn`` is the bnesolve package."""
    import numpy as np

    config, priors, grids, mechanisms = bn.config, bn.priors, bn.grids, bn.mechanisms
    gradient, learners, verify, strategy = bn.gradient, bn.learners, bn.verify, bn.strategy
    runner = bn.runner

    _wrap(tracer, config, "build_problem", "config.build_problem")

    def prior_facts(prior, *args, **kwargs):
        joints = [prior.obs_joint] + list(prior.value_joints or ())
        empty = int(np.count_nonzero(prior.obs_joint == 0)) if prior.obs_joint is not None else 0
        return {"joint_bytes": _nbytes(j for j in joints if j is not None),
                "empty_cells": empty}

    for cls in vars(priors).values():
        if isinstance(cls, type) and "discretize" in cls.__dict__:
            _wrap(tracer, cls, "discretize", "priors.discretize", after=prior_facts)

    def draws(prior, sampler, val_grids, obs_grids, sample_count=priors.DEFAULT_SAMPLE_COUNT,
              *args, **kwargs):
        return {"draws": int(sample_count)}

    _wrap(tracer, priors, "joint_from_latent", "priors.joint_from_latent", after=draws)

    def nearest_name(*args):
        for name in tracer.ancestors():
            if name.startswith("priors."):
                return "grids.nearest_index.discretize"
            if name == "strategy.sample_bids":
                return "grids.nearest_index.sampling"
        return "grids.nearest_index.other"

    _wrap(tracer, grids.Grid, "nearest_index", nearest_name)

    for cls in vars(mechanisms).values():
        if isinstance(cls, type) and "affine_parts" in cls.__dict__ \
                and issubclass(cls, mechanisms.Mechanism) and cls is not mechanisms.Mechanism:
            _wrap(tracer, cls, "affine_parts", "mechanisms.affine_parts")

    def engine_facts(c, engine, strategies, agent):
        caches = [v for pair in getattr(engine, "_affine_cache", {}).values() for v in pair]
        caches += [t.values for t in getattr(engine, "_tensor_cache", {}).values()]
        caches += list(getattr(engine, "_vweighted_cache", {}).values())
        cells = math.prod(t.shape[0] for t in engine.flat_actions)
        return {"cache_bytes": _nbytes(caches), "ab_bytes": 2 * 8 * cells}

    _wrap(tracer, gradient.GradientEngine, "gradient",
          lambda engine, *a: f"gradient.{engine.path}", after=engine_facts)

    for cls in vars(learners).values():
        if isinstance(cls, type) and "step" in cls.__dict__ and hasattr(cls, "rule"):
            _wrap(tracer, cls, "step", f"learners.{cls.rule}.step")

    def run_facts(result, *args, **kwargs):
        reps = [result.strategies[g[0]].matrix for g in result.groups]
        entries = sum(m.size for m in reps)
        tiny = sum(int(np.count_nonzero((m != 0) & (np.abs(m) < np.finfo(m.dtype).tiny)))
                   for m in reps)
        return {"iterations": result.iterations, "subnormal": tiny, "entries": entries}

    _wrap(tracer, runner, "run", "learners.run", after=run_facts)
    _wrap(tracer, learners, "utility_loss", "verify.utility_loss")
    _wrap(tracer, verify, "utility_loss", "verify.utility_loss")

    def sample_facts(self, observations, rng):
        n = int(np.size(observations))
        return {"samples": n, "table_bytes": min(n, SAMPLE_BIDS_CHUNK) * self.action_count * 8}

    _wrap(tracer, strategy.Strategy, "sample_bids", "strategy.sample_bids",
          before=sample_facts)

    def saved(out, s, path, metadata=None):
        return {"rows": int(s.matrix.size),
                "bytes": os.path.getsize(path) + os.path.getsize(strategy.sidecar_path(path))}

    _wrap(tracer, runner, "save_strategy", "strategy.save", after=saved)
    _wrap(tracer, strategy, "load_strategy", "strategy.load")
    for name in ("evaluate", "estimate_revenue", "emit_plot_data"):
        _wrap(tracer, runner, name, f"evaluate.{name}")
    _wrap(tracer, runner, "_run_once", "runner.run_once", run_root=True)
    _wrap(tracer, runner, "run_batch", "runner.run_batch")


# -- per-layer metrics -----------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans, overhead_s: float):
    """Per-layer metrics from recorded spans: name -> (value, unit).

    Layers a workload does not reach read 0.  Of the spans recorded while
    the benchmark checks a run's artifacts (run id ``check``) only strategy
    loading counts.  Also returns, for every call family, the sample count
    and tail percentile, for the printed report.
    """
    selfs = self_times(spans)
    by = defaultdict(list)
    for s, t in zip(spans, selfs):
        if s.run != "check" or s.name == "strategy.load":
            by[s.name].append((s, s.end - s.start, t))

    def total(name):
        return sum(d for _, d, _ in by[name])

    def durations(name):
        return [d for _, d, _ in by[name]]

    def attr_sum(name, key, only_ok=False):
        return sum(s.attrs.get(key, 0) for s, _, _ in by[name]
                   if not (only_ok and s.attrs.get("failed")))

    m = {"config.build_problem_ms": (1e3 * _median(durations("config.build_problem")), "ms")}
    disc = [s for s, _, _ in by["priors.discretize"]]
    latent = total("priors.joint_from_latent")
    m["priors.discretize_s"] = (total("priors.discretize"), "s")
    m["priors.joint_from_latent_s"] = (latent, "s")
    m["priors.draws_per_s"] = (attr_sum("priors.joint_from_latent", "draws") / latent
                               if latent else 0.0, "1/s")
    m["priors.joint_mb"] = (sum(s.attrs.get("joint_bytes", 0) for s in disc) / 2**20, "MiB")
    m["priors.empty_cells"] = (sum(s.attrs.get("empty_cells", 0) for s in disc), "count")
    m["grids.nearest_index.discretize_s"] = (total("grids.nearest_index.discretize"), "s")
    m["grids.nearest_index.sampling_s"] = (total("grids.nearest_index.sampling"), "s")
    m["mechanisms.affine_parts_s"] = (total("mechanisms.affine_parts"), "s")
    m["mechanisms.affine_parts.calls"] = (len(by["mechanisms.affine_parts"]), "count")
    for path in ("symmetric", "affine", "tensor", "streaming"):
        name = f"gradient.{path}"
        m[f"{name}.ms_per_call"] = (1e3 * _median(durations(name)), "ms")
        m[f"{name}.calls"] = (len(by[name]), "count")
    affine_self = sum(t for _, _, t in by["gradient.affine"])
    m["gradient.affine.gb_per_s"] = (attr_sum("gradient.affine", "ab_bytes") / affine_self / 1e9
                                     if affine_self else 0.0, "GB/s")
    m["gradient.cache_mb"] = (max((s.attrs.get("cache_bytes", 0) for name, rows in by.items()
                                   if name.startswith("gradient.") for s, _, _ in rows),
                                  default=0) / 2**20, "MiB")
    for rule in ("soda1", "soma2", "sofw"):
        m[f"learners.{rule}.ms_per_step"] = (1e3 * _median(durations(f"learners.{rule}.step")),
                                             "ms")
    iters = attr_sum("learners.run", "iterations")
    run_self = sum(t for _, _, t in by["learners.run"])
    m["learners.run_self_ms_per_iter"] = (1e3 * run_self / iters if iters else 0.0, "ms")
    entries = attr_sum("learners.run", "entries")
    m["learners.subnormal_share"] = (attr_sum("learners.run", "subnormal") / entries
                                     if entries else 0.0, "ratio")
    m["verify.utility_loss.ms_per_call"] = (1e3 * _median(durations("verify.utility_loss")),
                                            "ms")
    ok_sampling = sum(d for s, d, _ in by["strategy.sample_bids"] if not s.attrs.get("failed"))
    m["strategy.sample_bids.samples_per_s"] = (
        attr_sum("strategy.sample_bids", "samples", only_ok=True) / ok_sampling
        if ok_sampling else 0.0, "1/s")
    m["strategy.sample_bids.table_mb"] = (
        max((s.attrs.get("table_bytes", 0) for s, _, _ in by["strategy.sample_bids"]),
            default=0) / 2**20, "MiB")
    save = total("strategy.save")
    m["strategy.save_s"] = (save, "s")
    m["strategy.save.rows_per_s"] = (attr_sum("strategy.save", "rows") / save if save else 0.0,
                                     "1/s")
    m["strategy.load_s"] = (total("strategy.load"), "s")
    m["strategy.bytes_written"] = (attr_sum("strategy.save", "bytes"), "bytes")
    for name in ("evaluate", "estimate_revenue", "emit_plot_data"):
        m[f"evaluate.{name}_s"] = (total(f"evaluate.{name}"), "s")
    m["runner.run_batch_self_s"] = (sum(t for _, _, t in by["runner.run_batch"])
                                    + sum(t for _, _, t in by["runner.run_once"]), "s")
    m["trace.overhead_s"] = (overhead_s, "s")

    calls = {}
    for name, rows in sorted(by.items()):
        ds = [d for _, d, _ in rows]
        tail = tail_percentile(ds)
        calls[name] = {"n": len(ds), "median_ms": 1e3 * _median(ds),
                       "tail": None if tail is None else {"p": tail[0], "ms": 1e3 * tail[1]},
                       "total_s": sum(ds), "self_s": sum(t for _, _, t in rows)}
    return m, calls, selfs
