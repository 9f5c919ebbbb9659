"""The benchmark's workloads and the checks on their outputs.

A workload is a list of items; an item is one preset (with overrides) run
through ``run_batch`` for a fixed number of runs.  One round runs every item
once, and a benchmark run measures whole rounds, so every round attempts the
same runs on the same inputs.

The workload seed (``--seed``) becomes the batch seed of every item marked
``seeded``; ``run_batch`` derives each run's learner and evaluation seeds
from it.  Items that stand for a known fault keep their preset seed, so they
fail the same way whatever the seed.  Priors are binned with each preset's
own ``prior_seed`` (987654321 in every shipped preset).

``check_artifacts`` checks every certified run; an item's own property
check takes the problem, the reloaded strategies (agent index -> Strategy)
and the run's ``meta.json`` record.  Both return a reason string on failure.
They compare with closed forms or with properties the equilibrium must have,
never with stored output of an earlier version.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Bid-function checks compare the conditional-mean bid per observation point
# with the closed form, as a root-mean-square weighted by the prior marginal.
IPV_BID_RMS = 0.005
IPV_REVENUE_TOL = 0.01
LLG_GLOBAL_BID_RMS = 0.03
COMMON_VALUE_BID_RMS = 0.04
SPLIT_POOLING_TOL = 0.05

# Recomputed certificates may differ from the run's by float reassociation
# between gradient paths (they agree to 1e-12 in the test suite).
CERT_SLACK = 1e-6
ROW_SUM_TOL = 1e-10

# Strategy.sample_bids asks for an 8 GiB table on the split-award action grid
FAULT_TEXT = "Unable to allocate"


@dataclass(frozen=True)
class Item:
    label: str
    preset: str
    overrides: dict = field(default_factory=dict)
    runs: int = 1
    seeded: bool = True
    # "raises": every run certifies and then raises an error containing
    # FAULT_TEXT; "uncertified": every run ends at the iteration cap
    known_fault: str | None = None
    check: object = None

    def is_known_fault(self, run: dict) -> bool:
        if self.known_fault == "raises":
            return run["certified"] and run["status"] != "ok" and FAULT_TEXT in run["reason"]
        if self.known_fault == "uncertified":
            return run["status"] == "ok" and not run["certified"]
        return False


@dataclass(frozen=True)
class Workload:
    items: tuple
    setup_repeats: int


def check_artifacts(bn, item, problem, run_dir, result, meta):
    """Independent checks of one certified run's artifacts; a reason or None."""
    reps = [g[0] for g in problem.groups]
    loaded = {a: bn.strategy.load_strategy(run_dir / f"strategy_agent{a}.csv")[0] for a in reps}
    for a, s in loaded.items():
        if np.any(s.matrix < 0):
            return f"agent {a}: strategy has negative entries"
        dev = float(np.max(np.abs(s.matrix.sum(axis=1) - problem.prior.marginals[a])))
        if dev > ROW_SUM_TOL:
            return f"agent {a}: row sums are {dev:.1e} from the prior marginal"
        got = result.strategies[a]
        if not (np.array_equal(s.matrix, got.matrix) and np.array_equal(s.marginal, got.marginal)
                and np.array_equal(s.obs_grid.points, got.obs_grid.points)
                and all(np.array_equal(x.points, y.points)
                        for x, y in zip(s.action_grids, got.action_grids))):
            return f"agent {a}: reloaded strategy differs from the returned one"
    rep_of = {j: g[0] for g in problem.groups for j in g}
    profile = [loaded[rep_of[j]] for j in range(problem.mech.n_agents)]
    tol = problem.config.tolerance
    cert = bn.verify.relative_utility_loss(profile, problem.prior, problem.mech,
                                           action_grids=problem.action_grids, tolerance=tol)
    if not cert.max_loss < tol * (1 + CERT_SLACK):
        return f"recomputed certificate {cert.max_loss:.3e} is not below {tol:g}"
    return item.check(problem, loaded, meta) if item.check else None


def _weighted_rms(strategy, target) -> float:
    err = strategy.mean_bid_per_observation()[:, 0] - target
    return float(np.sqrt(strategy.marginal @ err ** 2))


def check_fpsb_uniform(problem, strategies, meta):
    """Two bidders, uniform values: beta(v) = v/2 and expected revenue 1/3."""
    s = strategies[0]
    rms = _weighted_rms(s, s.obs_grid.points / 2)
    if rms > IPV_BID_RMS:
        return f"mean bid is {rms:.4f} (rms) from v/2"
    revenue = meta.get("revenue")
    if revenue is None or abs(revenue - 1 / 3) > IPV_REVENUE_TOL:
        return f"revenue estimate {revenue} is not within {IPV_REVENUE_TOL} of 1/3"
    return None


def check_llg_global_truthful(problem, strategies, meta):
    """Under core-selecting rules the global bidder's dominant strategy is truthful."""
    s = strategies[2]
    rms = _weighted_rms(s, s.obs_grid.points)
    if rms > LLG_GLOBAL_BID_RMS:
        return f"global bidder's mean bid is {rms:.4f} (rms) from its value"
    return None


def check_common_value(problem, strategies, meta):
    """Three bidders, second price, common value: beta(o) = 2o / (2 + o)."""
    s = strategies[0]
    o = s.obs_grid.points
    rms = _weighted_rms(s, 2 * o / (2 + o))
    if rms > COMMON_VALUE_BID_RMS:
        return f"mean bid is {rms:.4f} (rms) from 2o/(2+o)"
    return None


def check_split_award_pooling(problem, strategies, meta):
    """Half-share bids pool at the no-undercutting cap, 0.7 x the minimal cost."""
    s = strategies[0]
    cap = 0.7 * problem.prior_model.obs_bounds[0][0]
    weighted = float(s.marginal @ s.mean_bid_per_observation()[:, 1])
    if abs(weighted - cap) > SPLIT_POOLING_TOL:
        return f"mass-weighted half-share bid {weighted:.3f} is not within " \
               f"{SPLIT_POOLING_TOL} of {cap:.2f}"
    return None


_FINE = {"obs_points": 256, "action_points": 256}

WORKLOADS = {
    # symmetric order-statistic gradient: learner, certificate, sampling,
    # evaluation and strategy CSV writing carry the time
    "ipv_fine": Workload((
        Item("fpsb_2_uniform_256", "fpsb_2_uniform", _FINE, runs=6, check=check_fpsb_uniform),
    ), setup_repeats=3),
    # binned latent priors and three-agent contractions; no symmetric path
    "correlated": Workload((
        Item("llg_nz_g05", "llg_nz_g05", check=check_llg_global_truthful),
        Item("llg_nvcg_g05", "llg_nvcg_g05", check=check_llg_global_truthful),
        Item("llg_nb_g05", "llg_nb_g05", check=check_llg_global_truthful),
        Item("llg_first_price_g05", "llg_first_price_g05", seeded=False,
             known_fault="uncertified"),
        Item("common_value_spsb", "common_value_spsb", check=check_common_value),
        # the only input here that takes the non-affine (tensor) gradient path
        Item("llg_nz_g05_rho05", "llg_nz_g05", {"risk_rho": 0.5},
             check=check_llg_global_truthful),
    ), setup_repeats=2),
    # 4096 flat actions: the affine gradient over 4096 x 4096 profile matrices
    "split_award": Workload((
        Item("split_award_uniform", "split_award_uniform", runs=3, seeded=False,
             known_fault="raises", check=check_split_award_pooling),
    ), setup_repeats=3),
}
