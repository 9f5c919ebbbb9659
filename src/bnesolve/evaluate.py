"""Monte-Carlo evaluation of learned strategies in the continuous game.

Draws observation/valuation profiles from the continuous prior model (not
the discretized prior) and scores the learned strategies on them.  One set
of draws gives every figure of a run: the relative ex-ante utility loss L
and the probability-weighted bid RMSE L2 of each agent with an analytic
baseline (the learned agent bids through its induced strategy, its
opponents bid their analytic equilibrium; the same draws feed the
numerator and denominator of L), and the revenue, the mean total payment
when every agent plays its learned strategy.  Run directories written
before revenue shared these draws hold revenue figures from draws of their
own, which differ from today's by Monte-Carlo noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mechanisms import Mechanism
from .priors import IndependentPrivatePrior, UniformMarginal, draw_chunks
from .strategy import Strategy

DEFAULT_EVAL_SAMPLES = 1 << 18
_CHUNK = 1 << 18


@dataclass(frozen=True)
class AnalyticBNE:
    """Closed-form equilibrium bid functions, possibly for a subset of agents."""

    id: str
    bid_fns: dict  # agent index -> vectorized observation -> bid

    def covers(self, agents) -> bool:
        return all(a in self.bid_fns for a in agents)


def _symmetric_uniform(prior_model) -> bool:
    if not isinstance(prior_model, IndependentPrivatePrior):
        return False
    specs = prior_model.marginal_specs
    return (all(isinstance(s, UniformMarginal) for s in specs)
            and all(s == specs[0] for s in specs) and specs[0].lower == 0.0)


def lookup_analytic(mech: Mechanism, prior_model) -> AnalyticBNE | None:
    """Registry of shipped closed-form equilibria; None when no baseline exists."""
    n = mech.n_agents
    kind = getattr(prior_model, "kind", None)
    if mech.kind == "fpsb" and _symmetric_uniform(prior_model):
        if mech.risk_rho == 1.0:
            frac = (n - 1) / n
            return AnalyticBNE("fpsb_uniform_symmetric",
                               {i: (lambda o, f=frac: f * np.asarray(o)) for i in range(n)})
        if n == 2:
            # externally derived formula; gated on low evaluation losses before
            # acceptance use
            rho = mech.risk_rho
            return AnalyticBNE("fpsb_uniform_risk_averse",
                               {i: (lambda o, r=rho: np.asarray(o) / (1.0 + r))
                                for i in range(n)})
    if mech.kind == "spsb" and kind == "common_value" and n == 3 and mech.risk_rho == 1.0:
        return AnalyticBNE("common_value_spsb",
                           {i: (lambda o: 2.0 * np.asarray(o) / (2.0 + np.asarray(o)))
                            for i in range(n)})
    if kind == "affiliated" and n == 2 and mech.risk_rho == 1.0:
        if mech.kind == "fpsb":
            return AnalyticBNE("affiliated_fpsb",
                               {i: (lambda o: 2.0 * np.asarray(o) / 3.0) for i in range(2)})
        if mech.kind == "spsb":
            return AnalyticBNE("affiliated_spsb_truthful",
                               {i: (lambda o: np.asarray(o)) for i in range(2)})
    if mech.kind == "llg" and mech.payment_rule in ("NZ", "NVCG", "NB"):
        # truthful bidding is dominant for the global bidder under core rules;
        # no closed form is shipped for the locals
        return AnalyticBNE("llg_global_truthful", {2: lambda o: np.asarray(o)})
    return None


@dataclass
class EvalReport:
    losses: dict = field(default_factory=dict)        # agent -> L (may be None)
    l2: dict = field(default_factory=dict)            # agent -> per-dimension RMSE
    utilities: dict = field(default_factory=dict)     # agent -> (learned, equilibrium)
    revenue: float | None = None                      # mean total payment, learned play
    baseline_id: str | None = None
    notes: dict = field(default_factory=dict)


def evaluate(strategies, analytic: AnalyticBNE | None, prior_model, mech: Mechanism,
             n_samples: int = DEFAULT_EVAL_SAMPLES, seed: int = 0,
             agents=None) -> EvalReport:
    """L and L2 for each requested agent against the analytic baseline, and
    the revenue of the learned profile, all from one set of draws.

    L(s_i) = 1 - u_i(s_i, beta_-i) / u_i(beta), estimated on shared draws;
    L2 is the RMSE between the sampled bids and beta_i at the same
    observations, one value per action dimension.  Metrics needing a missing
    baseline entry are reported as None.  The revenue is the mean total
    payment when every agent bids its learned bids at the same draws.

    Per chunk the prior is drawn once; then the learned bids of the
    requested agents that have a baseline are sampled, in ``agents`` order,
    and then those of every other agent, in agent order.  Within a chunk L
    and L2 read only the draws before the other agents' bids, so they equal
    those of a pass without revenue whenever ``n_samples`` fits in one chunk;
    ``agents=()`` without a baseline draws as ``estimate_revenue`` always has.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    n = mech.n_agents
    if agents is None:
        agents = list(range(n))
    report = EvalReport(baseline_id=analytic.id if analytic else None)
    bid_fns = analytic.bid_fns if analytic is not None else {}
    scored = [i for i in agents if i in bid_fns]
    covers_all = analytic is not None and analytic.covers(range(n))
    rng = np.random.default_rng(seed)
    num = {i: 0.0 for i in scored}
    den = {i: 0.0 for i in scored}
    sq = {i: None for i in scored}
    total = 0.0
    for _, values, obs in draw_chunks(prior_model.sample, rng, n_samples, _CHUNK):
        learned = {}
        if scored:
            beta = {j: np.asarray(fn(obs[:, j]), dtype=np.float64)
                    for j, fn in bid_fns.items()}
            for i in scored:
                b_learned = learned[i] = strategies[i].sample_bids(obs[:, i], rng)
                if sq[i] is None:
                    sq[i] = np.zeros(b_learned.shape[1])
                sq[i] += ((b_learned - beta[i][:, None]) ** 2).sum(axis=0)
                if covers_all:
                    bids = [(beta[j],) for j in range(n)]
                    den[i] += float(mech.utility(i, bids, values[:, i]).sum())
                    bids[i] = tuple(b_learned[:, d] for d in range(b_learned.shape[1]))
                    num[i] += float(mech.utility(i, bids, values[:, i]).sum())
            beta = bids = None  # release the baseline bids before the payments
        for j in range(n):
            if j not in learned:
                learned[j] = strategies[j].sample_bids(obs[:, j], rng)
        profile = [tuple(learned[j][:, d] for d in range(learned[j].shape[1]))
                   for j in range(n)]
        for p in mech.payments(profile):
            total += float(np.sum(p))
    report.revenue = total / n_samples
    if analytic is None:
        report.notes["baseline"] = "no analytic baseline"
        return report
    for i in agents:
        if i not in bid_fns:
            report.losses[i] = None
            report.l2[i] = None
            report.notes[i] = "no analytic baseline for this agent"
            continue
        report.l2[i] = list(np.sqrt(sq[i] / n_samples))
        if not covers_all:
            report.losses[i] = None
            report.notes[i] = "baseline misses some opponents; L unavailable"
            continue
        u_learned = num[i] / n_samples
        u_eq = den[i] / n_samples
        report.utilities[i] = (u_learned, u_eq)
        if u_eq <= 0:
            report.losses[i] = None
            report.notes[i] = f"equilibrium utility estimate {u_eq:.3e} not positive"
        else:
            report.losses[i] = 1.0 - u_learned / u_eq
    return report


def estimate_revenue(strategies, prior_model, mech: Mechanism,
                     n_samples: int = DEFAULT_EVAL_SAMPLES, seed: int = 0) -> float:
    """Mean total payment collected when all agents play their learned strategies."""
    return evaluate(strategies, None, prior_model, mech, n_samples, seed, agents=()).revenue


def emit_plot_data(strategy: Strategy, prior_model, agent: int, count: int = 150,
                   seed: int = 0, analytic_fn=None) -> list[dict]:
    """Sampled (observation, bid) pairs for strategy plots, one row per draw."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    _, obs = prior_model.sample(rng, count)
    o = obs[:, agent]
    b = strategy.sample_bids(o, rng)
    rows = []
    for s in range(count):
        row = {"agent": agent, "observation": float(o[s])}
        for d in range(b.shape[1]):
            row[f"bid_{d}"] = float(b[s, d])
        if analytic_fn is not None:
            row["analytic_bid"] = float(np.asarray(analytic_fn(o[s])))
        rows.append(row)
    return rows
