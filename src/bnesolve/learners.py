"""Simultaneous online first-order learning in the discretized game.

All agents compute gradients from the current profile snapshot and then
update simultaneously.  Dual-averaging and mirror-ascent rules use the step
schedule ``eta_t = eta0 * t**(-beta)``; Frank-Wolfe uses ``2 / (1 + t)``.
Convergence is certified by the relative utility loss against the exact best
response (``verify.certify``, fed the step's own gradients), checked every
``check_interval`` iterations.  ``runner.solve`` is the usual way in: it fills
``run``'s settings from a problem's config and passes the problem's engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .gradient import GradientEngine
from .strategy import Strategy, init_strategy, iterate_distance
from .verify import Certificate, best_response_matrix, certify
# perfbench/spans.py wraps learners.utility_loss: drop this when perfbench is next edited
from .verify import utility_loss  # noqa: F401

POSITIVITY_FLOOR = 1e-300

RULES = ("soda1", "soda2", "soma2", "sofw", "fictitious_play")
RULE_ALIASES = {
    "soda1_entropic": "soda1",
    "soda2_euclidean": "soda2",
    "soma2_projected": "soma2",
    "sofw_frank_wolfe": "sofw",
    "fp": "fictitious_play",
}


def project_rows_to_simplex(y: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto {x >= 0, sum x = mass}.

    Sort-and-threshold algorithm, O(L log L) per row, exact up to float
    rounding.  Rows with zero mass project to zero.
    """
    y = np.asarray(y, dtype=np.float64)
    k, l = y.shape
    out = np.zeros_like(y)
    pos = masses > 0
    if not np.any(pos):
        return out
    yp = y[pos]
    u = np.sort(yp, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    j = np.arange(1, l + 1)
    nonneg = u + (masses[pos, None] - css) / j > 0
    rho = nonneg.sum(axis=1) - 1
    theta = (css[np.arange(rho.size), rho] - masses[pos]) / (rho + 1)
    out[pos] = np.maximum(yp - theta[:, None], 0.0)
    return out


class _PolynomialStep:
    def __init__(self, eta0: float, beta: float):
        if eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if not 0.0 < beta <= 1.0:
            raise ValueError("step exponent beta must lie in (0, 1]")
        self.eta0 = float(eta0)
        self.beta = float(beta)

    def eta(self, t: int) -> float:
        return self.eta0 * t ** (-self.beta)


class EntropicDualAveraging(_PolynomialStep):
    """Multiplicative-weights update normalized to the observation marginal."""

    rule = "soda1"

    def reset(self, strategy: Strategy):
        pass

    def step(self, strategy: Strategy, c: np.ndarray, t: int) -> np.ndarray:
        live = strategy.marginal > 0
        if np.any(live & (strategy.matrix.sum(axis=1) == 0)):
            raise ArithmeticError("entropic update hit an all-zero row with positive marginal")
        z = self.eta(t) * c
        z -= z.max(axis=1, keepdims=True)
        # exact zeros cannot be revived by a multiplicative update: floor them
        base = np.where(live[:, None], np.maximum(strategy.matrix, POSITIVITY_FLOOR), 0.0)
        w = base * np.exp(z)
        sums = w.sum(axis=1)
        out = np.zeros_like(w)
        np.divide(w * strategy.marginal[:, None], sums[:, None], out=out,
                  where=sums[:, None] > 0)
        return out


class EuclideanDualAveraging(_PolynomialStep):
    """Lazy projected ascent: gradients accumulate in a dual variable."""

    rule = "soda2"

    def reset(self, strategy: Strategy):
        self.dual = strategy.matrix.copy()

    def step(self, strategy: Strategy, c: np.ndarray, t: int) -> np.ndarray:
        self.dual = self.dual + self.eta(t) * c
        return project_rows_to_simplex(self.dual, strategy.marginal)


class ProjectedMirrorAscent(_PolynomialStep):
    """Plain projected gradient ascent on the strategy polytope."""

    rule = "soma2"

    def reset(self, strategy: Strategy):
        pass

    def step(self, strategy: Strategy, c: np.ndarray, t: int) -> np.ndarray:
        return project_rows_to_simplex(strategy.matrix + self.eta(t) * c, strategy.marginal)


class FrankWolfe:
    """Convex combination with the in-game best response, step 2/(1+t)."""

    rule = "sofw"

    def reset(self, strategy: Strategy):
        pass

    def step(self, strategy: Strategy, c: np.ndarray, t: int) -> np.ndarray:
        br = best_response_matrix(c, strategy.marginal)
        eta = 2.0 / (1.0 + t)
        return (1.0 - eta) * strategy.matrix + eta * br


class FictitiousPlay:
    """Play the running average of best responses to the opponents' averages."""

    rule = "fictitious_play"

    def reset(self, strategy: Strategy):
        pass

    def step(self, strategy: Strategy, c: np.ndarray, t: int) -> np.ndarray:
        br = best_response_matrix(c, strategy.marginal)
        return ((t - 1) * strategy.matrix + br) / t


def make_learner(rule: str, eta0: float = 1.0, beta: float = 0.5):
    rule = RULE_ALIASES.get(rule, rule)
    if rule == "soda1":
        return EntropicDualAveraging(eta0, beta)
    if rule == "soda2":
        return EuclideanDualAveraging(eta0, beta)
    if rule == "soma2":
        return ProjectedMirrorAscent(eta0, beta)
    if rule == "sofw":
        return FrankWolfe()
    if rule == "fictitious_play":
        return FictitiousPlay()
    raise ValueError(f"unknown update rule '{rule}' (choose from {RULES})")


@dataclass
class RunResult:
    strategies: list[Strategy]          # one per agent (group members share)
    groups: list[list[int]]
    certificate: Certificate
    loss_history: list[tuple[int, list[float]]]
    distance_history: list[tuple[int, list[float]]] = field(repr=False, default_factory=list)
    iterations: int = 0
    wall_time: float = 0.0
    termination: str = "max_iterations"
    gradient_path: str = ""             # GradientEngine.path that ran
    engine_cache_bytes: int = 0         # bytes held by the engine caches at the end

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


def _validate_groups(groups, prior, action_grids):
    seen = sorted(i for g in groups for i in g)
    if seen != list(range(prior.n_agents)):
        raise ValueError("groups must partition the agent set")
    for g in groups:
        rep = g[0]
        for j in g[1:]:
            if not (np.array_equal(prior.obs_grids[j].points, prior.obs_grids[rep].points)
                    and np.array_equal(prior.marginals[j], prior.marginals[rep])
                    and all(np.array_equal(a.points, b.points)
                            for a, b in zip(action_grids[j], action_grids[rep]))):
                raise ValueError(f"agents {rep} and {j} are grouped but not interchangeable")


def run(mech, prior, action_grids_per_agent, *, rule: str, eta0: float = 1.0,
        step_beta: float = 0.5, iterations: int = 1000, tolerance: float = 1e-4,
        check_interval: int = 10, init: str = "random", seed=None,
        groups: list[list[int]] | None = None,
        engine: GradientEngine | None = None, progress=None) -> RunResult:
    """Iterate simultaneous updates until convergence or the iteration cap.

    ``groups`` lists agents sharing one strategy (symmetric mode); gradients
    are computed for each group's first member against the current profile
    snapshot, and all groups update simultaneously.  Stops as soon as every
    agent's relative utility loss falls below ``tolerance`` (checked every
    ``check_interval`` iterations), returning the certified profile.
    Without an ``engine`` the run builds one with the default memory budget.
    """
    action_grids = [tuple(g) for g in action_grids_per_agent]
    if groups is None:
        groups = [[i] for i in range(prior.n_agents)]
    groups = [list(g) for g in groups]
    _validate_groups(groups, prior, action_grids)
    if engine is None:
        engine = GradientEngine(mech, prior, action_grids, symmetric=len(groups) == 1)

    seed_seq = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    seeds = seed_seq.spawn(len(groups))
    current = [init_strategy(init, prior.obs_grids[g[0]], action_grids[g[0]],
                             prior.marginals[g[0]], seed=seeds[gi])
               for gi, g in enumerate(groups)]
    learners = [make_learner(rule, eta0, step_beta) for _ in groups]
    for learner, s in zip(learners, current):
        learner.reset(s)

    agent_group = {}
    for gi, g in enumerate(groups):
        for j in g:
            agent_group[j] = gi

    def profile():
        return [current[agent_group[j]] for j in range(prior.n_agents)]

    loss_history: list[tuple[int, list[float]]] = []
    distance_history: list[tuple[int, list[float]]] = []
    start = time.perf_counter()
    termination = "max_iterations"
    cert = None
    updates_done = 0
    for t in range(1, iterations + 1):
        snapshot = profile()
        try:
            cs = [engine.gradient(snapshot, g[0]) for g in groups]
        except FloatingPointError as exc:
            raise FloatingPointError(f"gradient failure at iteration {t}: {exc}") from exc
        if t % check_interval == 0 or t == iterations:
            cert = certify(current, cs, iteration=updates_done, tolerance=tolerance)
            loss_history.append((updates_done, list(cert.losses)))
            if progress is not None:
                last_dist = distance_history[-1][1] if distance_history else None
                progress({"iteration": updates_done, "losses": list(cert.losses),
                          "max_loss": cert.max_loss, "distance": last_dist})
            if cert.converged:
                termination = "converged"
                break
        dists = []
        for gi, (learner, s) in enumerate(zip(learners, current)):
            new = s.with_matrix(learner.step(s, cs[gi], t))
            dists.append(iterate_distance(new, s))
            current[gi] = new
        distance_history.append((t, dists))
        updates_done = t

    if cert is None or cert.iteration != updates_done:
        snapshot = profile()
        cs = [engine.gradient(snapshot, g[0]) for g in groups]
        cert = certify(current, cs, iteration=updates_done, tolerance=tolerance)
        loss_history.append((updates_done, list(cert.losses)))
        if cert.converged:
            termination = "converged"

    wall = time.perf_counter() - start
    per_agent = profile()
    return RunResult(per_agent, groups, cert, loss_history, distance_history,
                     iterations=updates_done, wall_time=wall, termination=termination,
                     gradient_path=engine.path, engine_cache_bytes=engine.cache_bytes())
