"""Simultaneous online first-order learning in the discretized game.

All agents compute gradients from the current profile snapshot and then
update simultaneously.  Dual-averaging and mirror-ascent rules use the step
schedule ``eta_t = eta0 * t**(-beta)``; Frank-Wolfe uses ``2 / (1 + t)``.
Both dual-averaging rules keep a dual variable, the initial strategy plus the
step-weighted sum of all gradients (``soda1`` starts from its logarithm), and
differ only in the mirror map back to the strategy polytope: ``soda1`` takes
each row's softmax, ``soda2`` its Euclidean projection.  The softmax drops
(sets to zero, without evaluating ``exp``) the entries whose scaled value
would be below the smallest normal double, so its iterates hold no subnormals.
Convergence is certified by the relative utility loss against the exact best
response (``verify.certify``, fed the step's own gradients), checked every
``check_interval`` iterations and once more for the returned profile.  Each
certificate goes to ``loss_history`` and, with the distance the profile moved
in its last step, to ``progress``.  Iterate distances are computed only for
those steps: ``distance_history`` holds the iterations of ``loss_history``
after 0.  ``run`` takes the game as one ``GradientEngine``, which holds the
mechanism, the discretized prior, the action grids and the groups of agents
sharing a strategy.  ``runner.solve`` is the usual way in: it passes the
problem's engine and fills ``run``'s settings from the problem's config.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .gradient import GradientEngine, agent_groups
from .strategy import Strategy, init_strategy, iterate_distance
from .verify import Certificate, best_response_matrix, certify
# perfbench/spans.py wraps learners.utility_loss: drop this when perfbench is next edited
from .verify import utility_loss  # noqa: F401

POSITIVITY_FLOOR = 1e-300
TINY = np.finfo(np.float64).tiny


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


def softmax_rows(y: np.ndarray, masses: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Entropic mirror map: each row of ``exp(y)`` scaled to sum to its mass.

    Rows are shifted by their maximum, ``z = y - max_row(y)``, so every row
    sum is at least one and finite rows never overflow.  Entries whose scaled
    value would be below the smallest normal double (``tiny``) are set to zero
    without evaluating ``exp``: row k keeps the entries with
    ``z >= min(0, log(tiny * L / mass_k))``.  Since a row sum is at most L,
    every kept entry scales to a normal double, every dropped one would have
    been below ``tiny * L``, and the row maximum is always kept, so rows with
    zero mass map to zero.  ``work``, if given, receives ``z``.
    """
    z = np.subtract(y, y.max(axis=1, keepdims=True), out=work)
    with np.errstate(divide="ignore"):
        cut = np.minimum(0.0, np.log(TINY * y.shape[1] / masses))
    keep = z >= cut[:, None]
    if keep.all():
        # nothing to drop: a plain exp skips the zero fill and the masked loop
        out = np.exp(z)
    else:
        out = np.zeros_like(z)
        np.exp(z, out=out, where=keep)
    out *= (masses / out.sum(axis=1))[:, None]
    return out


class _Learner:
    """An update rule; ``reset`` receives the initial strategy before the first step."""

    def reset(self, strategy: Strategy):
        pass


class _PolynomialStep(_Learner):
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
    """Gradients accumulate in a log-space dual; the iterate is its softmax."""

    rule = "soda1"

    def reset(self, strategy: Strategy):
        if np.any((strategy.marginal > 0) & (strategy.matrix.sum(axis=1) == 0)):
            raise ArithmeticError("entropic update needs mass in every row with positive marginal")
        # exact zeros of the initial strategy (a truthful start) get a finite
        # dual, so that they can still gain mass
        self.dual = np.log(np.maximum(strategy.matrix, POSITIVITY_FLOOR))
        self._work = np.empty_like(self.dual)

    def step(self, strategy: Strategy, c: np.ndarray, t: int) -> np.ndarray:
        # the work buffer holds eta * c, then the shifted dual
        self.dual += np.multiply(c, self.eta(t), out=self._work)
        return softmax_rows(self.dual, strategy.marginal, self._work)


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

    def step(self, strategy: Strategy, c: np.ndarray, t: int) -> np.ndarray:
        return project_rows_to_simplex(strategy.matrix + self.eta(t) * c, strategy.marginal)


class FrankWolfe(_Learner):
    """Convex combination with the in-game best response, step 2/(1+t)."""

    rule = "sofw"

    def step(self, strategy: Strategy, c: np.ndarray, t: int) -> np.ndarray:
        br = best_response_matrix(c, strategy.marginal)
        eta = 2.0 / (1.0 + t)
        return (1.0 - eta) * strategy.matrix + eta * br


class FictitiousPlay(_Learner):
    """Play the running average of best responses to the opponents' averages."""

    rule = "fictitious_play"

    def step(self, strategy: Strategy, c: np.ndarray, t: int) -> np.ndarray:
        br = best_response_matrix(c, strategy.marginal)
        return ((t - 1) * strategy.matrix + br) / t


LEARNERS = {cls.rule: cls for cls in (EntropicDualAveraging, EuclideanDualAveraging,
                                      ProjectedMirrorAscent, FrankWolfe, FictitiousPlay)}
RULES = tuple(LEARNERS)


def make_learner(rule: str, eta0: float = 1.0, beta: float = 0.5):
    cls = LEARNERS.get(rule)
    if cls is None:
        raise ValueError(f"unknown update rule '{rule}' (choose from {RULES})")
    return cls(eta0, beta) if issubclass(cls, _PolynomialStep) else cls()


@dataclass
class RunResult:
    strategies: list[Strategy]          # one per agent (group members share)
    groups: list[list[int]]
    certificate: Certificate
    loss_history: list[tuple[int, list[float]]]
    # per group, the Frobenius distance of step t's iterate from step t-1's,
    # for the iterations t >= 1 of loss_history alone
    distance_history: list[tuple[int, list[float]]] = field(repr=False, default_factory=list)
    iterations: int = 0
    wall_time: float = 0.0
    termination: str = "max_iterations"
    gradient_path: str = ""             # GradientEngine.path that ran
    kernel_agents: list[int] = field(default_factory=list)  # GradientEngine.kernel_agents
    engine_cache_bytes: int = 0         # bytes held by the engine caches at the end

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


def run(engine: GradientEngine, *, rule: str, eta0: float = 1.0, step_beta: float = 0.5,
        iterations: int = 1000, tolerance: float = 1e-4, check_interval: int = 10,
        init: str = "random", seed=None, progress=None) -> RunResult:
    """Iterate simultaneous updates in ``engine``'s game until convergence or
    the iteration cap.

    Each of the engine's groups shares one strategy; gradients are computed
    for each group's first member against the current profile snapshot, and
    all groups update simultaneously.  Stops as soon as every agent's
    relative utility loss falls below ``tolerance`` (checked every
    ``check_interval`` iterations), returning the certified profile.
    """
    prior, action_grids, groups = engine.prior, engine.action_grids, engine.groups

    seed_seq = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    seeds = seed_seq.spawn(len(groups))
    current = [init_strategy(init, prior.obs_grids[g[0]], action_grids[g[0]],
                             prior.marginals[g[0]], seed=seeds[gi])
               for gi, g in enumerate(groups)]
    learners = [make_learner(rule, eta0, step_beta) for _ in groups]
    for learner, s in zip(learners, current):
        learner.reset(s)

    owner = agent_groups(groups)

    def profile():
        return [current[gi] for gi in owner]

    loss_history: list[tuple[int, list[float]]] = []
    distance_history: list[tuple[int, list[float]]] = []
    start = time.perf_counter()
    termination = "max_iterations"
    updates_done = 0
    # pass iterations + 1 certifies the returned profile and takes no step
    for t in range(1, iterations + 2):
        final = t > iterations
        snapshot = profile()
        try:
            cs = [engine.gradient(snapshot, g[0]) for g in groups]
        except FloatingPointError as exc:
            raise FloatingPointError(f"gradient failure at iteration {t}: {exc}") from exc
        if final or t % check_interval == 0 or t == iterations:
            cert = certify(current, cs, iteration=updates_done, tolerance=tolerance)
            loss_history.append((updates_done, list(cert.losses)))
            if progress is not None:
                last_dist = distance_history[-1][1] if distance_history else None
                progress({"iteration": updates_done, "losses": list(cert.losses),
                          "max_loss": cert.max_loss, "distance": last_dist})
            if cert.converged:
                termination = "converged"
                break
        if final:
            break
        # a step's distance is read only by the certificate of the next pass
        measured = (t + 1) % check_interval == 0 or t + 1 >= iterations
        dists = []
        for gi, (learner, s) in enumerate(zip(learners, current)):
            new = s.with_matrix(learner.step(s, cs[gi], t))
            if measured:
                dists.append(iterate_distance(new, s))
            current[gi] = new
        if measured:
            distance_history.append((t, dists))
        updates_done = t

    wall = time.perf_counter() - start
    per_agent = profile()
    return RunResult(per_agent, groups, cert, loss_history, distance_history,
                     iterations=updates_done, wall_time=wall, termination=termination,
                     gradient_path=engine.path, kernel_agents=engine.kernel_agents,
                     engine_cache_bytes=engine.cache_bytes())
