"""Exact in-game certification via best responses.

Because the expected utility is linear in the own strategy and the
feasibility constraints are row-separable, the best response places each
observation row's full mass on the action with the largest gradient entry.
The relative gap to the best response is the convergence certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradient import GradientEngine, expected_utility
from .strategy import Strategy

ABS_FALLBACK_THRESHOLD = 1e-12


def best_response_matrix(gradient: np.ndarray, marginal: np.ndarray) -> np.ndarray:
    """Row-vertex maximizer of <s, c>; argmax ties go to the lowest index."""
    k, _ = gradient.shape
    out = np.zeros_like(gradient)
    out[np.arange(k), np.argmax(gradient, axis=1)] = marginal
    return out


def utility_loss(strategy: Strategy, gradient: np.ndarray) -> tuple[float, float, float]:
    """(loss, current utility, best-response utility) for one agent.

    The loss is relative, ``(u_br - u_cur) / u_br``, falling back to the
    absolute gap when the best-response utility is not safely positive.
    """
    u_cur = expected_utility(strategy, gradient)
    u_br = float(np.dot(strategy.marginal, gradient.max(axis=1)))
    gap = u_br - u_cur
    loss = gap / u_br if u_br > ABS_FALLBACK_THRESHOLD else gap
    return loss, u_cur, u_br


@dataclass
class Certificate:
    losses: list[float]
    current_utilities: list[float]
    best_response_utilities: list[float]
    iteration: int
    tolerance: float

    @property
    def max_loss(self) -> float:
        return max(self.losses)

    @property
    def converged(self) -> bool:
        return self.max_loss < self.tolerance


def certify(strategies, gradients, *, iteration: int = 0,
            tolerance: float = 1e-4) -> Certificate:
    """Certificate of a profile from gradients already computed against it.

    ``gradients[i]`` is the utility gradient of ``strategies[i]`` at the
    profile; the learner passes its own step's gradients, so certifying a
    run costs no extra gradient evaluation.
    """
    losses, cur, br = zip(*(utility_loss(s, c) for s, c in zip(strategies, gradients)))
    return Certificate(list(losses), list(cur), list(br), iteration, tolerance)


def relative_utility_loss(profile, prior, mech, *, action_grids=None,
                          tolerance: float = 1e-4) -> Certificate:
    """Certificate for a full strategy profile, one strategy per agent.

    Builds a fresh ``GradientEngine`` on ``action_grids`` (by default each
    strategy's own) and takes one gradient per agent, so it checks a profile
    independently of the run that produced it; a run certifies itself from
    its own step's gradients with ``certify``.
    """
    if action_grids is None:
        action_grids = [s.action_grids for s in profile]
    engine = GradientEngine(mech, prior, action_grids)
    gradients = [engine.gradient(profile, i) for i in range(len(profile))]
    return certify(profile, gradients, tolerance=tolerance)


def vs_probe(mech, prior, equilibrium, probe, *, engine: GradientEngine | None = None) -> float:
    """Sum over agents of <grad_i u_i(probe), probe_i - equilibrium_i>.

    A strictly positive value at some feasible probe certifies that the
    equilibrium profile is not globally variationally stable.  ``engine``
    is the game's engine, when the caller holds one; else one is built.
    """
    if engine is None:
        engine = GradientEngine(mech, prior, [s.action_grids for s in probe])
    total = 0.0
    for i, (s_star, s_probe) in enumerate(zip(equilibrium, probe)):
        if s_star.matrix.shape != s_probe.matrix.shape:
            raise ValueError("probe and equilibrium strategies have different shapes")
        c = engine.gradient(probe, i)
        # einsum, not a BLAS dot, as in expected_utility: no OpenBLAS worker left spinning
        total += float(np.einsum("kl,kl->", c, s_probe.matrix - s_star.matrix))
    return total


def collusive_profile(strategies, scale: float = 0.5):
    """Shade every agent's conditional-mean bid and re-concentrate the mass.

    Each observation row's implied bid is multiplied by ``scale`` and the
    row's mass moved to the nearest action point: the demand-reduction probe
    used to exhibit failure of global variational stability.
    """
    out = []
    for s in strategies:
        target = s.mean_bid_per_observation() * scale
        idx = np.zeros(s.obs_grid.count, dtype=np.int64)
        coords = s.action_values()
        for k in range(s.obs_grid.count):
            idx[k] = np.argmin(((coords - target[k]) ** 2).sum(axis=1))
        matrix = np.zeros_like(s.matrix)
        matrix[np.arange(s.obs_grid.count), idx] = s.marginal
        out.append(s.with_matrix(matrix))
    return out
