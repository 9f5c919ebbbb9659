"""Expected-utility gradients over distributional strategies.

The expected utility of agent i is linear in its own strategy matrix,
``u_i = <s_i, c_i>``, where the coefficient matrix c_i aggregates the ex-post
utility against the discrete prior and the opponents' conditional strategies.
Three evaluation paths are provided:

* ``symmetric``: an order-statistic fast path for symmetric independent
  private-value single-object auctions whose cost is independent of the
  number of agents,
* ``affine``: for risk-neutral payoffs ``u = v*A(b) + B(b)``, contracts the
  own-value axis into the prior once, so no utility over the value axis is
  ever formed, and
* ``tensor``: the generic formulation for payoffs ``crra(v*A(b) + B(b))`` under
  private or interdependent priors.  It contracts the prior with the
  opponents' conditional strategies once, then walks the own-value axis in
  chunks of ex-post utilities.  The memory budget sets the chunk size, not
  which path runs.

All paths agree to floating-point reassociation error; the engine picks the
cheapest applicable one.
"""

from __future__ import annotations

import string

import numpy as np

from .mechanisms import Mechanism, crra
from .priors import DiscretePrior
from .strategy import Strategy, flatten_action_grids

DEFAULT_MEMORY_BUDGET = 2 << 30  # bytes of ex-post utilities held per agent at once

_SYMMETRIC_KINDS = ("fpsb", "spsb", "all_pay")
PATHS = ("symmetric", "affine", "tensor")


def _profile_components(flat_actions):
    """Per-agent bid components broadcastable over the action-profile box."""
    n = len(flat_actions)
    comps = []
    for j, table in enumerate(flat_actions):
        shape = [1] * n
        shape[j] = table.shape[0]
        comps.append(tuple(np.ascontiguousarray(table[:, d]).reshape(shape)
                           for d in range(table.shape[1])))
    return comps


def _letters(k: int) -> list[str]:
    return list(string.ascii_lowercase[:k])


def _contract(joint, joint_sub, tensor, tensor_sub, conditionals, agent, obs_letters,
              act_letters):
    operands, subs = [joint], [joint_sub]
    for j, q in conditionals:
        operands.append(q)
        subs.append(obs_letters[j] + act_letters[j])
    operands.append(tensor)
    subs.append(tensor_sub)
    out = obs_letters[agent] + act_letters[agent]
    return np.einsum(",".join(subs) + "->" + out, *operands, optimize=True)


def _divide_rows(c: np.ndarray, marginal: np.ndarray) -> np.ndarray:
    out = np.zeros_like(c)
    np.divide(c, marginal[:, None], out=out, where=marginal[:, None] > 0)
    return out


def gradient_symmetric_iid(kind: str, own_values: np.ndarray, bid_values: np.ndarray,
                           opponent_strategy: Strategy, n_agents: int,
                           risk_rho: float = 1.0) -> np.ndarray:
    """Gradient for symmetric i.i.d. private-value single-object auctions.

    Uses order statistics of the opponents' shared action marginal: the agent
    wins iff all n-1 opponent bids fall strictly below its own, so the win
    probability is the opponent action CDF (exclusive) to the power n-1.
    Cost is independent of the number of agents beyond the exponentiation.
    """
    if kind not in _SYMMETRIC_KINDS:
        raise ValueError(f"symmetric fast path supports {_SYMMETRIC_KINDS}, not '{kind}'")
    if n_agents < 2:
        raise ValueError("need at least one opponent")
    pi = opponent_strategy.matrix.sum(axis=0)
    cdf = np.cumsum(pi)
    below = cdf - pi  # P(opponent bid strictly below b_l)
    p_win = below ** (n_agents - 1)
    o = np.asarray(own_values, dtype=np.float64)[:, None]
    b = np.asarray(bid_values, dtype=np.float64)[None, :]
    if kind == "fpsb":
        return crra(o - b, risk_rho) * p_win
    if kind == "all_pay":
        return crra(o - b, risk_rho) * p_win + crra(-b, risk_rho) * (1.0 - p_win)
    # spsb: the winner pays the highest opponent bid
    p_max = cdf ** (n_agents - 1) - below ** (n_agents - 1)
    gains = crra(o - b, risk_rho) * p_max[None, :]
    c = np.cumsum(gains, axis=1)
    return np.concatenate([np.zeros((o.size, 1)), c[:, :-1]], axis=1)


def expected_utility(strategy: Strategy, gradient_matrix: np.ndarray) -> float:
    """Linear expected utility <s_i, c_i>."""
    if strategy.matrix.shape != gradient_matrix.shape:
        raise ValueError("strategy and gradient shapes differ")
    return float(np.vdot(strategy.matrix, gradient_matrix))


class GradientEngine:
    """Per-run gradient evaluator with cached prior/mechanism contractions.

    Chooses, in order of preference: the symmetric order-statistic path (only
    in symmetric runs on i.i.d. private-value single-object auctions), the
    affine path for risk-neutral payoffs, and the tensor path for any other
    payoff and prior.  ``memory_budget`` bounds the bytes of ex-post utilities
    the tensor path holds per agent (one own value's worth at least) and so
    sets its chunk size along the own-value axis; it never changes which path
    runs.  When one chunk covers the whole axis, the chunk is kept between
    calls.  ``prefer_path`` forces one of ``PATHS``.
    """

    def __init__(self, mech: Mechanism, prior: DiscretePrior, action_grids_per_agent,
                 memory_budget: int = DEFAULT_MEMORY_BUDGET, symmetric: bool = False,
                 prefer_path: str | None = None):
        self.mech = mech
        self.prior = prior
        self.action_grids = [tuple(g) for g in action_grids_per_agent]
        self.flat_actions = [flatten_action_grids(g) for g in self.action_grids]
        self.budget = memory_budget
        self._affine_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._vweighted_cache: dict[int, np.ndarray] = {}
        self._utility_cache: dict[int, np.ndarray] = {}
        self.path = self._select_path(symmetric, prefer_path)

    def _symmetric_applicable(self) -> bool:
        p, m = self.prior, self.mech
        if m.kind not in _SYMMETRIC_KINDS or not p.independent \
                or not p.values_equal_observations:
            return False
        g0, a0, f0 = p.obs_grids[0], self.action_grids[0], p.marginals[0]
        return all(np.array_equal(p.obs_grids[j].points, g0.points)
                   and np.array_equal(self.flat_actions[j], self.flat_actions[0])
                   and np.array_equal(p.marginals[j], f0)
                   for j in range(1, p.n_agents))

    def _select_path(self, symmetric: bool, prefer: str | None) -> str:
        if prefer is not None:
            if prefer not in PATHS:
                raise ValueError(f"unknown gradient path '{prefer}' (choose from {PATHS})")
            if prefer == "symmetric" and not self._symmetric_applicable():
                raise ValueError("symmetric fast path not applicable to this setting")
            return prefer
        if symmetric and self._symmetric_applicable():
            return "symmetric"
        if self.prior.obs_joint is None:
            raise ValueError("dense prior joint unavailable; run in symmetric mode")
        if self.mech.risk_rho == 1.0:
            return "affine"
        return "tensor"

    def cache_bytes(self) -> int:
        """Bytes held by the affine, value-weighted and utility caches."""
        arrays = [x for pair in self._affine_cache.values() for x in pair]
        arrays += list(self._vweighted_cache.values()) + list(self._utility_cache.values())
        return sum(x.nbytes for x in arrays)

    # -- cached pieces ------------------------------------------------------

    def _affine_parts(self, agent: int):
        if agent not in self._affine_cache:
            comps = _profile_components(self.flat_actions)
            a, b = self.mech.affine_parts(agent, comps)
            counts = tuple(t.shape[0] for t in self.flat_actions)
            self._affine_cache[agent] = (np.broadcast_to(a, counts).copy(),
                                         np.broadcast_to(b, counts).copy())
        return self._affine_cache[agent]

    def _value_weighted_joint(self, agent: int) -> np.ndarray:
        if agent not in self._vweighted_cache:
            self._vweighted_cache[agent] = self.prior.value_weighted_joint(agent)
        return self._vweighted_cache[agent]

    # -- paths ---------------------------------------------------------------

    def gradient(self, strategies, agent: int) -> np.ndarray:
        if self.path == "symmetric":
            opp = (agent + 1) % self.prior.n_agents
            c = gradient_symmetric_iid(self.mech.kind, self.prior.obs_grids[agent].points,
                                       self.flat_actions[agent][:, 0], strategies[opp],
                                       self.prior.n_agents, self.mech.risk_rho)
        elif self.path == "affine":
            c = self._gradient_affine(strategies, agent)
        else:
            c = self._gradient_tensor(strategies, agent)
        if not np.all(np.isfinite(c)):
            raise FloatingPointError("non-finite gradient entries")
        return c

    def _gradient_affine(self, strategies, agent: int) -> np.ndarray:
        n = self.prior.n_agents
        obs_letters = _letters(n)
        act_letters = _letters(2 * n)[n:]
        conditionals = [(j, strategies[j].conditionals()) for j in range(n) if j != agent]
        a, b = self._affine_parts(agent)
        joint_sub = "".join(obs_letters)
        tensor_sub = "".join(act_letters)
        cv = _contract(self._value_weighted_joint(agent), joint_sub, a, tensor_sub,
                       conditionals, agent, obs_letters, act_letters)
        c1 = _contract(self.prior.obs_joint, joint_sub, b, tensor_sub,
                       conditionals, agent, obs_letters, act_letters)
        return _divide_rows(cv + c1, self.prior.marginals[agent])

    def _gradient_tensor(self, strategies, agent: int) -> np.ndarray:
        """c_i[k, l] sums u_i over the opponents' observations and actions and the
        own-value axis, weighted by the prior mass and the opponents' conditional
        strategies, divided by the own observation marginal (zero rows where that
        marginal is zero)."""
        prior = self.prior
        interdependent = not prior.values_equal_observations
        # W[(m,) k_i, l_-i]: prior mass times the opponents' conditional strategies,
        # with the own value m as a leading axis for interdependent priors.  Taking
        # opponents in index order, the only observation axis ahead of k_j is k_i.
        w = prior.value_joints[agent] if interdependent else prior.obs_joint
        lead = int(interdependent)
        for j in range(prior.n_agents):
            if j != agent:
                w = np.tensordot(w, strategies[j].conditionals(),
                                 axes=(lead + int(agent < j), 0))
        w = w.reshape(w.shape[:lead + 1] + (-1,))

        own_vals = (prior.val_grids[agent] if interdependent
                    else prior.obs_grids[agent]).points
        counts = [t.shape[0] for t in self.flat_actions]
        chunk = max(1, int(self.budget // (8 * np.prod(counts, dtype=np.float64))))
        cached = self._utility_cache.get(agent)
        if cached is None:
            a, b = (np.moveaxis(x, agent, 0).reshape(counts[agent], -1)
                    for x in self._affine_parts(agent))
        c = np.zeros((prior.obs_grids[agent].count, counts[agent]))
        for s in range(0, own_vals.size, chunk):
            e = min(s + chunk, own_vals.size)
            u = cached
            if u is None:
                # u[m, l_i, l_-i]: ex-post utilities of own values s..e-1
                u = crra(own_vals[s:e, None, None] * a + b, self.mech.risk_rho)
                if e - s == own_vals.size:
                    self._utility_cache[agent] = u
            if interdependent:
                c += np.matmul(w[s:e], u.transpose(0, 2, 1)).sum(axis=0)
            else:
                c[s:e] = np.matmul(u, w[s:e, :, None])[..., 0]
        return _divide_rows(c, prior.marginals[agent])
