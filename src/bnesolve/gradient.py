"""Expected-utility gradients over distributional strategies.

The expected utility of agent i is linear in its own strategy matrix,
``u_i = <s_i, c_i>``, where the coefficient matrix c_i aggregates the ex-post
utility against the discrete prior and the opponents' conditional strategies.
Both general paths weight the opponents' actions by the prior mass and the
opponents' conditional strategies, into weights of shape (K_i, L_-i); they
differ in what those weights meet.  The tensor path, and the affine path on
correlated or interdependent priors, build them with one GEMM per opponent.
On independent private values the affine path needs no such contraction: the
weights are the own marginal times the product of the opponents' action
marginals, one row for every observation.
Three evaluation paths are provided:

* ``symmetric``: for one group of interchangeable agents on independent
  private values, under a mechanism whose payoff depends on the opponents
  only through their highest bid (``Mechanism.payoff_via_highest_bid``).
  The opponents share one strategy, so the distribution of their highest bid
  follows from its action marginal and meets the mechanism's own payoff on
  an (own bid x highest opponent bid) grid; the cost is independent of the
  number of agents,
* ``affine``: for risk-neutral payoffs ``u = v*A(b) + B(b)``.  For
  interdependent priors the value-weighted joint and the joint are
  contracted together, stacked (one stack for all agents, who share the
  value); for private values the value weighting is a row scaling after one
  contraction, and on independent private values it is an outer product
  with the own observations after one row of weights meets A and B.  The
  weights meet A and B in one GEMM each (a mat-vec each for the one row),
  against matrices of shape (L_i, L_-i) cached per agent.  A mechanism may
  instead supply a kernel that never forms A and B
  (``Mechanism.affine_kernel``): the split-award auction sums the weights
  over threshold index ranges with prefix sums, and
* ``tensor``: the generic formulation for payoffs ``crra(v*A(b) + B(b))`` under
  private or interdependent priors.  It walks the value axis (the own
  observation for private values, the prior's one shared value otherwise)
  in chunks of ex-post utilities, each filled in place one value at a time.
  The memory budget sets the chunk size, not which path runs, and so bounds
  the bytes of ex-post utilities the path holds, give or take one value's
  worth of scratch.

All paths agree to floating-point reassociation error; the engine picks the
cheapest applicable one.
"""

from __future__ import annotations

import numpy as np

from .mechanisms import Mechanism, crra
from .priors import DiscretePrior
from .strategy import Strategy, flatten_action_grids

DEFAULT_MEMORY_BUDGET = 2 << 30  # bytes of ex-post utilities held per agent at once

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


def _divide_rows(c: np.ndarray, marginal: np.ndarray) -> np.ndarray:
    """Divide the rows of ``c`` by ``marginal`` in place; rows of zero mass become zero."""
    live = marginal > 0
    np.divide(c, marginal[:, None], out=c, where=live[:, None])
    c[~live] = 0.0
    return c


def _validate_groups(groups, prior: DiscretePrior, action_grids):
    """Groups must partition the agents, and agents grouped together must have
    the same observation grid, marginal and action grids."""
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


def expected_utility(strategy: Strategy, gradient_matrix: np.ndarray) -> float:
    """Linear expected utility <s_i, c_i>."""
    if strategy.matrix.shape != gradient_matrix.shape:
        raise ValueError("strategy and gradient shapes differ")
    # numpy's own loop, not a BLAS dot: OpenBLAS threads a dot of over 10k
    # entries and its workers then spin for about 0.1 s, so a certificate every
    # few iterations would keep a second core busy for the whole solve
    return float(np.einsum("kl,kl->", strategy.matrix, gradient_matrix))


class GradientEngine:
    """The discretized game and its gradients, with cached prior/mechanism
    contractions.

    The engine is the one description of the game a run solves: the mechanism,
    the discretized prior, the per-agent action grids, and ``groups``, the
    agents that share one strategy (one group per agent when None).  Groups
    must partition the agents, and grouped agents must have the same
    observation grid, marginal and action grids; both are checked here, once.
    Chooses, in order of preference: the symmetric order-statistic path (one
    group of all agents on independent private values, under a mechanism whose
    ``payoff_via_highest_bid``), the affine path for risk-neutral payoffs, and
    the tensor path for any other payoff and prior.  On the affine path the
    mechanism's own kernel, when it has one (split award), replaces the dense
    payoff matrices; its tables are built here, once.  On independent private
    values the affine path contracts the product of the opponents' action
    marginals, one row, with A and B; on other priors it contracts the prior
    mass with the opponents' conditionals first, one GEMM per opponent.  Every
    path returns a C-contiguous (K_i, L_i) gradient.  Interdependent priors
    hold one value joint over the value all agents share, so the tensor path
    reads that joint for every agent and the affine path stacks one
    value-weighted pair, cached once per engine.  ``memory_budget`` sets the
    chunk size along the value axis of the tensor path and of the symmetric
    path's risk-averse branch; it never changes which path runs.  One
    chunk-sized buffer serves every chunk of a call and is filled in place, one
    value at a time, so the budget bounds the bytes of ex-post utilities held
    per agent (one value's worth at least), give or take one value's worth of
    scratch.  When one chunk covers the whole axis, the chunk is kept between
    calls.  ``prefer_path`` forces one of ``PATHS``; the engine refuses a
    forced path that does not apply (``symmetric`` outside the setting above,
    ``affine`` for risk-averse payoffs, ``affine`` or ``tensor`` without a
    dense prior joint).  One engine serves any number of runs on the same
    problem.
    """

    def __init__(self, mech: Mechanism, prior: DiscretePrior, action_grids_per_agent,
                 memory_budget: int = DEFAULT_MEMORY_BUDGET, groups=None,
                 prefer_path: str | None = None):
        self.mech = mech
        self.prior = prior
        self.action_grids = [tuple(g) for g in action_grids_per_agent]
        self.groups = [list(g) for g in groups] if groups is not None \
            else [[i] for i in range(prior.n_agents)]
        _validate_groups(self.groups, prior, self.action_grids)
        self.flat_actions = [flatten_action_grids(g) for g in self.action_grids]
        self.budget = memory_budget
        self._affine_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._value_pair: np.ndarray | None = None
        self._utility_cache: dict[int, np.ndarray] = {}
        self.path = self._select_path(prefer_path)
        self._kernels = {}
        if self.path == "affine":
            for i in range(prior.n_agents):
                kernel = mech.affine_kernel(i, self.action_grids)
                if kernel is not None:
                    self._kernels[i] = kernel

    def _symmetric_applicable(self) -> bool:
        p = self.prior
        return len(self.groups) == 1 and self.mech.payoff_via_highest_bid \
            and p.independent and p.values_equal_observations

    def _select_path(self, prefer: str | None) -> str:
        if prefer is not None and prefer not in PATHS:
            raise ValueError(f"unknown gradient path '{prefer}' (choose from {PATHS})")
        if prefer in (None, "symmetric") and self._symmetric_applicable():
            return "symmetric"
        if prefer == "symmetric":
            raise ValueError("symmetric fast path not applicable to this setting")
        if self.prior.obs_joint is None:
            raise ValueError("dense prior joint unavailable; only the symmetric path runs "
                             "without it")
        if prefer == "affine" and self.mech.risk_rho != 1.0:
            raise ValueError("affine path needs risk-neutral payoffs (risk_rho = 1)")
        return prefer or ("affine" if self.mech.risk_rho == 1.0 else "tensor")

    def cache_bytes(self) -> int:
        """Bytes held by the affine, kernel, value-weighted and utility caches."""
        arrays = [x for pair in self._affine_cache.values() for x in pair]
        arrays += list(self._utility_cache.values())
        if self._value_pair is not None:
            arrays.append(self._value_pair)
        return sum(x.nbytes for x in arrays) + sum(k.nbytes for k in self._kernels.values())

    # -- cached pieces ------------------------------------------------------

    def _affine_parts(self, agent: int):
        """Dense (A, B) of ``agent`` with its own actions on rows: (L_i, L_-i).
        On the symmetric path the columns are the highest opponent bid, which
        every opponent bids alike: (L_i, L_i)."""
        if agent not in self._affine_cache:
            if self.path == "symmetric":
                bids = self.flat_actions[agent][:, 0]
                profile = [(bids[:, None] if j == agent else bids[None, :],)
                           for j in range(self.prior.n_agents)]
                parts = [np.broadcast_to(x, (bids.size, bids.size))
                         for x in self.mech.affine_parts(agent, profile)]
            else:
                comps = _profile_components(self.flat_actions)
                counts = tuple(t.shape[0] for t in self.flat_actions)
                parts = [np.moveaxis(np.broadcast_to(x, counts), agent, 0)
                         .reshape(counts[agent], -1)
                         for x in self.mech.affine_parts(agent, comps)]
            self._affine_cache[agent] = tuple(np.ascontiguousarray(x) for x in parts)
        return self._affine_cache[agent]

    def _value_weighted_pair(self) -> np.ndarray:
        """The value-weighted joint stacked on the joint (interdependent priors);
        all agents share the value, so one pair serves every agent."""
        if self._value_pair is None:
            self._value_pair = np.stack([self.prior.value_weighted_joint(),
                                         self.prior.obs_joint])
        return self._value_pair

    def _opponent_weights(self, w, strategies, agent: int) -> np.ndarray:
        """W[(lead,) k_i, l_-i]: prior mass ``w`` times the opponents' conditional
        strategies, summed over the opponents' observations.

        ``w`` has ``lead`` leading axes, then one observation axis per agent.
        Each opponent's observation axis gives way, at its position, to its
        action axis, one (batched) GEMM per opponent, so the prior is never
        transposed and the opponents' actions stay in agent order; only the
        result is transposed, to bring k_i first.
        """
        lead = w.ndim - self.prior.n_agents
        for j in range(self.prior.n_agents):
            if j == agent:
                continue
            q = strategies[j].conditionals()
            shape, pos = w.shape, lead + j
            after = int(np.prod(shape[pos + 1:]))
            if after == 1:
                w = w.reshape(-1, shape[pos]) @ q
            else:
                w = np.matmul(q.T, w.reshape(-1, shape[pos], after))
            w = w.reshape(shape[:pos] + (q.shape[1],) + shape[pos + 1:])
        w = np.moveaxis(w, lead + agent, lead)
        return w.reshape(w.shape[:lead + 1] + (-1,))

    def _opponent_marginals(self, strategies, agent: int) -> np.ndarray:
        """pi_-i of shape (1, L_-i): the product of the opponents' action
        marginals, in agent order and flattened row-major, the column order of
        ``_opponent_weights``."""
        pi = np.ones(1)
        for j, s in enumerate(strategies):
            if j != agent:
                pi = np.multiply.outer(pi, s.matrix.sum(axis=0))
        return pi.reshape(1, -1)

    # -- paths ---------------------------------------------------------------

    def gradient(self, strategies, agent: int) -> np.ndarray:
        if self.path == "symmetric":
            c = self._gradient_symmetric(strategies, agent)
        elif self.path == "affine":
            c = self._gradient_affine(strategies, agent)
        else:
            c = self._gradient_tensor(strategies, agent)
        if not np.all(np.isfinite(c)):
            raise FloatingPointError("non-finite gradient entries")
        return c

    def _gradient_symmetric(self, strategies, agent: int) -> np.ndarray:
        """c_i[k, l] = E[u(o_k, b_l, highest opponent bid)]: the n-1 opponents
        share a strategy with action marginal pi, so their highest bid is b_m
        with probability cdf_m**(n-1) - (cdf_m - pi_m)**(n-1).  All agents are
        interchangeable on this path, so agent 0's payoff grid serves each."""
        n = self.prior.n_agents
        pi = strategies[(agent + 1) % n].matrix.sum(axis=0)
        cdf = np.cumsum(pi)
        p_max = cdf ** (n - 1) - (cdf - pi) ** (n - 1)
        own_vals = self.prior.obs_grids[0].points
        if self.mech.risk_rho == 1.0:
            a, b = self._affine_parts(0)
            c = np.multiply.outer(own_vals, a @ p_max)
            c += b @ p_max
            return c
        return self._contract_utilities(
            0, np.broadcast_to(p_max, (own_vals.size, p_max.size)), own_vals)

    def _gradient_affine(self, strategies, agent: int) -> np.ndarray:
        """c_i = (Wv . A + W . B) / marginal, with Wv and W the value-weighted
        and plain prior mass contracted with the opponents' conditionals.

        On independent private values the weights factorize,
        W[k, l_-i] = marginal[k] * pi_-i[l_-i] with pi_-i the product of the
        opponents' action marginals, so one row meets A and B and
        c_i[k] = o_k * (pi_-i . A) + pi_-i . B on every row of nonzero mass."""
        prior = self.prior
        if prior.independent and prior.values_equal_observations:
            pi = self._opponent_marginals(strategies, agent)
            a, b = self._contract_affine(agent, pi, pi)
            c = np.multiply.outer(prior.obs_grids[agent].points, a[0])
            c += b[0]
            c[~(prior.marginals[agent] > 0)] = 0.0
            return c
        if prior.values_equal_observations:  # the value weighting is a row scaling
            w = self._opponent_weights(prior.obs_joint, strategies, agent)
            cv, c1 = self._contract_affine(agent, w, w)
            cv *= prior.obs_grids[agent].points[:, None]
        else:
            wv, w1 = self._opponent_weights(self._value_weighted_pair(), strategies, agent)
            cv, c1 = self._contract_affine(agent, wv, w1)
        cv += c1
        return _divide_rows(cv, prior.marginals[agent])

    def _contract_affine(self, agent: int, wa: np.ndarray, wb: np.ndarray):
        """(wa . A, wb . B): the mechanism's kernel, or one GEMM each against
        the cached dense A and B."""
        kernel = self._kernels.get(agent)
        if kernel is not None:
            return kernel(wa, wb)
        a, b = self._affine_parts(agent)
        return wa @ a.T, wb @ b.T

    def _gradient_tensor(self, strategies, agent: int) -> np.ndarray:
        """c_i[k, l] sums u_i over the opponents' observations and actions and the
        own-value axis, weighted by the prior mass and the opponents' conditional
        strategies, divided by the own observation marginal (zero rows where that
        marginal is zero)."""
        prior = self.prior
        interdependent = not prior.values_equal_observations
        # W[(m,) k_i, l_-i], with the shared value m as a leading axis for
        # interdependent priors
        w = self._opponent_weights(prior.value_joint if interdependent
                                   else prior.obs_joint, strategies, agent)

        own_vals = (prior.value_grid if interdependent
                    else prior.obs_grids[agent]).points
        c = self._contract_utilities(agent, w, own_vals, interdependent)
        return _divide_rows(c, prior.marginals[agent])

    def _contract_utilities(self, agent: int, w: np.ndarray, own_vals: np.ndarray,
                            interdependent: bool = False) -> np.ndarray:
        """Sum of crra(v*A + B) over the columns of ``agent``'s payoff grid,
        weighted by ``w`` (K_i, L_-i), or by ``w`` (m, K_i, L_-i) summed over the
        value m when ``interdependent``.  The ex-post utilities are built in
        chunks of own values that fit the memory budget, one buffer for every
        chunk of a call, filled in place one own value at a time."""
        a, b = self._affine_parts(agent)
        chunk = min(own_vals.size, max(1, int(self.budget // (8 * a.size))))
        u = self._utility_cache.get(agent)
        fill = u is None
        if fill:
            u = np.empty((chunk,) + a.shape)
        c = np.zeros((w.shape[-2], a.shape[0]))
        for s in range(0, own_vals.size, chunk):
            e = min(s + chunk, own_vals.size)
            if fill:
                # u[m, l_i, l_-i]: ex-post utilities of own values s..e-1
                for row, v in zip(u, own_vals[s:e]):
                    np.multiply(v, a, out=row)
                    row += b
                    crra(row, self.mech.risk_rho, in_place=True)
            if interdependent:
                c += np.matmul(w[s:e], u[:e - s].transpose(0, 2, 1)).sum(axis=0)
            else:
                c[s:e] = np.matmul(u[:e - s], w[s:e, :, None])[..., 0]
        if fill and chunk == own_vals.size:
            self._utility_cache[agent] = u
        return c
