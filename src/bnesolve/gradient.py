"""Expected-utility gradients over distributional strategies.

The expected utility of agent i is linear in its own strategy matrix,
``u_i = <s_i, c_i>``, where the coefficient matrix c_i aggregates the ex-post
utility against the discrete prior and the opponents' conditional strategies.
The prior picks how the opponents' actions are weighted:

* on independent priors (private values, held as marginals alone) the prior
  mass factorizes, so the weights are the own marginal times one row, the
  same for every own observation.  Under a mechanism whose payoff depends on
  the opponents only through their highest bid
  (``Mechanism.payoff_via_highest_bid``), with every opponent bidding on one
  grid, the row is the distribution of that highest bid,
  ``prod_j F_j - prod_j (F_j - pi_j)`` from the opponents' action marginals
  pi_j and their cdfs F_j, and its columns are that grid; its cost grows
  linearly with the number of agents.  Otherwise the row is the product of
  the opponents' action marginals over their action profiles, and
* on correlated or interdependent priors the prior mass is contracted with
  the opponents' conditional strategies, one GEMM per opponent, into weights
  of shape (K_i, L_-i).

The payoff picks the path, one of ``PATHS``:

* ``affine``: for risk-neutral payoffs ``u = v*A(b) + B(b)``.  The one row
  meets A and B in a mat-vec each, and the own value enters as an outer
  product.  For interdependent priors the value-weighted joint and the joint
  are contracted together, stacked (one stack for all agents, who share the
  value); for correlated private values the value weighting is a row scaling
  after one contraction.  The weights meet A and B in one GEMM each, against
  matrices of shape (L_i, columns of the weights) cached per agent.  A
  mechanism may instead supply a kernel that never forms A and B
  (``Mechanism.affine_kernel``): the split-award auction sums the weights
  over threshold index ranges with prefix sums, and
* ``tensor``: the generic formulation for payoffs ``crra(v*A(b) + B(b))`` under
  private or interdependent priors.  It walks the value axis (the own
  observation for private values, the prior's one shared value otherwise)
  in chunks of ex-post utilities, each filled in place one value at a time.
  The memory budget sets the chunk size, not which path runs, and so bounds
  the bytes of ex-post utilities the path holds, give or take one value's
  worth of scratch.

Both paths agree to floating-point reassociation error.
"""

from __future__ import annotations

import numpy as np

from .mechanisms import Mechanism, crra
from .priors import DiscretePrior
from .strategy import Strategy, flatten_action_grids

DEFAULT_MEMORY_BUDGET = 2 << 30  # bytes of ex-post utilities held per agent at once

PATHS = ("affine", "tensor")


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
    The payoff picks the path: ``affine`` for risk-neutral payoffs, ``tensor``
    for any other.  The prior picks the weights, on either path: independent
    priors give one row of opponent weights (the distribution of the
    opponents' highest bid where the mechanism's payoff reads only that and
    they bid on one grid, decided here per agent, else the product of their
    action marginals); correlated and interdependent priors contract the
    prior mass with the opponents' conditionals, one GEMM per opponent.  On
    the affine path the mechanism's own kernel, when it has one (split
    award), replaces the dense payoff matrices for weights over the
    opponents' action profiles; its tables are built here, once.  Every path
    returns a C-contiguous (K_i, L_i) gradient.  Interdependent priors hold
    one value joint over the value all agents share, so the tensor path reads
    that joint for every agent and the affine path stacks one value-weighted
    pair, cached once per engine.  ``memory_budget`` sets the chunk size
    along the value axis of the tensor path; it never changes which path
    runs.  One chunk-sized buffer serves every chunk of a call and is filled
    in place, one value at a time, so the budget bounds the bytes of ex-post
    utilities held per agent (one value's worth at least), give or take one
    value's worth of scratch.  When one chunk covers the whole axis, the
    chunk is kept between calls.  ``prefer_path`` forces one of ``PATHS``;
    the engine refuses an unknown path and ``affine`` for risk-averse
    payoffs.  One engine serves any number of runs on the same problem.
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
        # agent -> the one bid grid of its opponents, for agents whose
        # opponents' weights are the distribution of their highest bid
        self._top_bids: dict[int, np.ndarray] = {}
        if prior.independent and mech.payoff_via_highest_bid:
            for i in range(prior.n_agents):
                bids = [self.flat_actions[j] for j in range(prior.n_agents) if j != i]
                if all(np.array_equal(x, bids[0]) for x in bids[1:]):
                    self._top_bids[i] = bids[0][:, 0]
        self._kernels = {}
        if self.path == "affine":
            for i in range(prior.n_agents):
                kernel = None if i in self._top_bids else mech.affine_kernel(i, self.action_grids)
                if kernel is not None:
                    self._kernels[i] = kernel

    def _select_path(self, prefer: str | None) -> str:
        if prefer is not None and prefer not in PATHS:
            raise ValueError(f"unknown gradient path '{prefer}' (choose from {PATHS})")
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
        """Dense (A, B) of ``agent`` with its own actions on rows.  The columns
        are the opponents' highest bid, on the grid every one of them bids
        on, where ``_opponent_row`` weights that: (L_i, L_top); else the
        opponents' action profiles: (L_i, L_-i)."""
        if agent not in self._affine_cache:
            top = self._top_bids.get(agent)
            if top is not None:
                own = self.flat_actions[agent][:, 0]
                profile = [(own[:, None] if j == agent else top[None, :],)
                           for j in range(self.prior.n_agents)]
                parts = [np.broadcast_to(x, (own.size, top.size))
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

    def _opponent_row(self, strategies, agent: int) -> np.ndarray:
        """The opponents' weights on an independent prior, one row over the
        columns of ``_affine_parts``.  With a highest-bid payoff and one bid
        grid, the distribution of the highest bid, prod_j F_j - prod_j
        (F_j - pi_j), a running product over the opponents' action marginals
        pi_j and their cdfs F_j; else the product of the marginals, in agent
        order and flattened row-major, the column order of
        ``_opponent_weights``."""
        marginals = [s.matrix.sum(axis=0) for j, s in enumerate(strategies) if j != agent]
        if agent in self._top_bids:
            top = below = 1.0
            for pi in marginals:
                cdf = np.cumsum(pi)
                top = top * cdf
                below = below * (cdf - pi)
            return top - below
        row = np.ones(1)
        for pi in marginals:
            row = np.multiply.outer(row, pi)
        return row.ravel()

    # -- paths ---------------------------------------------------------------

    def gradient(self, strategies, agent: int) -> np.ndarray:
        if self.prior.independent:
            c = self._gradient_factorized(strategies, agent)
        elif self.path == "affine":
            c = self._gradient_affine(strategies, agent)
        else:
            c = self._gradient_tensor(strategies, agent)
        if not np.all(np.isfinite(c)):
            raise FloatingPointError("non-finite gradient entries")
        return c

    def _gradient_factorized(self, strategies, agent: int) -> np.ndarray:
        """c_i on an independent prior, where the prior mass is
        marginal[k] * row: the weights divided by the marginal are one row, so
        c_i[k] = o_k * (row . A) + row . B on the affine path, and row .
        crra(o_k * A + B) on the tensor path, on every row of nonzero mass."""
        own_vals = self.prior.obs_grids[agent].points
        w = self._opponent_row(strategies, agent)[None, :]
        if self.path == "affine":
            a, b = self._contract_affine(agent, w, w)
            c = np.multiply.outer(own_vals, a[0])
            c += b[0]
        else:
            c = self._contract_utilities(agent, np.broadcast_to(w, (own_vals.size, w.shape[1])),
                                         own_vals)
        c[~(self.prior.marginals[agent] > 0)] = 0.0
        return c

    def _gradient_affine(self, strategies, agent: int) -> np.ndarray:
        """c_i = (Wv . A + W . B) / marginal, with Wv and W the value-weighted
        and plain prior mass contracted with the opponents' conditionals."""
        prior = self.prior
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
        weighted by ``w`` (K_i, columns), or by ``w`` (m, K_i, columns) summed
        over the value m when ``interdependent``.  The ex-post utilities are
        built in chunks of own values that fit the memory budget, one buffer
        for every chunk of a call, filled in place one own value at a time."""
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
