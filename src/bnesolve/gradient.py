"""Expected-utility gradients over distributional strategies.

The expected utility of agent i is linear in its own strategy matrix,
``u_i = <s_i, c_i>``, where the coefficient matrix c_i aggregates the ex-post
utility against the discrete prior and the opponents' conditional strategies.
The prior picks how the opponents' actions are weighted:

* on component priors (private values, always held as
  ``DiscretePrior.components``, weighted products of blocks over the agents)
  the weights factor along the blocks, component by component.  An opponent
  alone in its block with its marginal as mass contributes its action marginal
  pi_j; a block of opponents contributes their joint action distribution, the
  block's mass contracted with their conditionals (``q_a^T M q_b``); and where
  agent i shares its block, the block's mass divided by i's marginal and
  contracted with the block-mates' conditionals (``M @ q_j``, one small GEMM)
  gives weights over the mates' actions for each own observation.  The last
  opponents in agent order that are alone with their marginal in every
  component make one factor R, the product of their action marginals; the
  rest, summed over the components, make G, so the weights are
  G[k_i, l_lead] * R[l_trail].  G is one row, the same for every own
  observation, where agent i has no block-mate: on independent priors (one
  component of single agents) R is the product of the opponents' action
  marginals and G is [[1]].  Under a mechanism whose payoff depends on the
  opponents only through their highest bid
  (``Mechanism.payoff_via_highest_bid``), on an independent prior with
  every opponent bidding on one grid, R is instead the distribution of that
  highest bid, ``prod_j F_j - prod_j (F_j - pi_j)`` from the pi_j and their
  cdfs F_j, and its columns are that grid; its cost grows linearly with the
  number of agents.  No dense joint is formed, and
* on dense priors (always interdependent: the exact common-value and the
  binned affiliated models, whose agents share one value) the prior mass,
  with a leading axis (the shared value of the value joint, or one entry
  for the value-weighted joint or the joint), is contracted as the prior
  holds it with the opponents' conditional strategies, one GEMM per
  opponent, into weights of shape (leading, K_i, L_-i).

The payoff picks the path (``gradient_path``), ``affine`` where
``risk_rho == 1`` and ``tensor`` otherwise, and the path picks the method;
the prior picks only the weights, which both methods take on either kind of
prior:

* ``affine``: for risk-neutral payoffs ``u = v*A(b) + B(b)``.  The weights
  come as rows and a factor R over the trailing opponents: G and R on
  component priors; on dense priors the prior's value-weighted joint and
  its joint, each contracted on its own, as rows Wv and W, with R = [1]
  covering no opponent.  The value joint itself is not read, so a dense
  prior may hold the value-weighted joint alone.  One contraction takes
  them to the weighted sums of A and B.
  A mechanism has a kernel for the agent (``Mechanism.affine_kernel``) only
  where its form applies, decided from the opponents R covers; it gets the
  rows and R and never forms A and B.  The split-award kernel sums the
  weights over threshold index ranges with prefix sums; first-price LLG reads
  R's strict cdf at a local's bid sums where R is the global's marginal
  (``LLGFirstPriceKernel``).  Elsewhere A and B meet R in a mat-vec each
  over the trailing axes where R covers an opponent, and the rows one
  product each.  The own value then enters as a row scaling on component
  priors, c_i = o * (G . A_R) + G . B_R (an outer product where G is one
  row), and on dense priors c_i = (Wv . A + W . B) / marginal; and
* ``tensor``: the generic formulation for payoffs ``crra(v*A(b) + B(b))``.
  It takes the weights as (K_i, L_-i) rows (G x R on component priors, one
  stack of rows per shared value on dense ones) and walks the value axis
  (the own observation on component priors, the one shared value on dense
  ones) in chunks of ex-post utilities, each filled in place one value at a
  time.  The memory budget sets the chunk size, not which path runs, and so
  bounds the bytes of ex-post utilities the path holds, give or take one
  value's worth of scratch.  On dense priors it reads the value joint, so
  the prior must hold it.

Each agent without a kernel holds one layout of its A and B, built from one
profile of own actions by columns with shape (L_i, columns) at its first
gradient and cached.  It is merged wherever the agent's weights reach the
columns as rows over every opponent's action: on the tensor path, and on the
affine path where R covers no opponent (the global on the exact LLG prior,
every agent on a dense prior).  Two columns (opponent action profiles, or
highest bids) fall in one class where their A and B are equal, as floats, at
every own action, so they give equal payoffs.  One ``np.unique`` over the
agent's stacked A and B columns finds its classes.  The weight rows are
summed over each class, one ``np.bincount`` per row, and meet A and B, or
the ex-post utilities built from them, over one column per class, which is
exact up to summation order.  Where every column is distinct (two-bidder
first price and all-pay), or R covers an opponent on the affine path, A and
B stay as built.

Both paths agree to floating-point reassociation error.
"""

from __future__ import annotations

import numpy as np

from .mechanisms import Mechanism, crra
from .priors import DiscretePrior
from .strategy import Strategy, flatten_action_grids

DEFAULT_MEMORY_BUDGET = 2 << 30  # bytes of ex-post utilities held per agent at once


def _divide_rows(c: np.ndarray, marginal: np.ndarray) -> np.ndarray:
    """Divide the rows of ``c`` by ``marginal`` in place; rows of zero mass become zero."""
    live = marginal > 0
    np.divide(c, marginal[:, None], out=c, where=live[:, None])
    c[~live] = 0.0
    return c


def _own_first(w, strategies, agents, start: int) -> np.ndarray:
    """``w`` with its axes from ``start`` on, one observation axis per agent in
    ``agents``, each replaced in turn by the agent's action axis, one (batched)
    GEMM with its conditionals: the own-first rule of ``mechanisms``."""
    for pos, j in enumerate(agents, start=start):
        q = strategies[j].conditionals()
        shape = w.shape
        after = int(np.prod(shape[pos + 1:]))
        if after == 1:
            w = w.reshape(-1, shape[pos]) @ q
        else:
            w = np.matmul(q.T, w.reshape(-1, shape[pos], after))
        w = w.reshape(shape[:pos] + (q.shape[1],) + shape[pos + 1:])
    return w


def _outer_in_agent_order(factors) -> np.ndarray:
    """Outer product of (agents, array) factors, each array with one axis per
    agent, its axes put in ascending agent order."""
    out, order = np.ones(()), []
    for agents, x in factors:
        out = np.multiply.outer(out, x)
        order += agents
    return out.transpose(np.argsort(order))


def _validate_groups(groups, prior: DiscretePrior, action_grids):
    """Groups must partition the agents, and agents grouped together must have
    the same observation grid, marginal and action grids."""
    seen = sorted(i for g in groups for i in g)
    if seen != list(range(prior.n_agents)):
        raise ValueError("groups must partition the agent set")
    for g in groups:
        rep = g[0]
        for j in g[1:]:
            if not (prior.obs_grids[j] == prior.obs_grids[rep]
                    and np.array_equal(prior.marginals[j], prior.marginals[rep])
                    and action_grids[j] == action_grids[rep]):
                raise ValueError(f"agents {rep} and {j} are grouped but not interchangeable")


def gradient_path(mech: Mechanism) -> str:
    """The path that computes ``mech``'s gradients: ``affine`` where its payoff
    is risk-neutral (``risk_rho == 1``), else ``tensor``."""
    return "affine" if mech.risk_rho == 1.0 else "tensor"


def agent_groups(groups) -> list[int]:
    """For each agent, in order, the index of its group in ``groups``."""
    owner = [0] * sum(len(g) for g in groups)
    for gi, g in enumerate(groups):
        for j in g:
            owner[j] = gi
    return owner


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
    contractions; the module docstring states how the paths and the weights
    meet.

    The engine is the one description of the game a run solves: the mechanism,
    the discretized prior, the per-agent action grids, and ``groups``, the
    agents that share one strategy (one group per agent when None).  Groups
    must partition the agents, and grouped agents must have the same
    observation grid, marginal and action grids; both are checked here, once.
    By the own-first rule of ``mechanisms`` their gradients match to the bit.
    Also built here, once: which agents' opponents are weighted by their
    highest bid, each agent's observation points of zero mass, each agent's
    view of a component prior (its block's mass scaled by its marginal), and,
    on the affine path, the mechanism's kernels.  Every path returns a
    C-contiguous (K_i, L_i) gradient.  A dense prior's arrays are read where
    the prior holds them; no cache copies them.  The tensor path on a dense
    prior needs its value joint, and an engine for it is refused without
    one.  Each agent without a kernel holds one layout of its A and B, with
    the classes of its merged columns (the merge rule of the module
    docstring), from its first gradient on.  ``memory_budget`` sets
    the chunk size along the value axis of the tensor path; it never changes
    which path runs.  One chunk-sized buffer
    serves every chunk of a call and is filled in place, one value at a
    time, so the budget bounds the bytes of ex-post utilities held per agent
    (one value's worth at least), give or take one value's worth of
    scratch.  When one chunk covers the whole axis, the chunk is kept
    between calls.  ``cache_bytes`` counts every cached array.  The
    payoff picks ``path`` (``gradient_path``).  One engine serves any number
    of runs on the same problem, and its caches live as long as it does: the
    problem's engine keeps them for every run, while the one-shot
    certificate ``verify.relative_utility_loss`` builds its own engines.
    """

    def __init__(self, mech: Mechanism, prior: DiscretePrior, action_grids_per_agent,
                 memory_budget: int = DEFAULT_MEMORY_BUDGET, groups=None):
        self.mech = mech
        self.prior = prior
        self.action_grids = [tuple(g) for g in action_grids_per_agent]
        self.groups = [list(g) for g in groups] if groups is not None \
            else [[i] for i in range(prior.n_agents)]
        _validate_groups(self.groups, prior, self.action_grids)
        self.flat_actions = [flatten_action_grids(g) for g in self.action_grids]
        self.budget = memory_budget
        self._merge_cache: dict[int, tuple] = {}
        self._utility_cache: dict[int, np.ndarray] = {}
        self.path = gradient_path(mech)
        if self.path == "tensor" and prior.obs_joint is not None and prior.value_joint is None:
            raise ValueError("the tensor path needs the dense prior's value joint, and this "
                             "prior holds only its value-weighted joint (Problem.discretize "
                             "builds the value joint only where risk_rho < 1)")
        # agent -> the one bid grid of its opponents, for agents whose
        # opponents' weights are the distribution of their highest bid
        self._top_bids: dict[int, np.ndarray] = {}
        if prior.independent and mech.payoff_via_highest_bid:
            for i in range(prior.n_agents):
                bids = [self.flat_actions[j] for j in range(prior.n_agents) if j != i]
                if all(np.array_equal(x, bids[0]) for x in bids[1:]):
                    self._top_bids[i] = bids[0][:, 0]
        # agent -> the indices of its observation points of zero mass
        self._dead_rows = [np.flatnonzero(~(m > 0)) for m in prior.marginals]
        # agent -> its view of each component (component priors only)
        self._views = {} if prior.components is None else \
            {i: self._component_views(i) for i in range(prior.n_agents)}
        self._kernels = {}
        if self.path == "affine":
            for i in range(prior.n_agents):
                kernel = mech.affine_kernel(i, self.action_grids, self._trailing(i))
                if kernel is not None:
                    self._kernels[i] = kernel

    @property
    def kernel_agents(self) -> list[int]:
        """The agents whose affine gradients a mechanism kernel computes."""
        return sorted(self._kernels)

    def cache_bytes(self) -> int:
        """Bytes held by the kernel, payoff-column, utility and scaled
        block-mass caches."""
        arrays = [x for parts in self._merge_cache.values() for x in parts if x is not None]
        arrays += list(self._utility_cache.values())
        arrays += [own for _, terms in self._views.values() for _, own, _, _ in terms
                   if own is not None]
        return sum(x.nbytes for x in arrays) + sum(k.nbytes for k in self._kernels.values())

    # -- cached pieces ------------------------------------------------------

    def _payoff_columns(self, agent: int):
        """Dense (A, B) of ``agent`` from one action profile: its own actions
        on rows; as columns, the opponents' highest bid, on the grid every one
        of them bids on, where ``_opponent_factors`` weights that: (L_i,
        L_top); else the opponents' action profiles in agent order, the last
        opponent's action fastest: (L_i, L_-i).  Built anew on each call."""
        own = self.flat_actions[agent]
        opponents = [j for j in range(self.prior.n_agents) if j != agent]
        top = self._top_bids.get(agent)
        if top is None:
            at = np.indices([self.flat_actions[j].shape[0] for j in opponents])
            columns = [self.flat_actions[j][k.ravel()] for j, k in zip(opponents, at)]
        else:
            columns = [top[:, None]] * len(opponents)
        # each component as a (1, columns) row, the own ones as (L_i, 1)
        profile = [tuple(x.T[:, None]) for x in columns]
        profile.insert(agent, tuple(own.T[:, :, None]))
        shape = (own.shape[0], columns[0].shape[0])
        return tuple(np.ascontiguousarray(np.broadcast_to(x, shape))
                     for x in self.mech.affine_parts(agent, profile))

    def _merged_parts(self, agent: int):
        """``agent``'s one payoff-column layout, (A, B, classes), built at its
        first call and cached: where its weights reach the columns as rows
        over every opponent's action (the tensor path, or the affine path
        where R covers no opponent), A and B over its distinct payoff columns
        and each column's class.  A class is the columns whose A and B are
        equal, as floats, at every own action.  Where every column is
        distinct, or R covers an opponent on the affine path, A and B as they
        are, in their own order, and no classes (None)."""
        if agent not in self._merge_cache:
            a, b = self._payoff_columns(agent)
            parts = (a, b, None)
            if self.path == "tensor" or not self._trailing(agent):
                # one byte string per column; adding 0.0 makes -0.0 read as 0.0
                key = np.ascontiguousarray(np.concatenate([a, b]).T + 0.0)
                key = key.view(np.dtype((np.void, key.shape[1] * key.itemsize))).ravel()
                _, first, classes = np.unique(key, return_index=True, return_inverse=True)
                if first.size < classes.size:
                    parts = (np.ascontiguousarray(a[:, first]),
                             np.ascontiguousarray(b[:, first]), classes)
            self._merge_cache[agent] = parts
        return self._merge_cache[agent]

    def _merge_weights(self, agent: int, w: np.ndarray) -> np.ndarray:
        """``w``, weights over ``agent``'s payoff columns on its last axis,
        summed over each class of equal columns (``_merged_parts``), one
        ``np.bincount`` per row."""
        classes = self._merged_parts(agent)[2]
        if classes is None:
            return w
        rows = [np.bincount(classes, x) for x in w.reshape(-1, w.shape[-1])]
        return np.stack(rows).reshape(w.shape[:-1] + (-1,))

    def _opponent_weights(self, w, strategies, agent: int) -> np.ndarray:
        """W[m, k_i, l_-i]: dense prior mass ``w`` times the opponents'
        conditional strategies, summed over the opponents' observations.

        ``w`` has one leading axis m (the shared value, or one entry for the
        value-weighted joint or the joint), then one observation axis per
        agent.  The own axis is moved first (a copy for all but agent 0),
        then ``_own_first`` contracts the opponents' axes in agent order.
        """
        opponents = [j for j in range(self.prior.n_agents) if j != agent]
        w = _own_first(np.ascontiguousarray(np.moveaxis(w, 1 + agent, 1)), strategies,
                       opponents, 2)
        return w.reshape(w.shape[:2] + (-1,))

    def _component_views(self, agent: int):
        """``agent``'s view of a component prior, as (trailing, terms).

        ``terms`` hold one (weight, own, mates, others) per component.  ``own``
        is None where the agent is alone in its block with its marginal as
        mass; else it is the block's mass with the agent's axis first, times
        the weight, divided by the agent's marginal (zero rows where that is
        zero), and ``mates`` are the block's other agents.  ``others`` are the
        component's other blocks, as (agents, mass), with mass None for an
        agent alone with its marginal as mass.  ``trailing`` are the last
        opponents in agent order that are alone with their marginal in every
        component, the longest such run; they leave ``others``."""
        marginals = self.prior.marginals
        terms = []
        for c in self.prior.components:
            own, mates, others = None, (), []
            for agents, mass in c.blocks:
                alone = len(agents) == 1 and np.array_equal(mass, marginals[agents[0]])
                if agent not in agents:
                    others.append((agents, None if alone else mass))
                elif not alone:
                    mates = tuple(j for j in agents if j != agent)
                    own = np.ascontiguousarray(np.moveaxis(mass, agents.index(agent), 0)
                                               * c.weight)
                    _divide_rows(own.reshape(own.shape[0], -1), marginals[agent])
            terms.append((c.weight, own, mates, others))
        opps = [j for j in range(self.prior.n_agents) if j != agent]
        t = len(opps)
        while t and all(any(a == (opps[t - 1],) and m is None for a, m in others)
                        for *_, others in terms):
            t -= 1
        trailing = opps[t:]
        # a trailing opponent is alone in every component: a block's first agent decides
        return trailing, [(w, own, mates, [b for b in others if b[0][0] not in trailing])
                          for w, own, mates, others in terms]

    def _trailing(self, agent: int) -> tuple:
        """The opponents R covers: the trailing opponents of ``agent``'s view
        on a component prior, none on a dense one."""
        return tuple(self._views[agent][0]) if agent in self._views else ()

    def _opponent_factors(self, strategies, agent: int):
        """The opponents' weights on a component prior as two factors, (G, R):
        W[k, l_lead, l_trail] = G[k, l_lead] * R[l_trail], over the opponents
        in agent order.  R is the outer product of the trailing opponents'
        action marginals, flattened.  G sums, over the components, the weight
        (where the agent is alone with its marginal) or the scaled own block
        mass contracted with the block-mates' conditionals (``_own_first``),
        times the outer product of the component's other blocks' action
        distributions (their mass contracted the same way, or the action
        marginal of an agent alone with its marginal); it is one row where no
        component has a block-mate, else one row per own observation.  With a
        highest-bid payoff on an independent prior, R is instead the
        distribution of the opponents' highest bid, prod_j F_j - prod_j (F_j -
        pi_j), a running product over their action marginals pi_j and their
        cdfs F_j, over the columns of ``_payoff_columns``, and G is [[1]]."""
        if agent in self._top_bids:
            top = below = 1.0
            for j, s in enumerate(strategies):
                if j != agent:
                    pi = s.matrix.sum(axis=0)
                    cdf = np.cumsum(pi)
                    top = top * cdf
                    below = below * (cdf - pi)
            return np.ones((1, 1)), top - below
        trailing, terms = self._views[agent]
        g = None
        for weight, own, mates, others in terms:
            f = np.full(1, weight) if own is None else _own_first(own, strategies, mates, 1)
            if others:
                f = _outer_in_agent_order([((-1,) + mates, f)] + [
                    (agents, strategies[agents[0]].matrix.sum(axis=0) if mass is None
                     else _own_first(mass, strategies, agents, 0)) for agents, mass in others])
            f = f.reshape(f.shape[0], -1)
            g = f if g is None else g + f
        r = np.ones(())
        for j in trailing:
            r = np.multiply.outer(r, strategies[j].matrix.sum(axis=0))
        return g, r.ravel()

    # -- paths ---------------------------------------------------------------

    def gradient(self, strategies, agent: int) -> np.ndarray:
        if self.path == "affine":
            c = self._gradient_affine(strategies, agent)
        else:
            c = self._gradient_tensor(strategies, agent)
        if not np.all(np.isfinite(c)):
            raise FloatingPointError("non-finite gradient entries")
        return c

    def _gradient_affine(self, strategies, agent: int) -> np.ndarray:
        """c_i from the weighted sums of A and B (``_affine_sums``).

        On a component prior G and R come from ``_opponent_factors``, and
        c_i = o * (G . A_R) + G . B_R; where G is one row this is c_i[k] =
        o_k * (r . A) + r . B, the same row for every own observation.  On a
        dense prior the value-weighted and plain prior mass, each contracted
        with the opponents' conditionals, give Wv and W as rows with R = [1],
        and c_i = (Wv . A + W . B) / marginal."""
        if self.prior.components is not None:
            g, r = self._opponent_factors(strategies, agent)
            ca, cb = self._affine_sums(agent, g, g, r)
            c = self.prior.obs_grids[agent].points[:, None] * ca
        else:
            wv, w = (self._opponent_weights(x[None], strategies, agent)[0]
                     for x in (self.prior.value_weighted, self.prior.obs_joint))
            c, cb = self._affine_sums(agent, wv, w, np.ones(1))
        c += cb
        return self._per_own_mass(c, agent)

    def _affine_sums(self, agent: int, ga: np.ndarray, gb: np.ndarray, r: np.ndarray):
        """(ga . A_R, gb . B_R): the mechanism's kernel where it has one for
        ``agent``, once, or twice where ``gb`` is not ``ga``; else A and B of
        ``_merged_parts`` meet R first where it covers an opponent, one
        mat-vec each over the trailing axes, or the rows are summed over each
        class of equal columns where it covers none (``_merge_weights``),
        then ga and gb one product each."""
        kernel = self._kernels.get(agent)
        if kernel is not None:
            ca, cb = kernel(ga, r)
            return ca, cb if gb is ga else kernel(gb, r)[1]
        a, b, _ = self._merged_parts(agent)
        if self._trailing(agent):
            a, b = ((x.reshape(-1, r.size) @ r).reshape(x.shape[0], -1) for x in (a, b))
            return ga @ a.T, gb @ b.T
        wa = self._merge_weights(agent, ga)
        return wa @ a.T, (wa if gb is ga else self._merge_weights(agent, gb)) @ b.T

    def _gradient_tensor(self, strategies, agent: int) -> np.ndarray:
        """c_i[k, l] sums crra(v*A + B) over ``agent``'s distinct payoff
        columns (``_merged_parts``), weighted by the opponents' weights summed
        over each class of equal columns (``_contract_utilities``): on a
        component prior the rows G x R of ``_weight_rows``, with v the own
        observation; on a dense prior the value joint contracted with the
        opponents' conditionals, with v the shared value."""
        if self.prior.components is not None:
            w, vals = self._weight_rows(strategies, agent), self.prior.obs_grids[agent].points
        else:
            # W[m, k_i, l_-i], with the shared value m as the leading axis
            w = self._merge_weights(agent, self._opponent_weights(self.prior.value_joint,
                                                                  strategies, agent))
            vals = self.prior.value_grid.points
        return self._per_own_mass(self._contract_utilities(agent, w, vals), agent)

    def _per_own_mass(self, c: np.ndarray, agent: int) -> np.ndarray:
        """``c`` with its rows of zero own mass set to zero; on a dense prior,
        whose weights are prior mass rather than conditional on the own
        observation, its other rows divided by the own marginal."""
        if self.prior.components is None:
            return _divide_rows(c, self.prior.marginals[agent])
        dead = self._dead_rows[agent]
        if dead.size:
            c[dead] = 0.0
        return c

    def _weight_rows(self, strategies, agent: int) -> np.ndarray:
        """The weights G x R of ``_opponent_factors`` as (K_i, L_-i) rows, the
        opponents' actions in agent order, summed over the classes of equal
        payoff columns (``_merge_weights``); one row, broadcast, where G is
        one."""
        g, r = self._opponent_factors(strategies, agent)
        w = self._merge_weights(agent, np.multiply.outer(g, r).reshape(g.shape[0], -1))
        return np.broadcast_to(w, (self.prior.obs_grids[agent].count, w.shape[1]))

    def _contract_utilities(self, agent: int, w: np.ndarray, own_vals: np.ndarray) -> np.ndarray:
        """Sum of crra(v*A + B) over ``agent``'s distinct payoff columns
        (``_merged_parts``), weighted by ``w``: (K_i, columns) rows, one per
        own value, or (m, K_i, columns) summed over the shared value m.  The
        ex-post utilities are built in chunks of own values that fit the
        memory budget, one buffer for every chunk of a call, filled in place
        one own value at a time."""
        a, b, _ = self._merged_parts(agent)
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
            if w.ndim == 3:
                c += np.matmul(w[s:e], u[:e - s].transpose(0, 2, 1)).sum(axis=0)
            else:
                c[s:e] = np.matmul(u[:e - s], w[s:e, :, None])[..., 0]
        if fill and chunk == own_vals.size:
            self._utility_cache[agent] = u
        return c
