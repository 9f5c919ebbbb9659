"""Discrete prior distributions over joint valuation/observation grids.

Private values are always weighted product components and a dense joint is
always interdependent.  Every prior gives a grid point the probability of its
nearest-point cell: the cells meet at the midpoints between grid points, and
the end cells reach to the ends of the support.  That is the game evaluation
assumes, since ``Strategy.sample_bids`` sends each continuous draw to its
nearest grid point.  ``meta["construction"]`` names how the cell
probabilities are found.  ``"exact"``: private values, the independent
marginals and the correlated LLG locals, take cdf differences over the cells,
and the common-value model integrates each cell over the shared value.
``"binned"``: the affiliated-values latent model estimates them by counting
Monte-Carlo draws at their nearest grid points.  The two interdependent
models give all agents one shared value on one value grid; their dense
priors hold the mass weighted by that value (``value_weighted``) and, where
asked for, the full value joint it is contracted from.

Each continuous prior model owns what its discretization reads: its
observation supports (``obs_bounds``), the support of the shared value
(``value_bounds``, ``None`` for private values) and, for the binned
affiliated model, the draw count and seed given to its constructor.  So every
model's ``discretize`` takes the grids alone, and ``value_joint=False``
when the caller reads the value-weighted joint alone: the interdependent
models then never build the value joint, and private values hold none
either way.

The independent marginals draw one way: each defines its ``cdf`` and its
inverse ``ppf``, and ``sample`` is ``ppf`` of ``rng.random`` uniforms.  The
uniform's ``ppf`` is ``rng.uniform``'s arithmetic, so its draws are
``rng.uniform``'s to the bit.  The custom density inverts its tabulated cdf,
and the truncated Gaussian a table of its exact tail, at ``CDF_TABLE_SIZE``
points: its draws lie within 1e-8 of the exact inverse cdf's on the tested
intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid

DEFAULT_SAMPLE_COUNT = 1_000_000
MIN_SAMPLE_COUNT = 100_000
_BIN_CHUNK = 1 << 16
CDF_TABLE_SIZE = 8193  # points of a custom density's cdf table and a Gaussian's tail table
GAUSS_NODES = 16  # Gauss-Legendre nodes per smooth piece of the common-value integral


@dataclass(frozen=True)
class Component:
    """One weighted product term of a prior's mass over the observation grids.

    ``blocks`` partition the agents: each is an ``(agents, mass)`` pair, with
    ``agents`` ascending and ``mass`` a probability array with one axis per
    agent of the block, in that order.  The term's mass at a cell is
    ``weight`` times the product of its blocks' masses there.
    """

    weight: float
    blocks: tuple


@dataclass
class DiscretePrior:
    """Probability mass over the joint discrete valuation x observation space.

    The mass over the product of observation grids is held one of two ways.
    ``components`` hold it as a weighted sum of products of blocks
    (``Component``); ``obs_joint`` holds it as one dense array.  Exactly one
    of the two is set.  Private values (each agent's value is its
    observation) are always components: independent ones are one component
    with every block a single agent, whose mass is then its marginal
    (``independent``); a prior built with neither gets that component, the
    marginals themselves as its blocks.  The correlated LLG locals are two
    components.

    A dense prior is always interdependent: all agents share one value on
    ``value_grid``.  It always holds ``value_weighted``, the observation-space
    mass weighted by the shared value, which is all the affine gradient path
    reads of the value.  ``value_joint``, the mass over (shared value) x (all
    observations), is held where the tensor path needs it: for a risk-neutral
    game ``Problem.discretize`` asks the model not to build it.
    ``value_weighted`` always follows one rule, ``_value_weighted``: the sum
    of ``v_m * value_joint[m]`` in value order, so a prior built without its
    value joint holds the same bits as one built with it.  Where the value
    joint is held it sums back to ``obs_joint`` and weights back to
    ``value_weighted``, which that rule fills when it is not given.  A dense
    prior with neither is refused.  ``nbytes`` counts every mass array the
    prior holds.
    """

    obs_grids: tuple[Grid, ...]
    marginals: tuple[np.ndarray, ...]
    obs_joint: np.ndarray | None
    value_grid: Grid | None = None
    value_joint: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    components: tuple[Component, ...] | None = None
    value_weighted: np.ndarray | None = None

    def __post_init__(self):
        if self.obs_joint is None and self.components is None:
            self.components = (Component(1.0, tuple(((i,), m)
                                                    for i, m in enumerate(self.marginals))),)
        if self.value_weighted is None and self.value_joint is not None and \
                self._value_joint_fits():
            self.value_weighted = _value_weighted(self.value_grid.points, self.value_joint)
        self.validate()

    def _value_joint_fits(self) -> bool:
        """Whether the value joint has a value grid and an obs_joint to match
        its shape, so that contracting its value axis can be tried."""
        return self.value_grid is not None and self.obs_joint is not None and \
            self.value_joint.shape == (self.value_grid.count,) + self.obs_joint.shape

    @property
    def n_agents(self) -> int:
        return len(self.obs_grids)

    @property
    def independent(self) -> bool:
        return self.components is not None and len(self.components) == 1 and \
            all(len(agents) == 1 for agents, _ in self.components[0].blocks)

    @property
    def value_joints(self):
        # read by perfbench/spans.py: drop this when perfbench is next edited
        return None if self.value_joint is None else (self.value_joint,)

    @property
    def nbytes(self) -> int:
        """Bytes of every mass array the prior holds, each counted once (an
        independent prior's blocks are its marginals); the grids belong to the
        problem and are not counted."""
        arrays = [*self.marginals, self.obs_joint, self.value_joint, self.value_weighted]
        arrays += [mass for c in self.components or () for _, mass in c.blocks]
        held = {id(a): a for a in arrays if a is not None}
        return sum(a.nbytes for a in held.values())

    def validate(self):
        n = len(self.obs_grids)
        if len(self.marginals) != n:
            raise ValueError("marginals must have one entry per agent")
        for g, m in zip(self.obs_grids, self.marginals):
            if m.shape != (g.count,):
                raise ValueError("marginal length must match observation grid")
            if not (np.all(m >= 0) and abs(m.sum() - 1.0) <= 1e-12):
                raise ValueError("marginals must be probability vectors (sum 1 within 1e-12)")
        if (self.obs_joint is None) == (self.components is None):
            raise ValueError("a prior holds either obs_joint or components, not both")
        if self.obs_joint is not None:
            if self.value_weighted is None and self.value_joint is None:
                raise ValueError("a dense obs_joint needs a value joint or its value-weighted "
                                 "joint: private values are held as components")
            if self.obs_joint.shape != tuple(g.count for g in self.obs_grids):
                raise ValueError("obs_joint shape must match observation grids")
            # each bound is written ``not (x <= tol)``, so that NaN mass fails it
            if not abs(self.obs_joint.sum() - 1.0) <= 1e-10 or np.any(self.obs_joint < 0):
                raise ValueError("obs_joint must be a probability mass (finite, sum 1 within "
                                 "1e-10)")
            for i in range(n):
                axes = tuple(a for a in range(n) if a != i)
                marg = self.obs_joint.sum(axis=axes)
                if not np.max(np.abs(marg - self.marginals[i])) <= 1e-8:
                    raise ValueError(f"obs_joint does not marginalize to agent {i}'s marginal")
        else:
            self._validate_components()
        if self.value_joint is not None and not self._value_joint_fits():
            raise ValueError("value joint needs a value grid and obs_joint of its shape")
        if self.value_weighted is not None:
            if self.obs_joint is None or self.value_weighted.shape != self.obs_joint.shape:
                raise ValueError("value-weighted joint needs an obs_joint of its shape")
            if not np.isfinite(self.value_weighted).all():
                raise ValueError("value_weighted holds a NaN or infinite entry")
        if self.value_joint is not None:
            # the plain and the value-weighted sums in one pass over the value joint
            ones_and_values = np.stack([np.ones(self.value_grid.count), self.value_grid.points])
            total, weighted = np.tensordot(ones_and_values, self.value_joint, axes=(1, 0))
            if not np.max(np.abs(total - self.obs_joint)) <= 1e-10:
                raise ValueError("value_joint does not sum back to obs_joint (or holds a NaN)")
            if self.value_weighted is None or \
                    not np.max(np.abs(weighted - self.value_weighted)) <= 1e-10:
                raise ValueError("value_joint does not weight back to the value-weighted joint")

    def _validate_components(self):
        """Positive weights summing to one; blocks that partition the agents,
        each a probability mass over its agents' grids; and the weighted
        block marginals summing to each agent's marginal."""
        n = len(self.obs_grids)
        if any(not c.weight > 0 for c in self.components) or \
                abs(sum(c.weight for c in self.components) - 1.0) > 1e-12:
            raise ValueError("component weights must be positive and sum to 1 within 1e-12")
        marginals = [np.zeros_like(m) for m in self.marginals]
        for c in self.components:
            if sorted(a for agents, _ in c.blocks for a in agents) != list(range(n)):
                raise ValueError("a component's blocks must partition the agents")
            for agents, mass in c.blocks:
                if list(agents) != sorted(agents) or \
                        mass.shape != tuple(self.obs_grids[a].count for a in agents):
                    raise ValueError("block mass shape must match its agents' grids, "
                                     "in ascending agent order")
                if np.any(mass < 0) or not abs(mass.sum() - 1.0) <= 1e-12:
                    raise ValueError("block masses must be probability masses "
                                     "(finite, sum 1 within 1e-12)")
                for pos, a in enumerate(agents):
                    rest = tuple(x for x in range(len(agents)) if x != pos)
                    marginals[a] += c.weight * mass.sum(axis=rest)
        for i in range(n):
            if not np.max(np.abs(marginals[i] - self.marginals[i])) <= 1e-8:
                raise ValueError(f"components do not marginalize to agent {i}'s marginal")


def _weigh_by_value(value_weighted, v, mass):
    """Add value ``v``'s cell ``mass`` to ``value_weighted`` in place.

    The one rule for a prior's value-weighted joint: ``v_m * joint[m]`` added
    to zeros value cell by value cell, in value order.  A model that never
    builds the value joint adds each cell as it computes it, and so gets the
    bits of ``_value_weighted`` over the full joint.
    """
    value_weighted += v * mass


def _value_weighted(points, value_joint):
    """The value-weighted joint of a value joint, by ``_weigh_by_value``."""
    value_weighted = np.zeros(value_joint.shape[1:])
    for v, mass in zip(points, value_joint):
        _weigh_by_value(value_weighted, v, mass)
    return value_weighted


def draw_chunks(sample, rng, count: int, chunk: int):
    """``count`` draws of ``sample(rng, m)`` in chunks of at most ``chunk``.

    Yields ``(m, values, observations)`` per chunk.  A chunk is drawn when it
    is asked for, so a caller that draws from ``rng`` itself between chunks
    interleaves its draws with the chunks' in that order.
    """
    done = 0
    while done < count:
        m = min(chunk, count - done)
        values, obs = sample(rng, m)
        yield m, values, obs
        done += m


def _bin_counts(latent_sampler, value_grid, obs_grids, sample_count, seed):
    """Count latent draws per (value x observations) grid cell, chunked for memory.

    Draws that are NaN or infinite are refused, and so are value columns that
    differ: the value is binned once, on ``value_grid``.

    Chunks' flat cell indices are held until they number at least the table
    size, then binned in one ``bincount``, so a table larger than a chunk is
    not allocated once per chunk; the indices held stay below the table size
    plus one chunk.  Counts are integers, so the result does not depend on
    how the draws are grouped.
    """
    n = len(obs_grids)
    obs_shape = tuple(g.count for g in obs_grids)
    obs_size = int(np.prod(obs_shape))
    counts = np.zeros(value_grid.count * obs_size)
    held = np.empty(min(sample_count, counts.size + _BIN_CHUNK), dtype=np.intp)
    n_held = 0
    rng = np.random.default_rng(seed)
    for m, values, obs in draw_chunks(latent_sampler, rng, sample_count, _BIN_CHUNK):
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        if obs.shape != (m, n) or values.shape != (m, n):
            raise ValueError("sampler must return (values, observations) of shape (size, n)")
        if not (np.isfinite(obs).all() and np.isfinite(values).all()):
            raise ValueError("sampler returned a draw that is NaN or infinite")
        if np.any(values[:, 1:] != values[:, :1]):
            raise ValueError("a prior with a value grid needs one value shared by all "
                             "agents; the sampler's value columns differ")
        flat = np.ravel_multi_index([obs_grids[i].nearest_index(obs[:, i]) for i in range(n)],
                                    obs_shape)
        flat += value_grid.nearest_index(values[:, 0]) * obs_size
        held[n_held:n_held + m] = flat
        n_held += m
        if n_held >= counts.size:
            counts += np.bincount(held[:n_held], minlength=counts.size)
            n_held = 0
    if n_held:
        counts += np.bincount(held[:n_held], minlength=counts.size)
    return counts.reshape((value_grid.count,) + obs_shape)


def _group_permutations(groups, n: int):
    """All agent permutations acting within the declared symmetric groups."""
    from itertools import permutations, product

    fixed = [g for g in groups if len(g) > 1]
    perms = [tuple(range(n))]
    if fixed:
        combos = product(*[permutations(g) for g in fixed])
        perms = []
        for combo in combos:
            sigma = list(range(n))
            for g, pg in zip(fixed, combo):
                for src, dst in zip(g, pg):
                    sigma[src] = dst
            perms.append(tuple(sigma))
    return perms


def _symmetrize(obs_joint, value_joint, groups):
    """Average joints over within-group agent permutations.

    The latent models are exchangeable within the declared groups; averaging
    the binned counts over the group action makes the discrete prior exactly
    exchangeable too (so grouped agents share identical marginals) and
    reduces Monte-Carlo noise.  The value joint's leading value axis stays.
    """
    perms = _group_permutations(groups, obs_joint.ndim)
    if len(perms) == 1:
        return obs_joint, value_joint

    def average(joint, lead):
        acc = np.zeros_like(joint)
        for sigma in perms:
            acc += joint.transpose(tuple(range(lead)) + tuple(lead + a for a in sigma))
        acc /= len(perms)
        return acc

    return average(obs_joint, 0), average(value_joint, 1)


def joint_from_latent(sampler, value_grid, obs_grids, sample_count: int = DEFAULT_SAMPLE_COUNT,
                      seed: int = 0, *, symmetry_groups=None, meta: dict | None = None,
                      value_joint: bool = True) -> DiscretePrior:
    """Empirical discrete prior from a latent-variable sampler.

    ``sampler(rng, size)`` must return ``(values, observations)`` arrays of
    shape ``(size, n)``; draws are clamped to the grid bounds and binned to
    the nearest point on every axis.  ``value_grid`` bins the one value all
    agents share (the value columns must be equal): a binned prior is always
    interdependent.  Each cell's share of the draws estimates the probability
    of its nearest-point cell, the mass the exact priors give a grid point.
    Marginals are recomputed from the binned joint so marginal consistency
    holds exactly.  A ``sample_count`` below ``MIN_SAMPLE_COUNT`` and an
    observation point with zero empirical mass are errors.  ``meta`` records
    the construction (``"binned"``), the sample count, the seed and the number
    of empty ``obs_joint`` cells (cells off the support of a singular joint
    may be empty; the marginals may not).  The value-weighted joint is taken
    from the binned value joint, which the prior then holds only with
    ``value_joint``.
    """
    if value_grid is None:
        raise ValueError("a binned prior needs a value grid for the shared value")
    if sample_count < MIN_SAMPLE_COUNT:
        raise ValueError(f"sample_count below {MIN_SAMPLE_COUNT}: the binned prior would be "
                         "too noisy")
    obs_grids = tuple(obs_grids)
    # normalized in place, no second copy
    counts = _bin_counts(sampler, value_grid, obs_grids, int(sample_count), seed)
    n = len(obs_grids)
    obs_joint = counts.sum(axis=0)
    total = float(obs_joint.sum())
    obs_joint /= total
    counts /= total
    if symmetry_groups:
        obs_joint, counts = _symmetrize(obs_joint, counts, symmetry_groups)
    value_weighted = _value_weighted(value_grid.points, counts)
    if not value_joint:
        counts = None
    marginals = []
    for i in range(n):
        axes = tuple(a for a in range(n) if a != i)
        m = obs_joint.sum(axis=axes)
        m /= m.sum()
        if np.any(m == 0):
            raise ValueError(f"agent {i} has observation grid points with zero empirical mass; "
                             "use a coarser grid or more samples")
        marginals.append(m)
    if symmetry_groups:
        # grouped agents share one strategy whose rows sum to one marginal:
        # make their (already symmetrized) marginals bitwise identical
        for g in symmetry_groups:
            for j in g[1:]:
                marginals[j] = marginals[g[0]]
    info = {"construction": "binned", "sample_count": int(sample_count), "seed": int(seed),
            "empty_cells": int(np.count_nonzero(obs_joint == 0))}
    info.update(meta or {})
    return DiscretePrior(obs_grids, tuple(marginals), obs_joint, value_grid=value_grid,
                         value_joint=counts, meta=info, value_weighted=value_weighted)


# ---------------------------------------------------------------------------
# Continuous prior models: each couples a latent/continuous sampler (used for
# evaluation in the continuous game) with its discretization recipe.
# ---------------------------------------------------------------------------

# the probability that a standard normal exceeds t, elementwise, from
# math.erfc: the truncated Gaussian's exact cdf and its tabulated inverse
# (within 1e-8 of the exact one on the tested intervals) both read it, so
# neither discretizing nor drawing imports anything beyond numpy and math
_upper_tail = np.vectorize(lambda t: 0.5 * math.erfc(t / math.sqrt(2.0)), otypes=[float])


class _InverseCdfSampling:
    """The one draw rule of the marginals: each defines its ``cdf`` and its
    inverse ``ppf``, and a draw is ``ppf`` of a uniform from ``rng.random``."""

    def sample(self, rng, size):
        return self.ppf(rng.random(size))


@dataclass(frozen=True)
class UniformMarginal(_InverseCdfSampling):
    lower: float
    upper: float

    def cdf(self, x):
        return (np.asarray(x, dtype=np.float64) - self.lower) / (self.upper - self.lower)

    def ppf(self, u):
        # the arithmetic of rng.uniform, so its draws are rng.uniform's to the bit
        return self.lower + (self.upper - self.lower) * u


@dataclass(frozen=True)
class TruncatedGaussianMarginal(_InverseCdfSampling):
    """A Gaussian truncated to [lower, upper].

    ``cdf`` is exact, from ``math.erfc``.  It is read from the tail on the
    interval's side of the mean (``s`` mirrors the axis when that is the lower
    tail), so an interval far out in a tail keeps its digits; one with no mass
    in double precision is refused.  ``ppf`` inverts the same tail, tabulated
    once at ``CDF_TABLE_SIZE`` equidistant points, by linear interpolation in
    its logarithm, which is close to linear in x even far out in a tail: it
    lies within 1e-8 of the exact inverse on the intervals of the tests,
    tail intervals included.
    """

    mu: float
    sigma: float
    lower: float
    upper: float
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.linspace(self.lower, self.upper, CDF_TABLE_SIZE)
        s, _, _ = self._tail()
        # clipped at the least subnormal, so a tail that underflows far out
        # keeps a finite, nondecreasing key
        tail = np.maximum(_upper_tail(s * (x - self.mu) / self.sigma),
                          np.finfo(np.float64).smallest_subnormal)
        object.__setattr__(self, "_table", (-s * np.log(tail), x))

    def _tail(self):
        """``(s, top, mass)``: the side ``s`` of the interval's tail, the tail
        beyond its near end and its mass, refused where that mass is zero."""
        a, b = ((v - self.mu) / self.sigma for v in (self.lower, self.upper))
        s = 1.0 if a + b > 0 else -1.0
        top = _upper_tail(s * a)
        mass = s * (top - _upper_tail(s * b))
        if not mass > 0:
            raise ValueError(f"truncated Gaussian has no mass on [{self.lower}, {self.upper}]")
        return s, top, mass

    def cdf(self, x):
        """Phi normalized over [lower, upper], by the tail of ``_tail``."""
        s, top, mass = self._tail()
        z = (np.asarray(x, dtype=np.float64) - self.mu) / self.sigma
        return s * (top - _upper_tail(s * z)) / mass

    def ppf(self, u):
        s, top, mass = self._tail()
        with np.errstate(divide="ignore"):  # a far tail that underflows reads log 0 at u = 1
            return np.interp(-s * np.log(top - s * mass * u), *self._table)


@dataclass(frozen=True)
class CustomDensityMarginal(_InverseCdfSampling):
    """Marginal given by an arbitrary nonnegative density on a bounded interval.

    Its cdf is the trapezoid rule over ``CDF_TABLE_SIZE`` equidistant points,
    tabulated once: ``cdf`` interpolates the table and ``ppf`` inverts it.
    A density that is negative or not finite at a table point, or that
    integrates to zero, is refused.
    """

    fn: object
    lower: float
    upper: float
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.linspace(self.lower, self.upper, CDF_TABLE_SIZE)
        pdf = np.broadcast_to(np.asarray(self.fn(x), dtype=np.float64), x.shape)
        if not np.all(np.isfinite(pdf)) or np.any(pdf < 0):
            raise ValueError("custom density must be finite and nonnegative on its interval")
        cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(x))])
        if not 0 < cdf[-1] < np.inf:
            raise ValueError("custom density must integrate to a finite positive mass")
        object.__setattr__(self, "_table", (x, cdf / cdf[-1]))

    def cdf(self, x):
        return np.interp(x, *self._table)

    def ppf(self, u):
        x, cdf = self._table
        return np.interp(u, cdf, x)


def _cell_edges(grid: Grid, lower: float, upper: float):
    """Lower and upper edges of the grid points' nearest-point cells within
    [lower, upper]: the cells meet at the midpoints, and the end cells reach
    to the interval's ends (values beyond the grid's ends bin to its ends)."""
    edges = np.concatenate(([lower], np.clip(grid.midpoints, lower, upper), [upper]))
    return edges[:-1], edges[1:]


def _cell_masses(grid: Grid, marginal) -> np.ndarray:
    """Each grid point's probability under ``marginal``: the increase of its
    cdf over the point's nearest-point cell.  The masses telescope to one."""
    lo, hi = _cell_edges(grid, marginal.lower, marginal.upper)
    return marginal.cdf(hi) - marginal.cdf(lo)


class IndependentPrivatePrior:
    """Independent private values: each agent observes its own valuation."""

    kind = "independent"
    value_bounds = None

    def __init__(self, marginal_specs):
        self.marginal_specs = tuple(marginal_specs)
        self.n_agents = len(self.marginal_specs)
        self.obs_bounds = tuple((s.lower, s.upper) for s in self.marginal_specs)

    def symmetry_groups(self):
        groups: dict = {}
        for i, spec in enumerate(self.marginal_specs):
            groups.setdefault(spec, []).append(i)
        return list(groups.values())

    def sample(self, rng, size):
        obs = np.column_stack([s.sample(rng, size) for s in self.marginal_specs])
        return obs, obs

    def discretize(self, obs_grids, value_grid=None, *, value_joint: bool = True
                   ) -> DiscretePrior:
        marginals = tuple(_cell_masses(g, s) for g, s in zip(obs_grids, self.marginal_specs))
        return DiscretePrior(tuple(obs_grids), marginals, None,
                             meta={"kind": self.kind, "construction": "exact"})


class CommonValuePrior:
    """One hidden value shared by all agents, observed through noisy signals.

    With latent uniform draws ``w`` on the unit cube, the shared value is the
    last coordinate and agent i observes ``2 * w_i * value``: given the value
    v, the signals are independent and uniform on [0, 2v].

    The discretized prior is exact.  A signal falls in the nearest-point cell
    [a, b] with probability ``f(v) = (min(b, 2v) - min(a, 2v)) / (2v)``, so
    the cell (value cell m, signal cells k_1..k_n) gets ``int_m prod_i
    f_{k_i}(v) dv``.  Split at the value cells' edges and at half the signal
    cells' edges, the value axis falls into pieces on which each ``f`` is
    smooth and the integrand's one pole, v = 0, lies outside the piece;
    ``GAUSS_NODES``-point Gauss-Legendre on every piece then integrates each
    cell to rounding.  A value cell's mass is one matrix product of its
    nodes' weighted rank-one terms; each cell then takes the mass computed
    for its signal cells in ascending order, so the joint is exchangeable to
    the bit, as a stored run's certificate needs to replay on every agent.
    Each value cell's mass is added to ``obs_joint`` and, weighted by its
    value, to ``value_weighted`` as soon as it is computed.  With
    ``value_joint=False`` it is computed into one reused scratch array, so
    the (value x observations) array is never allocated; the two joints kept
    are the same to the bit either way.
    """

    kind = "common_value"
    value_bounds = (0.0, 1.0)

    def __init__(self, n_agents: int = 3):
        self.n_agents = n_agents
        self.obs_bounds = tuple((0.0, 2.0) for _ in range(n_agents))

    def symmetry_groups(self):
        return [list(range(self.n_agents))]

    def sample(self, rng, size):
        w = rng.random((size, self.n_agents + 1))
        value = w[:, self.n_agents]
        obs = 2.0 * w[:, : self.n_agents] * value[:, None]
        values = np.repeat(value[:, None], self.n_agents, axis=1)
        return values, obs

    def discretize(self, obs_grids, value_grid=None, *, value_joint: bool = True
                   ) -> DiscretePrior:
        # imported here: numpy.polynomial is not loaded with numpy itself
        from numpy.polynomial.legendre import leggauss

        if value_grid is None:
            raise ValueError("the common-value prior needs a value grid for the shared value")
        obs_grids = tuple(obs_grids)
        grid, n = obs_grids[0], len(obs_grids)
        if any(g != grid for g in obs_grids):
            raise ValueError("the common-value prior's agents are exchangeable: they need "
                             "one observation grid")
        a, b = _cell_edges(grid, *self.obs_bounds[0])
        value_lo, value_hi = _cell_edges(value_grid, *self.value_bounds)
        breaks = np.sort(np.concatenate([value_lo, value_hi[-1:], a / 2, b[-1:] / 2]))
        lo, hi = breaks[:-1], breaks[1:]
        lo, hi = lo[hi > lo], hi[hi > lo]
        x, w = leggauss(GAUSS_NODES)
        half = (hi - lo)[:, None] / 2
        two_v = ((lo + hi)[:, None] + 2 * half * x).ravel()[:, None]
        weights = (half * w).ravel()
        cell_prob = (np.minimum(b, two_v) - np.minimum(a, two_v)) / two_v
        marginal = weights @ cell_prob
        if np.any(marginal == 0):
            raise ValueError("the common-value prior has observation grid points whose "
                             "cells miss the support of the signals")
        # each value cell's nodes are one run of rows: its pieces lie within it
        cell_of_piece = np.searchsorted(value_hi[:-1], (lo + hi) / 2)
        rows = np.searchsorted(cell_of_piece, np.arange(value_grid.count + 1)) * GAUSS_NODES
        obs_shape = (grid.count,) * n
        # grid indices in the smallest int type that holds them: the sort's copy is small
        index = np.indices(obs_shape, dtype=np.min_scalar_type(grid.count)).reshape(n, -1)
        canonical = np.ravel_multi_index(np.sort(index, axis=0), obs_shape)
        del index
        joint = np.empty((value_grid.count,) + obs_shape) if value_joint else None
        scratch = None if value_joint else np.empty(obs_shape)
        obs_joint, value_weighted = np.zeros(obs_shape), np.zeros(obs_shape)
        computed = np.empty((grid.count, grid.count ** (n - 1)))
        for m, v in enumerate(value_grid.points):
            f = cell_prob[rows[m]:rows[m + 1]]
            others = f
            for _ in range(n - 2):
                others = (others[:, :, None] * f[:, None, :]).reshape(len(f), -1)
            np.matmul((weights[rows[m]:rows[m + 1], None] * f).T, others, out=computed)
            cell = scratch if joint is None else joint[m]
            np.take(computed.ravel(), canonical, out=cell.ravel())
            obs_joint += cell
            _weigh_by_value(value_weighted, v, cell)
        meta = {"kind": self.kind, "construction": "exact",
                "empty_cells": int(np.count_nonzero(obs_joint == 0))}
        return DiscretePrior(obs_grids, (marginal,) * n, obs_joint, value_grid=value_grid,
                             value_joint=joint, meta=meta, value_weighted=value_weighted)


class AffiliatedValuesPrior:
    """Two bidders with positively correlated signals and a shared value.

    Observations are ``w_i + w_3`` for independent uniform ``w``; the common
    value is the average of the individual components plus the shared one.
    It is binned from ``sample_count`` draws seeded with ``seed``.
    """

    kind = "affiliated"
    value_bounds = (0.0, 2.0)

    def __init__(self, *, sample_count: int = DEFAULT_SAMPLE_COUNT, seed: int = 0):
        self.n_agents = 2
        self.obs_bounds = ((0.0, 2.0), (0.0, 2.0))
        self.sample_count = sample_count
        self.seed = seed

    def symmetry_groups(self):
        return [[0, 1]]

    def sample(self, rng, size):
        w = rng.random((size, 3))
        obs = np.column_stack([w[:, 0] + w[:, 2], w[:, 1] + w[:, 2]])
        value = 0.5 * (w[:, 0] + w[:, 1]) + w[:, 2]
        return np.repeat(value[:, None], 2, axis=1), obs

    def discretize(self, obs_grids, value_grid=None, *, value_joint: bool = True
                   ) -> DiscretePrior:
        return joint_from_latent(self.sample, value_grid, obs_grids, self.sample_count,
                                 self.seed, symmetry_groups=self.symmetry_groups(),
                                 meta={"kind": self.kind}, value_joint=value_joint)


class BernoulliWeightsLLGPrior:
    """Correlated local-bidder values for the two-local/one-global model.

    With probability ``gamma`` both locals share the common component (their
    values coincide), otherwise they draw independent uniforms; the global
    bidder's value is an independent uniform on [0, 2].  Private values.

    The discretized prior is exact: each grid point gets the probability of
    its nearest-point cell under its uniform marginal, so the joint is
    ``(1-gamma) * m1 x m2 x m3 + gamma * M12 x m3``, where ``m`` are the cell
    masses and ``M12[k1, k2]`` is the probability of the intersection of the
    two locals' cells (``diag(m)`` when they share one grid).  It is held as
    these two components.
    """

    kind = "bernoulli_llg"
    value_bounds = None

    def __init__(self, gamma: float):
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
        self.gamma = float(gamma)
        self.n_agents = 3
        self.obs_bounds = ((0.0, 1.0), (0.0, 1.0), (0.0, 2.0))

    def symmetry_groups(self):
        return [[0, 1], [2]]

    def sample(self, rng, size):
        w = rng.random((size, 5))
        shared = w[:, 4] < self.gamma
        v1 = np.where(shared, w[:, 3], w[:, 0])
        v2 = np.where(shared, w[:, 3], w[:, 1])
        v3 = 2.0 * w[:, 2]
        values = np.column_stack([v1, v2, v3])
        return values, values

    def discretize(self, obs_grids, value_grid=None, *, value_joint: bool = True
                   ) -> DiscretePrior:
        obs_grids = tuple(obs_grids)
        specs = [UniformMarginal(lo, hi) for lo, hi in self.obs_bounds]
        marginals = tuple(_cell_masses(g, s) for g, s in zip(obs_grids, specs))
        for i, m in enumerate(marginals):
            if np.any(m == 0):
                raise ValueError(f"agent {i} has observation grid points whose cells miss "
                                 "the support of its value")
        (lo1, hi1), (lo2, hi2) = (_cell_edges(g, s.lower, s.upper)
                                  for g, s in zip(obs_grids, specs[:2]))
        shared = np.clip(specs[0].cdf(np.minimum.outer(hi1, hi2))
                         - specs[0].cdf(np.maximum.outer(lo1, lo2)), 0.0, None)
        components = []
        if self.gamma < 1.0:
            components.append(Component(1.0 - self.gamma, tuple(((i,), m) for i, m in
                                                                enumerate(marginals))))
        if self.gamma > 0.0:
            components.append(Component(self.gamma, (((0, 1), shared), ((2,), marginals[2]))))
        empty = 0 if self.gamma < 1.0 else np.count_nonzero(shared == 0) * obs_grids[2].count
        meta = {"kind": self.kind, "gamma": self.gamma, "construction": "exact",
                "empty_cells": int(empty)}
        return DiscretePrior(obs_grids, marginals, None, meta=meta,
                             components=tuple(components))
