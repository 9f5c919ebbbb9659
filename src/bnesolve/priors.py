"""Discrete prior distributions over joint valuation/observation grids.

Independent private-value priors are discretized by evaluating the marginal
density on the grid and normalizing.  Latent-variable priors (common value,
affiliated values, correlated local bidders) have no closed-form density on
the grid and are discretized by binning Monte-Carlo draws from the latent
model to the nearest grid points.  The interdependent models (common and
affiliated values) give all agents one shared value: one value grid, one joint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, discretize_density

DEFAULT_SAMPLE_COUNT = 1_000_000
MIN_SAMPLE_COUNT = 100_000
_BIN_CHUNK = 1 << 20
CDF_TABLE_SIZE = 8193  # points of the tabulated cdf a custom density samples from


@dataclass
class DiscretePrior:
    """Probability mass over the joint discrete valuation x observation space.

    ``obs_joint`` holds the mass over the product of observation grids.  It
    is ``None`` for independent priors, and only for them: their mass is the
    product of ``marginals``, so ``independent`` is ``obs_joint is None``.
    Interdependent priors share one value among all agents: ``value_joint``
    holds the mass over (shared value on ``value_grid``) x (all
    observations), and summing out the value axis reproduces ``obs_joint``
    exactly.  Both are ``None`` for private values, where each agent's value
    is its observation.
    """

    obs_grids: tuple[Grid, ...]
    marginals: tuple[np.ndarray, ...]
    obs_joint: np.ndarray | None
    value_grid: Grid | None = None
    value_joint: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    @property
    def n_agents(self) -> int:
        return len(self.obs_grids)

    @property
    def independent(self) -> bool:
        return self.obs_joint is None

    @property
    def values_equal_observations(self) -> bool:
        return self.value_joint is None

    @property
    def value_joints(self):
        # read by perfbench/spans.py: drop this when perfbench is next edited
        return None if self.value_joint is None else (self.value_joint,)

    def validate(self):
        n = len(self.obs_grids)
        if len(self.marginals) != n:
            raise ValueError("marginals must have one entry per agent")
        for g, m in zip(self.obs_grids, self.marginals):
            if m.shape != (g.count,):
                raise ValueError("marginal length must match observation grid")
            if np.any(m < 0) or abs(m.sum() - 1.0) > 1e-12:
                raise ValueError("marginals must be probability vectors (sum 1 within 1e-12)")
        if self.obs_joint is not None:
            if self.obs_joint.shape != tuple(g.count for g in self.obs_grids):
                raise ValueError("obs_joint shape must match observation grids")
            if abs(self.obs_joint.sum() - 1.0) > 1e-10 or np.any(self.obs_joint < 0):
                raise ValueError("obs_joint must be a probability mass (sum 1 within 1e-10)")
            for i in range(n):
                axes = tuple(a for a in range(n) if a != i)
                marg = self.obs_joint.sum(axis=axes)
                if np.max(np.abs(marg - self.marginals[i])) > 1e-8:
                    raise ValueError(f"obs_joint does not marginalize to agent {i}'s marginal")
        if self.value_joint is not None:
            if self.value_grid is None or self.obs_joint is None or \
                    self.value_joint.shape != (self.value_grid.count,) + self.obs_joint.shape:
                raise ValueError("value joint needs a value grid and obs_joint of its shape")
            if np.max(np.abs(self.value_joint.sum(axis=0) - self.obs_joint)) > 1e-10:
                raise ValueError("value joint does not sum back to obs_joint")

    def value_weighted_joint(self) -> np.ndarray:
        """Observation-space mass weighted by the shared value (interdependent
        priors): ``sum_m v_m * J[m, k]``, the same for every agent.  Exact
        contraction of the value axis for utilities affine in the value.
        """
        if self.value_joint is None:
            raise ValueError("value-weighted joint needs an interdependent prior")
        return np.tensordot(self.value_grid.points, self.value_joint, axes=(0, 0))


def _bin_counts(latent_sampler, value_grid, obs_grids, sample_count, seed,
                density_correction):
    """Accumulate bin weights of latent draws, chunked for memory.

    Draws that are NaN or infinite are refused.  With a ``value_grid``, the
    draws' shared value is binned too, into one (value x observations) array;
    value columns that differ are refused.

    With ``density_correction``, draws are weighted by the inverse cell width
    on every observation axis (boundary points own half a cell on an
    equidistant grid), so the binned mass estimates density-at-the-point
    times a uniform cell volume and agrees with the density-evaluation
    recipe.  Disable it for latent models whose joint is singular (mass on
    lower-dimensional sets), where a volume correction over-weights boundary
    atoms.  The weight is a power of two fixed by the cell, so it scales the
    cell's count once, after binning, with the same result as weighting
    every draw.

    Chunks' flat cell indices are held until they number at least the table
    size, then binned in one ``bincount``, so a table larger than a chunk is
    not allocated once per chunk; the indices held stay below the table size
    plus one chunk.  Counts are integers, so the result does not depend on
    how the draws are grouped.
    """
    n = len(obs_grids)
    obs_shape = tuple(g.count for g in obs_grids)
    obs_size = int(np.prod(obs_shape))
    lead = () if value_grid is None else (value_grid.count,)
    counts = np.zeros(int(np.prod(lead)) * obs_size)
    held = np.empty(min(sample_count, counts.size + _BIN_CHUNK), dtype=np.intp)
    n_held = 0
    rng = np.random.default_rng(seed)
    done = 0
    while done < sample_count:
        m = min(_BIN_CHUNK, sample_count - done)
        values, obs = latent_sampler(rng, m)
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        if obs.shape != (m, n) or values.shape != (m, n):
            raise ValueError("sampler must return (values, observations) of shape (size, n)")
        if not (np.isfinite(obs).all() and (values is obs or np.isfinite(values).all())):
            raise ValueError("sampler returned a draw that is NaN or infinite")
        flat = np.ravel_multi_index([obs_grids[i].nearest_index(obs[:, i]) for i in range(n)],
                                    obs_shape)
        if value_grid is not None:
            if np.any(values[:, 1:] != values[:, :1]):
                raise ValueError("a prior with a value grid needs one value shared by all "
                                 "agents; the sampler's value columns differ")
            flat += value_grid.nearest_index(values[:, 0]) * obs_size
        held[n_held:n_held + m] = flat
        n_held += m
        done += m
        if n_held >= counts.size or done == sample_count:
            counts += np.bincount(held[:n_held], minlength=counts.size)
            n_held = 0
    counts = counts.reshape(lead + obs_shape)
    if density_correction:
        for axis in range(len(lead), counts.ndim):
            edges = np.moveaxis(counts, axis, 0)
            edges[0] *= 2.0
            edges[-1] *= 2.0
    if value_grid is None:
        return counts, None
    return counts.sum(axis=0), counts


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

    return average(obs_joint, 0), None if value_joint is None else average(value_joint, 1)


def joint_from_latent(sampler, value_grid, obs_grids, sample_count: int = DEFAULT_SAMPLE_COUNT,
                      seed: int = 0, *, symmetry_groups=None,
                      density_correction: bool = True, meta: dict | None = None) -> DiscretePrior:
    """Empirical discrete prior from a latent-variable sampler.

    ``sampler(rng, size)`` must return ``(values, observations)`` arrays of
    shape ``(size, n)``; draws are clamped to the grid bounds and binned to
    the nearest point on every axis.  ``value_grid`` bins the one value all
    agents share (the value columns must be equal); ``None`` means private values.
    Marginals are recomputed from the binned joint so marginal consistency
    holds exactly.  A ``sample_count`` below ``MIN_SAMPLE_COUNT`` and an
    observation point with zero empirical mass are errors.  ``meta`` records
    the sample count, the seed and the number of empty ``obs_joint`` cells
    (cells off the support of a singular joint may be empty; the marginals
    may not).
    """
    if sample_count < MIN_SAMPLE_COUNT:
        raise ValueError(f"sample_count below {MIN_SAMPLE_COUNT}: the binned prior would be "
                         "too noisy")
    obs_grids = tuple(obs_grids)
    obs_counts, val_counts = _bin_counts(sampler, value_grid, obs_grids, int(sample_count),
                                         seed, density_correction)
    total = float(obs_counts.sum())
    obs_joint, value_joint = obs_counts, val_counts  # normalized in place: no second copy
    obs_joint /= total
    if value_joint is not None:
        value_joint /= total
    n = len(obs_grids)
    if symmetry_groups:
        obs_joint, value_joint = _symmetrize(obs_joint, value_joint, symmetry_groups)
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
    info = {"sample_count": int(sample_count), "seed": int(seed),
            "empty_cells": int(np.count_nonzero(obs_joint == 0))}
    info.update(meta or {})
    return DiscretePrior(obs_grids, tuple(marginals), obs_joint,
                         value_grid=value_grid, value_joint=value_joint, meta=info)


def independent_prior(obs_grids, densities, meta: dict | None = None) -> DiscretePrior:
    """Private-value prior with independent per-agent marginal densities,
    held as its marginals alone."""
    obs_grids = tuple(obs_grids)
    marginals = tuple(discretize_density(g, d) for g, d in zip(obs_grids, densities))
    return DiscretePrior(obs_grids, marginals, None, meta=meta or {})


# ---------------------------------------------------------------------------
# Continuous prior models: each couples a latent/continuous sampler (used for
# evaluation in the continuous game) with its discretization recipe.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformMarginal:
    lower: float
    upper: float

    def density(self, x):
        return np.ones_like(np.asarray(x, dtype=np.float64))

    def sample(self, rng, size):
        return rng.uniform(self.lower, self.upper, size)


@dataclass(frozen=True)
class TruncatedGaussianMarginal:
    mu: float
    sigma: float
    lower: float
    upper: float

    def density(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.exp(-0.5 * ((x - self.mu) / self.sigma) ** 2)

    def sample(self, rng, size):
        from scipy import stats  # imported here: it is most of the package's import time

        a = (self.lower - self.mu) / self.sigma
        b = (self.upper - self.mu) / self.sigma
        return stats.truncnorm.rvs(a, b, loc=self.mu, scale=self.sigma,
                                   size=size, random_state=rng)


@dataclass(frozen=True)
class CustomDensityMarginal:
    """Marginal given by an arbitrary nonnegative density on a bounded interval."""

    fn: object
    lower: float
    upper: float

    def density(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=np.float64)), dtype=np.float64)

    def _cdf_table(self):
        x = np.linspace(self.lower, self.upper, CDF_TABLE_SIZE)
        pdf = np.clip(self.density(x), 0.0, None)
        cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(x))])
        if cdf[-1] <= 0:
            raise ValueError("custom density integrates to zero")
        return x, cdf / cdf[-1]

    def sample(self, rng, size):
        x, cdf = self._cdf_table()
        return np.interp(rng.random(size), cdf, x)


class IndependentPrivatePrior:
    """Independent private values: each agent observes its own valuation."""

    kind = "independent"
    values_equal_observations = True

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

    def discretize(self, obs_grids, value_grid=None, *, sample_count=DEFAULT_SAMPLE_COUNT,
                   seed=0) -> DiscretePrior:
        return independent_prior(obs_grids, [s.density for s in self.marginal_specs],
                                 meta={"kind": self.kind})


class CommonValuePrior:
    """One hidden value shared by all agents, observed through noisy signals.

    With latent uniform draws ``w`` on the unit cube, the shared value is the
    last coordinate and agent i observes ``2 * w_i * value``.
    """

    kind = "common_value"
    values_equal_observations = False

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

    def discretize(self, obs_grids, value_grid, *, sample_count=DEFAULT_SAMPLE_COUNT, seed=0):
        return joint_from_latent(self.sample, value_grid, obs_grids, sample_count, seed,
                                 symmetry_groups=self.symmetry_groups(),
                                 meta={"kind": self.kind})


class AffiliatedValuesPrior:
    """Two bidders with positively correlated signals and a shared value.

    Observations are ``w_i + w_3`` for independent uniform ``w``; the common
    value is the average of the individual components plus the shared one.
    """

    kind = "affiliated"
    values_equal_observations = False

    def __init__(self):
        self.n_agents = 2
        self.obs_bounds = ((0.0, 2.0), (0.0, 2.0))

    def symmetry_groups(self):
        return [[0, 1]]

    def sample(self, rng, size):
        w = rng.random((size, 3))
        obs = np.column_stack([w[:, 0] + w[:, 2], w[:, 1] + w[:, 2]])
        value = 0.5 * (w[:, 0] + w[:, 1]) + w[:, 2]
        return np.repeat(value[:, None], 2, axis=1), obs

    def discretize(self, obs_grids, value_grid, *, sample_count=DEFAULT_SAMPLE_COUNT, seed=0):
        return joint_from_latent(self.sample, value_grid, obs_grids, sample_count, seed,
                                 symmetry_groups=self.symmetry_groups(),
                                 meta={"kind": self.kind})


class BernoulliWeightsLLGPrior:
    """Correlated local-bidder values for the two-local/one-global model.

    With probability ``gamma`` both locals share the common component (their
    values coincide), otherwise they draw independent uniforms; the global
    bidder's value is an independent uniform on [0, 2].  Private values.
    """

    kind = "bernoulli_llg"
    values_equal_observations = True

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

    def discretize(self, obs_grids, value_grid=None, *, sample_count=DEFAULT_SAMPLE_COUNT,
                   seed=0):
        # the shared-component mass lives on the diagonal (no joint density):
        # plain binning keeps the latent correlation intact
        return joint_from_latent(self.sample, None, obs_grids, sample_count, seed,
                                 symmetry_groups=self.symmetry_groups(),
                                 density_correction=False,
                                 meta={"kind": self.kind, "gamma": self.gamma})
