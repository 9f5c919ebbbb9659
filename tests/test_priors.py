import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from bnesolve import priors
from bnesolve.config import build_problem, config_from_mapping
from bnesolve.grids import Grid
from bnesolve.presets import get_preset
from bnesolve.priors import (CDF_TABLE_SIZE, AffiliatedValuesPrior, BernoulliWeightsLLGPrior,
                             CommonValuePrior, Component, CustomDensityMarginal,
                             DiscretePrior, IndependentPrivatePrior,
                             TruncatedGaussianMarginal, UniformMarginal, _bin_counts,
                             _group_permutations, joint_from_latent)
from oracles import dense_joint, prior_from_weights


def grids(n, count=16, hi=1.0):
    return [Grid(0.0, hi, count) for _ in range(n)]


def check_invariants(prior):
    joint = dense_joint(prior) if prior.obs_joint is None else prior.obs_joint
    assert abs(joint.sum() - 1.0) <= 1e-10
    n = prior.n_agents
    for i in range(n):
        m = prior.marginals[i]
        assert abs(m.sum() - 1.0) <= 1e-12
        axes = tuple(a for a in range(n) if a != i)
        assert np.max(np.abs(joint.sum(axis=axes) - m)) <= 1e-8
    if prior.value_joint is not None:
        assert np.max(np.abs(prior.value_joint.sum(axis=0) - prior.obs_joint)) <= 1e-10
        # the value-weighted joint is the value axis contracted, to the bit
        assert np.array_equal(prior.value_weighted, np.tensordot(
            prior.value_grid.points, prior.value_joint, axes=(0, 0)))
        # the interdependent models are exchangeable: swapping two agents'
        # observation axes leaves the one value joint unchanged
        swap = (0, 2, 1) + tuple(range(3, n + 1))
        assert np.allclose(prior.value_joint, prior.value_joint.transpose(swap), atol=1e-15)


def test_independent_prior_outer_product():
    # the mass is the outer product of the marginals, held as the marginals
    # alone: one component of single-agent blocks, each point's mass the
    # probability of its cell
    g = grids(2, 8)
    prior = IndependentPrivatePrior([UniformMarginal(0.0, 1.0),
                                     CustomDensityMarginal(lambda x: x + 0.5, 0.0, 1.0)]
                                    ).discretize(g)
    assert prior.independent
    assert prior.obs_joint is None and prior.value_joint is None
    assert prior.meta == {"kind": "independent", "construction": "exact"}
    (component,) = prior.components
    assert component.weight == 1.0
    assert [(agents, mass is prior.marginals[agents[0]]) for agents, mass in component.blocks] \
        == [((0,), True), ((1,), True)]
    check_invariants(prior)
    assert np.array_equal(dense_joint(prior), np.outer(prior.marginals[0], prior.marginals[1]))


def test_independent_is_derived_from_the_joint():
    """A prior is independent exactly when it holds one component of
    single-agent blocks: neither an independent prior with a joint nor a
    correlated one without can be built, and a dense joint is refused without
    the shared value it belongs to, since private values are components."""
    prior = prior_from_weights(grids(2, 4), [lambda x: np.ones_like(x), lambda x: x + 0.5])
    assert prior.independent
    joint = np.outer(prior.marginals[0], prior.marginals[1])
    with pytest.raises(ValueError, match="value joint"):
        DiscretePrior(prior.obs_grids, prior.marginals, joint)
    correlated = DiscretePrior(prior.obs_grids, prior.marginals, None,
                               components=(Component(1.0, (((0, 1), joint),)),))
    assert not correlated.independent
    assert dataclasses.replace(correlated, components=None).independent
    assert "independent" not in {f.name for f in dataclasses.fields(DiscretePrior)}
    with pytest.raises(TypeError):
        DiscretePrior(prior.obs_grids, prior.marginals, None, independent=True)
    with pytest.raises(AttributeError):
        correlated.independent = True
    # a shared value needs the joint it sums back to
    vg = Grid(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="value joint"):
        DiscretePrior(prior.obs_grids, prior.marginals, None, value_grid=vg,
                      value_joint=np.stack([joint / 3] * 3))


def test_degenerate_sampler_single_atom():
    # both agents observe one draw, which is also their shared value: each draw
    # is a single atom of the diagonal, so the joint is singular, with empty
    # cells, while every marginal has full support
    def sampler(rng, size):
        v = np.repeat(rng.random((size, 1)), 2, axis=1)
        return v, v

    prior = joint_from_latent(sampler, Grid(0.0, 1.0, 5), grids(2, 5),
                              sample_count=100_000, seed=0)
    off_diagonal = ~np.eye(5, dtype=bool)
    assert np.all(prior.obs_joint[off_diagonal] == 0.0)
    assert np.all(np.diag(prior.obs_joint) > 0.0)
    assert np.allclose(prior.marginals[0], np.diag(prior.obs_joint), rtol=1e-12, atol=0.0)
    # the value bins to the observations' point: mass only where m = k0 = k1
    atoms = np.arange(5)
    assert np.array_equal(prior.value_joint[atoms, atoms, atoms], np.diag(prior.obs_joint))
    assert np.count_nonzero(prior.value_joint) == 5
    assert prior.meta == {"construction": "binned", "sample_count": 100_000, "seed": 0,
                          "empty_cells": 20}


def test_full_support_enforced_by_default():
    def sampler(rng, size):
        v = np.full((size, 2), 0.5)
        return v, v

    with pytest.raises(ValueError, match="zero empirical mass"):
        joint_from_latent(sampler, Grid(0.0, 1.0, 5), grids(2, 5),
                          sample_count=100_000, seed=0)


def test_meta_names_each_prior_grid_mass_rule():
    """One rule, two constructions: on uniform values every point gets the
    length of its nearest-point cell, half at the ends, exactly from the cdf
    for private values and estimated by nearest-point counts when binned.
    The common value is exact too; the affiliated prior is binned."""
    g = grids(2, 5)
    cells = [0.125, 0.25, 0.25, 0.25, 0.125]
    independent = IndependentPrivatePrior([UniformMarginal(0, 1)] * 2).discretize(g)
    assert independent.meta == {"kind": "independent", "construction": "exact"}
    assert np.array_equal(independent.marginals[0], cells)
    exact = BernoulliWeightsLLGPrior(0.5).discretize([*g, Grid(0, 2, 5)])
    assert exact.meta["construction"] == "exact"
    assert np.array_equal(exact.marginals[0], cells)

    def sampler(rng, size):
        w = rng.random((size, 3))
        return np.repeat(w[:, 2:], 2, axis=1), w[:, :2]

    binned = joint_from_latent(sampler, Grid(0, 1, 5), g, sample_count=400_000,
                               seed=1)
    assert binned.meta["construction"] == "binned"
    assert np.max(np.abs(binned.marginals[0] - cells)) < 0.005
    affiliated = AffiliatedValuesPrior(sample_count=100_000, seed=0).discretize(
        grids(2, 4, hi=2.0), Grid(0, 2, 4))
    assert affiliated.meta["construction"] == "binned"
    assert affiliated.meta["kind"] == "affiliated"
    common = CommonValuePrior(2).discretize(grids(2, 4, hi=2.0), Grid(0, 1, 4))
    assert common.meta == {"kind": "common_value", "construction": "exact", "empty_cells": 0}


def test_small_sample_count_rejected():
    model = AffiliatedValuesPrior()
    with pytest.raises(ValueError, match="sample_count"):
        joint_from_latent(model.sample, Grid(0.0, 2.0, 4), grids(2, 4, hi=2.0),
                          sample_count=10)


def test_common_value_marginal_shape():
    prior = CommonValuePrior(3).discretize(grids(3, 16, hi=2.0), Grid(0.0, 1.0, 16))
    check_invariants(prior)
    # signal density decreases away from zero, so the interior cells' masses
    # do; the end cell at zero is half a cell
    m = prior.marginals[0]
    assert np.all(np.diff(m[1:10]) < 0) and m[0] < m[1]


@pytest.mark.parametrize("value_points", [16, 11])
def test_common_value_cells_match_adaptive_quadrature(value_points):
    """Every cell of a three-agent prior on 16 signal points is its integral
    over its value cell, to 1e-12 relative against adaptive Gauss-Kronrod
    quadrature told where 2v crosses a signal cell's edge.  On 16 value
    points 2v sweeps signal cell m across value cell m, so the cells
    (m, m, m, m) are those it crosses; on 11 the crossings fall inside the
    value cells."""
    og, vg = Grid(0.0, 2.0, 16), Grid(0.0, 1.0, value_points)
    prior = CommonValuePrior(3).discretize([og] * 3, vg)
    signal, value = cell_edges(og, 0.0, 2.0), cell_edges(vg, 0.0, 1.0)

    def integrand(v):
        # the probability that a signal uniform on [0, 2v] falls in each cell
        f = (np.clip(2 * v, signal[:-1], signal[1:]) - signal[:-1]) / (2 * v)
        return np.multiply.outer(np.multiply.outer(f, f), f)

    for m in range(vg.count):
        lo, hi = value[m], value[m + 1]
        kinks = [x for x in signal / 2 if lo < x < hi]
        reference, _ = integrate.quad_vec(integrand, lo, hi, epsabs=1e-22, epsrel=1e-15,
                                          norm="max", points=kinks or None)
        cells = prior.value_joint[m]
        assert np.all(cells[reference == 0] == 0)
        assert np.all(np.abs(cells - reference) <= 1e-12 * reference), m
        if value_points == 16:
            assert cells[m, m, m] > 0
        else:
            assert kinks


def test_common_value_prior_matches_brute_force_binning():
    """The exact value joint against 2M draws binned at their nearest points,
    cell by cell, within five standard deviations of each cell's binomial
    count; cells of zero mass (signals above twice the value) get no draws."""
    model = CommonValuePrior(3)
    og, vg = [Grid(0.0, 2.0, 6)] * 3, Grid(0.0, 1.0, 5)
    prior = model.discretize(og, vg)
    check_invariants(prior)
    joint = prior.value_joint
    draws = 2_000_000
    counts = brute_force_counts(model, og, draws, seed=12, value_grid=vg)
    sd = np.sqrt(draws * joint * (1 - joint))
    assert np.all(np.abs(counts - draws * joint) <= 5 * sd + 1e-9)
    assert np.all(counts[joint == 0] == 0) and np.count_nonzero(joint == 0) > 0


def test_common_value_prior_sums_to_one_and_is_exchangeable():
    """The masses sum to one to rounding, the marginals are the cdf
    differences of the signal's closed form, and swapping any two agents
    leaves every cell as it is, to the bit: grouped agents share one marginal
    array, and agents on different grids are refused."""
    og = Grid(0.0, 2.0, 16)
    prior = CommonValuePrior(3).discretize([og] * 3, Grid(0.0, 1.0, 11))
    assert abs(prior.value_joint.sum() - 1.0) <= 1e-15
    assert abs(prior.obs_joint.sum() - 1.0) <= 1e-15
    assert prior.marginals[1] is prior.marginals[0] and prior.marginals[2] is prior.marginals[0]
    assert abs(prior.marginals[0].sum() - 1.0) <= 1e-15
    # a signal 2wv has density log(2/o)/2 on (0, 2]
    edges = cell_edges(og, 0.0, 2.0)
    cdf = np.concatenate(([0.0], edges[1:] * (np.log(2.0 / edges[1:]) + 1.0) / 2))
    assert np.max(np.abs(prior.marginals[0] - np.diff(cdf))) <= 1e-15
    for swap in ((0, 2, 1, 3), (0, 3, 2, 1), (0, 1, 3, 2), (0, 2, 3, 1)):
        assert np.array_equal(prior.value_joint, prior.value_joint.transpose(swap))
        obs_swap = tuple(a - 1 for a in swap[1:])
        assert np.array_equal(prior.obs_joint, prior.obs_joint.transpose(obs_swap))
    with pytest.raises(ValueError, match="one observation grid"):
        CommonValuePrior(2).discretize([og, Grid(0.0, 2.0, 15)],
                                       Grid(0.0, 1.0, 11))


def test_affiliated_marginal_matches_triangle_convolution():
    model = AffiliatedValuesPrior(sample_count=500_000, seed=3)
    og = grids(2, 16, hi=2.0)
    vg = Grid(0.0, 2.0, 16)
    prior = model.discretize(og, vg)
    check_invariants(prior)
    # sum of two independent uniforms: triangle density on [0, 2] peaked at 1
    pts = og[0].points
    tri = np.minimum(pts, 2.0 - pts)
    mids = (pts[:-1] + pts[1:]) / 2
    edges = np.concatenate([[0.0], mids, [2.0]])

    def cdf(x):
        x = np.clip(x, 0, 2)
        return np.where(x <= 1, x**2 / 2, 1 - (2 - x) ** 2 / 2)

    cell_mass = cdf(edges[1:]) - cdf(edges[:-1])
    assert 0.5 * np.sum(np.abs(prior.marginals[0] - cell_mass)) < 0.01
    assert np.argmax(prior.marginals[0]) == np.argmax(tri)


def test_bernoulli_weights_prior():
    g = [Grid(0, 1, 12), Grid(0, 1, 12),
         Grid(0, 2, 12)]
    p0 = BernoulliWeightsLLGPrior(0.0).discretize(g)
    check_invariants(p0)
    locals_joint = dense_joint(p0).sum(axis=2)
    product = np.outer(p0.marginals[0], p0.marginals[1])
    assert np.max(np.abs(locals_joint - product)) < 2e-3

    p1 = BernoulliWeightsLLGPrior(1.0).discretize(g)
    diag = np.trace(dense_joint(p1).sum(axis=2))
    assert diag > 0.999

    ph = BernoulliWeightsLLGPrior(0.5).discretize(g)
    lj = dense_joint(ph).sum(axis=2)
    pts = g[0].points
    m0, m1 = lj.sum(axis=1), lj.sum(axis=0)
    mu0, mu1 = pts @ m0, pts @ m1
    var0 = pts**2 @ m0 - mu0**2
    var1 = pts**2 @ m1 - mu1**2
    cov = pts @ lj @ pts - mu0 * mu1
    corr = cov / np.sqrt(var0 * var1)
    assert abs(corr - 0.5) < 0.02

    with pytest.raises(ValueError):
        BernoulliWeightsLLGPrior(1.5)


def brute_force_counts(model, obs_grids, draws, seed, value_grid=None, chunk=1 << 19):
    """Cell counts of ``draws`` draws of ``model``, each binned to its nearest
    grid point on every axis by a search of the grid's midpoints; given a
    value grid, the shared value is the first axis."""
    axes = [] if value_grid is None else [value_grid]
    axes += list(obs_grids)
    counts = np.zeros(tuple(g.count for g in axes))
    rng = np.random.default_rng(seed)
    for start in range(0, draws, chunk):
        values, obs = model.sample(rng, min(chunk, draws - start))
        columns = [] if value_grid is None else [values[:, 0]]
        columns += [obs[:, i] for i in range(len(obs_grids))]
        idx = [np.searchsorted((g.points[1:] + g.points[:-1]) / 2, x)
               for g, x in zip(axes, columns)]
        np.add.at(counts, tuple(idx), 1.0)
    return counts


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("local_points", [(6, 6), (7, 5)])
def test_llg_prior_matches_brute_force_binning(gamma, local_points):
    """The closed-form joint against a binned sample of 2M draws, cell by cell,
    within five standard deviations of each cell's binomial count; cells of
    zero mass (locals whose cells do not meet, at gamma = 1) get no draws.
    Unequal local grids exercise the cell intersections of the shared block."""
    g = [Grid(0, 1, local_points[0]), Grid(0, 1, local_points[1]),
         Grid(0, 2, 4)]
    model = BernoulliWeightsLLGPrior(gamma)
    prior = model.discretize(g)
    check_invariants(prior)
    assert prior.obs_joint is None and prior.independent == (gamma == 0)
    assert [c.weight for c in prior.components] == [w for w in (1 - gamma, gamma) if w > 0]
    joint = dense_joint(prior)
    draws = 2_000_000
    counts = brute_force_counts(model, g, draws, seed=11)
    sd = np.sqrt(draws * joint * (1 - joint))
    assert np.all(np.abs(counts - draws * joint) <= 5 * sd + 1e-9)
    assert np.all(counts[joint == 0] == 0)
    assert prior.meta["empty_cells"] == np.count_nonzero(joint == 0)
    if local_points[0] == local_points[1] and gamma > 0:
        (_, shared), _ = prior.components[-1].blocks
        assert np.array_equal(shared, np.diag(prior.marginals[0]))


def test_llg_prior_reads_no_draws():
    # the binning settings reach only the binned affiliated model: an LLG config's
    # prior_samples and prior_seed leave its exact prior as it is
    a, b = (build_problem(config_from_mapping({**get_preset("llg_nz_g05"), "obs_points": 9,
                                               "prior_samples": samples,
                                               "prior_seed": seed})).discretize()
            for samples, seed in [(100_000, 1), (1 << 22, 987654321)])
    assert a.meta == b.meta == {"kind": "bernoulli_llg", "gamma": 0.5,
                                "construction": "exact", "empty_cells": 0}
    assert all(np.array_equal(x, y) for x, y in zip(a.marginals, b.marginals))
    for ca, cb in zip(a.components, b.components, strict=True):
        assert ca.weight == cb.weight
        for (agents_a, mass_a), (agents_b, mass_b) in zip(ca.blocks, cb.blocks, strict=True):
            assert agents_a == agents_b and np.array_equal(mass_a, mass_b)


def test_common_value_prior_reads_no_draws():
    a, b = (build_problem(config_from_mapping({**get_preset("common_value_spsb"),
                                               "obs_points": 6, "value_points": 5,
                                               "prior_samples": samples,
                                               "prior_seed": seed})).discretize()
            for samples, seed in [(1000, 1), (1 << 22, 987654321)])
    assert a.meta == b.meta == {"kind": "common_value", "construction": "exact",
                                "empty_cells": 0}
    assert np.array_equal(a.value_joint, b.value_joint)


MODELS = [IndependentPrivatePrior([UniformMarginal(0.0, 1.0), UniformMarginal(0.0, 2.0)]),
          CommonValuePrior(3),
          AffiliatedValuesPrior(sample_count=100_000, seed=2),
          BernoulliWeightsLLGPrior(0.5)]


@pytest.mark.parametrize("model", MODELS, ids=lambda model: model.kind)
def test_models_own_their_value_range_and_binning_settings(model):
    """Every model discretizes from the grids alone, the binned affiliated
    model with its binning settings given to its constructor; it states the
    support of the shared value, and no value range for private values."""
    assert list(inspect.signature(model.discretize).parameters) == ["obs_grids", "value_grid"]
    obs_grids = [Grid(lo, hi, 6) for lo, hi in model.obs_bounds]
    value_grid = None if model.value_bounds is None else \
        Grid(*model.value_bounds, 5)
    prior = model.discretize(obs_grids, value_grid)
    check_invariants(prior)
    private = model.kind in ("independent", "bernoulli_llg")
    assert (model.value_bounds is None) == private == (prior.value_joint is None)
    assert (prior.meta["construction"] == "binned") == (model.kind == "affiliated")
    if model.kind == "affiliated":
        assert prior.meta["sample_count"] == model.sample_count == 100_000
        assert prior.meta["seed"] == model.seed
    values, obs = model.sample(np.random.default_rng(0), 100_000)
    if private:
        assert np.array_equal(values, obs)
    else:
        # the bounds are the support: the draws stay inside and come near both ends
        lo, hi = model.value_bounds
        assert lo <= values.min() < lo + 0.1 and hi - 0.1 < values.max() <= hi


def test_symmetrization_makes_grouped_agents_identical():
    # two agents: the average of a joint and its transpose is symmetric to the bit
    model = AffiliatedValuesPrior(sample_count=200_000, seed=6)
    prior = model.discretize(grids(2, 8, hi=2.0), Grid(0.0, 2.0, 8))
    assert prior.marginals[1] is prior.marginals[0]
    assert np.array_equal(prior.obs_joint, prior.obs_joint.T)
    assert np.array_equal(prior.value_joint, prior.value_joint.transpose(0, 2, 1))


def cell_edges(grid, lower, upper):
    """Both ends of every nearest-point cell: the support's ends and the midpoints."""
    return np.concatenate(([lower], (grid.points[1:] + grid.points[:-1]) / 2, [upper]))


def masses_of(marginal, grid):
    return IndependentPrivatePrior([marginal]).discretize([grid]).marginals[0]


def test_uniform_masses_are_cell_lengths():
    g = Grid(0.0, 1.0, 9)
    assert np.array_equal(masses_of(UniformMarginal(0.0, 1.0), g), np.diff(cell_edges(g, 0, 1)))
    # elsewhere the lengths over the interval's width, up to rounding
    h = Grid(1.0, 2.5, 7)
    assert np.allclose(masses_of(UniformMarginal(1.0, 2.5), h),
                       np.diff(cell_edges(h, 1.0, 2.5)) / 1.5, rtol=0, atol=1e-15)


@pytest.mark.parametrize("mu, sigma, lower, upper", [
    (1.2, 0.1, 1.0, 1.4),    # split_award_gaussian
    (0.5, 1.0, 0.0, 1.0),
    (0.0, 0.1, 1.0, 2.0),    # far out in the upper tail
    (3.0, 0.2, 0.0, 1.0),    # far out in the lower tail
])
def test_truncated_gaussian_masses_are_cdf_differences(mu, sigma, lower, upper):
    g = Grid(lower, upper, 32)
    masses = masses_of(TruncatedGaussianMarginal(mu, sigma, lower, upper), g)
    a, b = (lower - mu) / sigma, (upper - mu) / sigma
    cdf = stats.truncnorm.cdf(cell_edges(g, lower, upper), a, b, loc=mu, scale=sigma)
    assert np.max(np.abs(masses - np.diff(cdf))) <= 1e-12


def test_truncated_gaussian_without_mass_in_double_precision_is_refused():
    # 100 to 200 standard deviations above the mean: both tails underflow
    g = Grid(1.0, 2.0, 8)
    with pytest.raises(ValueError, match="no mass on"):
        masses_of(TruncatedGaussianMarginal(0.0, 0.01, 1.0, 2.0), g)


def test_custom_density_masses_are_differences_of_its_table():
    fn = lambda x: np.exp(-3.0 * x) + np.sin(9.0 * x) ** 2  # noqa: E731
    marginal = CustomDensityMarginal(fn, 0.2, 1.7)
    x = np.linspace(0.2, 1.7, CDF_TABLE_SIZE)
    table = integrate.cumulative_trapezoid(fn(x), x, initial=0.0)
    g = Grid(0.2, 1.7, 13)
    cdf = np.interp(cell_edges(g, 0.2, 1.7), x, table / table[-1])
    assert np.max(np.abs(masses_of(marginal, g) - np.diff(cdf))) <= 1e-12


@pytest.mark.parametrize("marginal", [
    UniformMarginal(0.0, 1.0), TruncatedGaussianMarginal(1.2, 0.1, 1.0, 1.4),
    CustomDensityMarginal(lambda x: 2.0 * x, 0.0, 1.0)], ids=["uniform", "gaussian", "custom"])
def test_masses_match_nearest_point_binning_of_draws(marginal):
    """Evaluation sends each continuous draw to its nearest grid point, so the
    prior must give every point the probability of its cell: 2^20 draws
    binned that way match every mass within five binomial standard
    deviations, the end points' half cells included."""
    g = Grid(marginal.lower, marginal.upper, 16)
    masses = masses_of(marginal, g)
    draws = 1 << 20
    counts = np.bincount(g.nearest_index(marginal.sample(np.random.default_rng(3), draws)),
                         minlength=g.count)
    sd = np.sqrt(draws * masses * (1 - masses))
    assert np.all(np.abs(counts - draws * masses) <= 5 * sd)


def test_custom_density_rejects_degenerate():
    # zero, negative and partly infinite densities
    for fn in (np.zeros_like, lambda x: -np.ones_like(x),
               lambda x: np.where(x < 0.5, np.inf, 1.0)):
        with pytest.raises(ValueError, match="custom density"):
            CustomDensityMarginal(fn, 0.0, 1.0)


def test_custom_density_refuses_a_negative_table_point():
    # negative only near 0.5, where no point of a 16-point grid lies: the
    # density is refused, not clipped to zero where its table reads it
    fn = lambda x: np.abs(x - 0.5) - 1e-3  # noqa: E731
    assert np.all(fn(Grid(0.0, 1.0, 16).points) > 0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        CustomDensityMarginal(fn, 0.0, 1.0)


def test_truncated_gaussian_sampling_within_bounds():
    spec = TruncatedGaussianMarginal(1.2, 0.1, 1.0, 1.4)
    rng = np.random.default_rng(0)
    x = spec.sample(rng, 10_000)
    assert x.min() >= 1.0 and x.max() <= 1.4
    assert abs(x.mean() - 1.2) < 0.01


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the import time; only truncated-Gaussian sampling needs it
    code = ("import sys, bnesolve, bnesolve.runner, bnesolve.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_private_value_prior_holds_no_value_weighted_mass():
    prior = prior_from_weights(grids(2, 4), [lambda x: np.ones_like(x)] * 2)
    assert prior.value_weighted is None


def malformed_priors():
    """(arguments of ``DiscretePrior``, the refusal they meet): one malformed
    prior per refusal, each built from a valid two-agent prior on three-point
    grids that breaks one rule."""
    g3, g2 = Grid(0, 1, 3), Grid(0, 1, 2)
    m3, m2, flat = np.array([0.25, 0.5, 0.25]), np.array([0.5, 0.5]), np.full(3, 1 / 3)
    joint = np.multiply.outer(m3, m3)
    values = np.stack([joint / 2, joint / 2])
    dense = dict(obs_grids=(g3, g3), marginals=(m3, m3), obs_joint=joint, value_grid=g2,
                 value_joint=values)
    blocks = (((0,), m3), ((1,), m3))
    held = dict(obs_grids=(g3, g3), marginals=(m3, m3), obs_joint=None)

    def parts(*pairs):
        return dict(held, components=tuple(Component(w, b) for w, b in pairs))

    return [
        (dict(held, marginals=(m3,)), "one entry per agent"),
        (dict(held, marginals=(m3, m2)), "marginal length must match"),
        (dict(held, marginals=(m3, np.array([0.5, 0.5, 0.5]))), "probability vectors"),
        (dict(dense, components=(Component(1.0, blocks),)), "either obs_joint or components"),
        (dict(dense, value_grid=None, value_joint=None), "needs a value joint"),
        (dict(dense, value_joint=None), "or its value-weighted joint"),
        (dict(dense, value_joint=None, value_weighted=m3), "value-weighted joint needs an obs"),
        (dict(dense, obs_joint=np.multiply.outer(m3, m2)), "obs_joint shape must match"),
        (dict(dense, obs_joint=2 * joint), "obs_joint must be a probability mass"),
        (dict(dense, obs_joint=np.multiply.outer(m3, flat)),
         "obs_joint does not marginalize to agent 1"),
        (dict(dense, value_grid=None), "value joint needs a value grid"),
        (dict(dense, value_joint=np.stack([joint, joint])), "does not sum back to obs_joint"),
        (dict(dense, value_weighted=joint), "does not weight back to the value-weighted"),
        (parts((0.5, blocks)), "weights must be positive and sum to 1"),
        (parts((1.0, blocks[:1])), "blocks must partition the agents"),
        (parts((1.0, (((1, 0), joint),))), "block mass shape must match"),
        (parts((1.0, (((0,), 2 * m3), blocks[1]))), "block masses must be probability masses"),
        (parts((1.0, (((0,), flat), blocks[1]))), "components do not marginalize to agent 0"),
    ]


@pytest.mark.parametrize("arguments, message", malformed_priors(),
                         ids=[message for _, message in malformed_priors()])
def test_discrete_prior_refuses_malformed_input(arguments, message):
    with pytest.raises(ValueError, match=message):
        DiscretePrior(**arguments)


def test_dense_prior_holds_its_value_weighted_mass_without_the_value_joint():
    """Dropped with ``dataclasses.replace``, the value joint leaves a valid
    prior that keeps the value-weighted joint and the value grid."""
    og, vg = grids(2, 4, hi=2.0), Grid(0.0, 1.0, 5)
    full = CommonValuePrior(2).discretize(og, vg)
    dropped = dataclasses.replace(full, value_joint=None)
    assert dropped.value_joint is None and dropped.value_joints is None
    assert dropped.value_grid is vg and dropped.value_weighted is full.value_weighted


def reference_value_joints(sampler, val_grids, obs_grids, sample_count, seed, groups):
    """Per-agent value joints as they were binned before the value axis was
    shared: one value bincount per agent, then each agent's joint averaged
    over the group permutations (one chunk of draws, each draw's weight the
    same)."""
    n = len(obs_grids)
    shape = tuple(g.count for g in obs_grids)
    size = int(np.prod(shape))
    values, obs = sampler(np.random.default_rng(seed), sample_count)
    obs_idx = [obs_grids[i].nearest_index(obs[:, i]) for i in range(n)]
    flat = np.ravel_multi_index(obs_idx, shape)
    joints = []
    for i in range(n):
        m = val_grids[i].nearest_index(values[:, i])
        counts = np.bincount(m * size + flat, minlength=val_grids[i].count * size)
        joints.append(counts.reshape((val_grids[i].count,) + shape) / float(sample_count))
    perms = _group_permutations(groups, n)
    out = []
    for i in range(n):
        acc = np.zeros_like(joints[i])
        for sigma in perms:
            acc += joints[sigma[i]].transpose((0,) + tuple(1 + a for a in sigma))
        out.append(acc / len(perms))
    return out


@pytest.mark.parametrize("model, obs_hi, value_hi", [
    # a value grid over half the value's support: values above it bin to its top
    (AffiliatedValuesPrior(sample_count=200_000, seed=7), 2.0, 1.0),
    (AffiliatedValuesPrior(sample_count=200_000, seed=7), 2.0, 2.0)])
def test_value_joint_matches_per_agent_reference_binning(model, obs_hi, value_hi):
    og = grids(model.n_agents, 6, hi=obs_hi)
    vg = Grid(0.0, value_hi, 5)
    prior = model.discretize(og, vg)
    reference = reference_value_joints(model.sample, [vg] * model.n_agents, og, 200_000, 7,
                                       model.symmetry_groups())
    for joint in reference:
        assert np.array_equal(joint, prior.value_joint)
    assert prior.value_grid is vg and prior.value_joints == (prior.value_joint,)
    assert prior.value_joint is not None


def test_unequal_value_columns_rejected():
    def sampler(rng, size):
        obs = rng.random((size, 2))
        return obs, obs  # each agent's value is its own observation

    with pytest.raises(ValueError, match="value columns differ"):
        joint_from_latent(sampler, Grid(0.0, 1.0, 4), grids(2, 4),
                          sample_count=100_000, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", ["observation", "value"])
def test_non_finite_draws_rejected(bad, column):
    def sampler(rng, size):
        obs = rng.random((size, 2))
        values = np.repeat(obs[:, :1], 2, axis=1)
        (obs if column == "observation" else values)[size // 2] = bad
        return values, obs

    with pytest.raises(ValueError, match="NaN or infinite"):
        joint_from_latent(sampler, Grid(0.0, 1.0, 4), grids(2, 4),
                          sample_count=100_000, seed=0)


def per_chunk_counts(sampler, value_grid, obs_grids, sample_count, seed, chunk):
    """Raw bin counts with one ``bincount`` per chunk of draws, as drawn."""
    shape = (value_grid.count,) + tuple(g.count for g in obs_grids)
    counts = np.zeros(int(np.prod(shape)))
    rng = np.random.default_rng(seed)
    for start in range(0, sample_count, chunk):
        values, obs = sampler(rng, min(chunk, sample_count - start))
        idx = [value_grid.nearest_index(values[:, 0])] + [
            g.nearest_index(obs[:, i]) for i, g in enumerate(obs_grids)]
        counts += np.bincount(np.ravel_multi_index(idx, shape), minlength=counts.size)
    return counts.reshape(shape)


@pytest.mark.parametrize("preset, points, samples, chunk", [
    ("affiliated_fpsb", 22, 9_000, 1_000),      # table 22^3 > draws: one bincount at the end
    ("affiliated_fpsb", 22, 35_000, 3_000),     # a bincount every four chunks, then the rest
    ("affiliated_fpsb", 12, 10_000, 1_000),     # table 12^3: every two chunks
    ("affiliated_fpsb", 8, 5_500, 1_000),       # table 8^3 < chunk: every chunk
])
def test_held_indices_bin_as_per_chunk_counts(monkeypatch, preset, points, samples, chunk):
    cfg = config_from_mapping({**get_preset(preset), "obs_points": points,
                               "value_points": points})
    problem = build_problem(cfg)
    sampler = problem.prior_model.sample
    monkeypatch.setattr(priors, "_BIN_CHUNK", chunk)
    counts = _bin_counts(sampler, problem.value_grid, problem.obs_grids, samples, 5)
    reference = per_chunk_counts(sampler, problem.value_grid, problem.obs_grids, samples, 5,
                                 chunk)
    assert np.array_equal(counts, reference)
    assert counts.sum() == samples
