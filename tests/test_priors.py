import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bnesolve import priors
from bnesolve.config import build_problem, config_from_mapping
from bnesolve.grids import make_uniform_grid
from bnesolve.presets import get_preset
from bnesolve.priors import (AffiliatedValuesPrior, BernoulliWeightsLLGPrior,
                             CommonValuePrior, DiscretePrior, IndependentPrivatePrior,
                             TruncatedGaussianMarginal, UniformMarginal,
                             _bin_counts, _group_permutations, independent_prior,
                             joint_from_latent)


def grids(n, count=16, hi=1.0):
    return [make_uniform_grid(0.0, hi, count) for _ in range(n)]


def check_invariants(prior):
    assert abs(prior.obs_joint.sum() - 1.0) <= 1e-10
    n = prior.n_agents
    for i in range(n):
        m = prior.marginals[i]
        assert abs(m.sum() - 1.0) <= 1e-12
        axes = tuple(a for a in range(n) if a != i)
        assert np.max(np.abs(prior.obs_joint.sum(axis=axes) - m)) <= 1e-8
    if prior.value_joint is not None:
        assert np.max(np.abs(prior.value_joint.sum(axis=0) - prior.obs_joint)) <= 1e-10
        # the interdependent models are exchangeable: swapping two agents'
        # observation axes leaves the one value joint unchanged
        swap = (0, 2, 1) + tuple(range(3, n + 1))
        assert np.allclose(prior.value_joint, prior.value_joint.transpose(swap), atol=1e-15)


def test_independent_prior_outer_product():
    # the mass is the outer product of the marginals, held as the marginals alone
    g = grids(2, 8)
    prior = independent_prior(g, [lambda x: np.ones_like(x), lambda x: x + 0.5])
    assert prior.independent and prior.values_equal_observations
    assert prior.obs_joint is None and prior.value_joint is None
    assert np.all(np.diff(prior.marginals[1][1:-1]) > 0)
    check_invariants(DiscretePrior(prior.obs_grids, prior.marginals,
                                   np.outer(prior.marginals[0], prior.marginals[1])))


def test_independent_is_derived_from_the_joint():
    """A prior is independent exactly when it holds no joint: neither an
    independent prior with a joint nor a correlated one without can be built."""
    prior = independent_prior(grids(2, 4), [lambda x: np.ones_like(x), lambda x: x + 0.5])
    assert prior.independent
    joint = np.outer(prior.marginals[0], prior.marginals[1])
    correlated = DiscretePrior(prior.obs_grids, prior.marginals, joint)
    assert not correlated.independent
    assert dataclasses.replace(correlated, obs_joint=None).independent
    assert "independent" not in {f.name for f in dataclasses.fields(DiscretePrior)}
    with pytest.raises(TypeError):
        DiscretePrior(prior.obs_grids, prior.marginals, joint, independent=True)
    with pytest.raises(AttributeError):
        correlated.independent = True
    # a shared value needs the joint it sums back to
    vg = make_uniform_grid(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="value joint"):
        DiscretePrior(prior.obs_grids, prior.marginals, None, value_grid=vg,
                      value_joint=np.stack([joint / 3] * 3))


def test_degenerate_sampler_single_atom():
    # both agents observe one draw: each draw is a single atom of the diagonal,
    # so the joint is singular, with empty cells, while every marginal has full support
    def sampler(rng, size):
        v = np.repeat(rng.random((size, 1)), 2, axis=1)
        return v, v

    prior = joint_from_latent(sampler, None, grids(2, 5), sample_count=100_000, seed=0,
                              density_correction=False)
    off_diagonal = ~np.eye(5, dtype=bool)
    assert np.all(prior.obs_joint[off_diagonal] == 0.0)
    assert np.all(np.diag(prior.obs_joint) > 0.0)
    assert np.allclose(prior.marginals[0], np.diag(prior.obs_joint), rtol=1e-12, atol=0.0)
    assert prior.meta == {"sample_count": 100_000, "seed": 0, "empty_cells": 20}


def test_full_support_enforced_by_default():
    def sampler(rng, size):
        v = np.full((size, 2), 0.5)
        return v, v

    with pytest.raises(ValueError, match="zero empirical mass"):
        joint_from_latent(sampler, None, grids(2, 5), sample_count=100_000, seed=0)


def test_small_sample_count_rejected():
    model = CommonValuePrior(2)
    with pytest.raises(ValueError, match="sample_count"):
        joint_from_latent(model.sample, make_uniform_grid(0.0, 1.0, 4), grids(2, 4, hi=2.0),
                          sample_count=10)


def test_common_value_marginal_shape_and_seed_stability():
    model = CommonValuePrior(3)
    og = grids(3, 16, hi=2.0)
    vg = make_uniform_grid(0.0, 1.0, 16)
    p1 = model.discretize(og, vg, sample_count=400_000, seed=1)
    p2 = model.discretize(og, vg, sample_count=400_000, seed=2)
    check_invariants(p1)
    # signal density decreases away from zero; two independent seeds agree
    m = p1.marginals[0]
    assert np.all(np.diff(m[:10]) < 0)
    assert 0.5 * np.sum(np.abs(m - p2.marginals[0])) < 0.005


def test_affiliated_marginal_matches_triangle_convolution():
    model = AffiliatedValuesPrior()
    og = grids(2, 16, hi=2.0)
    vg = make_uniform_grid(0.0, 2.0, 16)
    prior = model.discretize(og, vg, sample_count=500_000, seed=3)
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


def test_ipv_latent_matches_density_discretization():
    # binning a private-value latent model reproduces the density recipe
    model = IndependentPrivatePrior([UniformMarginal(0, 1), UniformMarginal(0, 1)])
    g = grids(2, 8)
    binned = joint_from_latent(model.sample, None, g, sample_count=1_000_000, seed=4)
    direct = model.discretize(g)
    assert 0.5 * np.sum(np.abs(binned.marginals[0] - direct.marginals[0])) < 0.005


def test_bernoulli_weights_prior():
    g = [make_uniform_grid(0, 1, 12), make_uniform_grid(0, 1, 12),
         make_uniform_grid(0, 2, 12)]
    p0 = BernoulliWeightsLLGPrior(0.0).discretize(g, sample_count=400_000, seed=5)
    check_invariants(p0)
    locals_joint = p0.obs_joint.sum(axis=2)
    product = np.outer(p0.marginals[0], p0.marginals[1])
    assert np.max(np.abs(locals_joint - product)) < 2e-3

    p1 = BernoulliWeightsLLGPrior(1.0).discretize(g, sample_count=400_000, seed=5)
    diag = np.trace(p1.obs_joint.sum(axis=2))
    assert diag > 0.999

    ph = BernoulliWeightsLLGPrior(0.5).discretize(g, sample_count=400_000, seed=5)
    lj = ph.obs_joint.sum(axis=2)
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


def test_symmetrization_makes_grouped_agents_identical():
    model = CommonValuePrior(3)
    prior = model.discretize(grids(3, 8, hi=2.0), make_uniform_grid(0.0, 1.0, 8),
                             sample_count=200_000, seed=6)
    assert np.array_equal(prior.marginals[0], prior.marginals[1])
    assert np.array_equal(prior.marginals[0], prior.marginals[2])
    assert np.allclose(prior.obs_joint, prior.obs_joint.transpose(1, 0, 2), atol=1e-15)
    for swap in ((0, 2, 1, 3), (0, 3, 2, 1), (0, 1, 3, 2)):
        assert np.allclose(prior.value_joint, prior.value_joint.transpose(swap), atol=1e-15)


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


def test_value_weighted_joint_refuses_private_values():
    prior = independent_prior(grids(2, 4), [lambda x: np.ones_like(x)] * 2)
    with pytest.raises(ValueError, match="interdependent"):
        prior.value_weighted_joint()


def reference_value_joints(sampler, val_grids, obs_grids, sample_count, seed, groups):
    """Per-agent value joints as they were binned before the value axis was
    shared: one value bincount per agent, then each agent's joint averaged
    over the group permutations (one chunk of draws, density correction on)."""
    n = len(obs_grids)
    shape = tuple(g.count for g in obs_grids)
    size = int(np.prod(shape))
    values, obs = sampler(np.random.default_rng(seed), sample_count)
    obs_idx = [obs_grids[i].nearest_index(obs[:, i]) for i in range(n)]
    w = np.ones(sample_count)
    for g, idx in zip(obs_grids, obs_idx):
        f = np.ones(g.count)
        f[0] = f[-1] = 2.0
        w *= f[idx]
    flat = np.ravel_multi_index(obs_idx, shape)
    total = float(np.bincount(flat, weights=w, minlength=size).reshape(shape).sum())
    joints = []
    for i in range(n):
        m = val_grids[i].nearest_index(values[:, i])
        counts = np.bincount(m * size + flat, weights=w, minlength=val_grids[i].count * size)
        joints.append(counts.reshape((val_grids[i].count,) + shape) / total)
    perms = _group_permutations(groups, n)
    out = []
    for i in range(n):
        acc = np.zeros_like(joints[i])
        for sigma in perms:
            acc += joints[sigma[i]].transpose((0,) + tuple(1 + a for a in sigma))
        out.append(acc / len(perms))
    return out


@pytest.mark.parametrize("model, obs_hi, value_hi", [(CommonValuePrior(3), 2.0, 1.0),
                                                     (AffiliatedValuesPrior(), 2.0, 2.0)])
def test_value_joint_matches_per_agent_reference_binning(model, obs_hi, value_hi):
    og = grids(model.n_agents, 6, hi=obs_hi)
    vg = make_uniform_grid(0.0, value_hi, 5)
    prior = model.discretize(og, vg, sample_count=200_000, seed=7)
    reference = reference_value_joints(model.sample, [vg] * model.n_agents, og, 200_000, 7,
                                       model.symmetry_groups())
    for joint in reference:
        assert np.array_equal(joint, prior.value_joint)
    assert prior.value_grid is vg and prior.value_joints == (prior.value_joint,)
    assert not prior.values_equal_observations


def test_unequal_value_columns_rejected():
    def sampler(rng, size):
        obs = rng.random((size, 2))
        return obs, obs  # each agent's value is its own observation

    with pytest.raises(ValueError, match="value columns differ"):
        joint_from_latent(sampler, make_uniform_grid(0.0, 1.0, 4), grids(2, 4),
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
        joint_from_latent(sampler, make_uniform_grid(0.0, 1.0, 4), grids(2, 4),
                          sample_count=100_000, seed=0)


def test_non_finite_draw_rejected_without_value_grid():
    def sampler(rng, size):
        obs = rng.random((size, 3))
        obs[17, 1] = np.nan
        return obs, obs

    with pytest.raises(ValueError, match="NaN or infinite"):
        joint_from_latent(sampler, None, grids(3, 4), sample_count=100_000, seed=0,
                          density_correction=False)


def per_chunk_counts(sampler, value_grid, obs_grids, sample_count, seed, chunk):
    """Raw bin counts with one ``bincount`` per chunk of draws, as drawn."""
    shape = (() if value_grid is None else (value_grid.count,)) + tuple(
        g.count for g in obs_grids)
    counts = np.zeros(int(np.prod(shape)))
    rng = np.random.default_rng(seed)
    for start in range(0, sample_count, chunk):
        values, obs = sampler(rng, min(chunk, sample_count - start))
        idx = [g.nearest_index(obs[:, i]) for i, g in enumerate(obs_grids)]
        if value_grid is not None:
            idx.insert(0, value_grid.nearest_index(values[:, 0]))
        counts += np.bincount(np.ravel_multi_index(idx, shape), minlength=counts.size)
    return counts.reshape(shape)


@pytest.mark.parametrize("preset, points, samples, chunk", [
    ("common_value_spsb", 10, 9_000, 1_000),    # table 10^4 > draws: one bincount at the end
    ("common_value_spsb", 10, 35_000, 3_000),   # a bincount every four chunks, then the rest
    ("affiliated_fpsb", 12, 10_000, 1_000),     # table 12^3: every two chunks
    ("llg_nz_g05", 8, 5_500, 1_000),            # table 8^3 < chunk: every chunk
])
def test_held_indices_bin_as_per_chunk_counts(monkeypatch, preset, points, samples, chunk):
    cfg = config_from_mapping({**get_preset(preset), "obs_points": points,
                               "value_points": points})
    problem = build_problem(cfg)
    sampler = problem.prior_model.sample
    monkeypatch.setattr(priors, "_BIN_CHUNK", chunk)
    obs_counts, value_counts = _bin_counts(sampler, problem.value_grid, problem.obs_grids,
                                           samples, 5, density_correction=False)
    reference = per_chunk_counts(sampler, problem.value_grid, problem.obs_grids, samples, 5,
                                 chunk)
    binned = obs_counts if problem.value_grid is None else value_counts
    assert np.array_equal(binned, reference)
    assert binned.sum() == samples
