import tracemalloc

import numpy as np
import pytest

from bnesolve.config import build_problem, config_from_mapping
from bnesolve.gradient import DEFAULT_MEMORY_BUDGET, GradientEngine, expected_utility
from bnesolve.grids import make_uniform_grid
from bnesolve.mechanisms import (LLGAuction, SingleObjectAuction, SplitAwardAuction,
                                 TullockContest)
from bnesolve.presets import get_preset
from bnesolve.priors import (CommonValuePrior, IndependentPrivatePrior, UniformMarginal,
                             independent_prior)
from bnesolve.strategy import init_strategy
from oracles import naive_expected_utility, naive_gradient


def ipv_setting(kind="fpsb", n=2, k=3, l=3, rho=1.0, seed=0, density=None):
    mech = SingleObjectAuction(kind, n, risk_rho=rho)
    grids = [make_uniform_grid(0, 1, k) for _ in range(n)]
    densities = [density or (lambda x: np.ones_like(x))] * n
    prior = independent_prior(grids, densities)
    action_grids = [(make_uniform_grid(0, 1, l),)] * n
    strategies = [init_strategy("random", grids[i], action_grids[i], prior.marginals[i],
                                seed=seed + i) for i in range(n)]
    return mech, prior, action_grids, strategies


def tensor_gradients(mech, prior, action_grids, strategies, agent):
    """Tensor-path gradients of ``agent``: one chunk, then chunks of two own values."""
    cells = int(np.prod([g.count for grids in action_grids for g in grids]))
    return [GradientEngine(mech, prior, action_grids, memory_budget=budget,
                           prefer_path="tensor").gradient(strategies, agent)
            for budget in (DEFAULT_MEMORY_BUDGET, 2 * 8 * cells)]


def symmetric_gradient(mech, prior, action_grids, strategies, agent=0,
                       memory_budget=DEFAULT_MEMORY_BUDGET):
    return GradientEngine(mech, prior, action_grids, memory_budget=memory_budget,
                          prefer_path="symmetric").gradient(strategies, agent)


def affine_gradient(mech, prior, action_grids, strategies, agent):
    engine = GradientEngine(mech, prior, action_grids)
    assert engine.path == "affine"
    return engine.gradient(strategies, agent)


def test_tensor_entries_fpsb_two_point_grids():
    mech, prior, action_grids, strategies = ipv_setting(k=2, l=2)
    oracle = naive_gradient(mech, prior, strategies, 0)
    for c in tensor_gradients(mech, prior, action_grids, strategies, 0):
        assert c.shape == (2, 2)
        assert np.max(np.abs(c - oracle)) < 1e-12


def test_tensor_spot_checks_match_expost_utility():
    mech, prior, action_grids, strategies = ipv_setting(kind="all_pay", n=2, k=4, l=5,
                                                        rho=0.7)
    oracle = naive_gradient(mech, prior, strategies, 0)
    for c in tensor_gradients(mech, prior, action_grids, strategies, 0):
        assert np.max(np.abs(c - oracle)) < 1e-12


def test_engine_chunks_interdependent_prior_over_budget():
    model = CommonValuePrior(3)
    og = [make_uniform_grid(0, 2, 5)] * 3
    vg = make_uniform_grid(0, 1, 7)
    prior = model.discretize(og, vg, sample_count=4000, seed=1, allow_small_sample=True)
    mech = SingleObjectAuction("spsb", 3, risk_rho=0.5)
    action_grids = [(make_uniform_grid(0, 1.5, 4),)] * 3
    strategies = [init_strategy("random", og[i], action_grids[i], prior.marginals[i],
                                seed=i) for i in range(3)]
    full = GradientEngine(mech, prior, action_grids)
    tiny = GradientEngine(mech, prior, action_grids, memory_budget=100)
    assert full.path == tiny.path == "tensor"
    for agent in range(3):
        c1 = full.gradient(strategies, agent)
        c2 = tiny.gradient(strategies, agent)
        assert np.max(np.abs(c1 - c2)) < 1e-12
    assert full.cache_bytes() > 0 and tiny.cache_bytes() < full.cache_bytes()


def test_gradient_vs_opponent_bidding_zero():
    mech, prior, action_grids, strategies = ipv_setting(k=3, l=3)
    zero = strategies[1].matrix * 0
    zero[:, 0] = prior.marginals[1]
    strategies[1] = strategies[1].with_matrix(zero)
    o = prior.obs_grids[0].points
    b = action_grids[0][0].points
    for c in tensor_gradients(mech, prior, action_grids, strategies, 0):
        for k in range(3):
            assert c[k, 0] == 0.0  # tie at zero: no winner
            for l in (1, 2):
                assert c[k, l] == pytest.approx(o[k] - b[l], abs=1e-12)


def test_gradient_general_matches_naive_enumeration():
    mech, prior, action_grids, strategies = ipv_setting(k=3, l=3)
    oracle = naive_gradient(mech, prior, strategies, 0)
    for c in tensor_gradients(mech, prior, action_grids, strategies, 0):
        assert np.max(np.abs(c - oracle)) < 1e-12


def test_gradient_general_interdependent_matches_naive():
    model = CommonValuePrior(2)
    og = [make_uniform_grid(0, 2, 3)] * 2
    vg = make_uniform_grid(0, 1, 3)
    prior = model.discretize(og, vg, sample_count=2000, seed=0, allow_small_sample=True)
    mech = SingleObjectAuction("spsb", 2)
    action_grids = [(make_uniform_grid(0, 1.5, 3),)] * 2
    strategies = [init_strategy("random", og[i], action_grids[i], prior.marginals[i],
                                seed=i) for i in range(2)]
    oracle = naive_gradient(mech, prior, strategies, 0)
    for c in tensor_gradients(mech, prior, action_grids, strategies, 0) + [
            affine_gradient(mech, prior, action_grids, strategies, 0)]:
        assert np.max(np.abs(c - oracle)) < 1e-12
        assert expected_utility(strategies[0], c) == pytest.approx(
            naive_expected_utility(mech, prior, strategies, 0), abs=1e-12)


def test_gradient_three_agent_llg_matches_naive():
    mech = LLGAuction("NZ")
    og = [make_uniform_grid(0, 1, 3), make_uniform_grid(0, 1, 3),
          make_uniform_grid(0, 2, 3)]
    prior = independent_prior(og, [lambda x: np.ones_like(x)] * 3)
    action_grids = [(make_uniform_grid(0, 1, 2),), (make_uniform_grid(0, 1, 2),),
                    (make_uniform_grid(0, 2, 3),)]
    strategies = [init_strategy("random", og[i], action_grids[i], prior.marginals[i],
                                seed=i) for i in range(3)]
    for agent in range(3):
        oracle = naive_gradient(mech, prior, strategies, agent)
        for c in tensor_gradients(mech, prior, action_grids, strategies, agent) + [
                affine_gradient(mech, prior, action_grids, strategies, agent)]:
            assert np.max(np.abs(c - oracle)) < 1e-12


def test_linearity_of_expected_utility():
    mech, prior, action_grids, strategies = ipv_setting(k=3, l=4, seed=5)
    for c in tensor_gradients(mech, prior, action_grids, strategies, 0):
        for seed in range(10):
            s = init_strategy("random", prior.obs_grids[0], action_grids[0],
                              prior.marginals[0], seed=100 + seed)
            probe = [s, strategies[1]]
            assert expected_utility(s, c) == pytest.approx(
                naive_expected_utility(mech, prior, probe, 0), abs=1e-12)
        # bilinearity in the own strategy
        assert np.vdot(0.5 * strategies[0].matrix, c) == pytest.approx(
            0.5 * expected_utility(strategies[0], c), abs=1e-15)


def test_symmetric_path_matches_general():
    for kind in ("fpsb", "spsb", "all_pay"):
        for n in (2, 3):
            for rho in (1.0, 0.5):
                for k, l in ((3, 4), (16, 16)):
                    mech, prior, action_grids, strategies = ipv_setting(
                        kind=kind, n=n, k=k, l=l, rho=rho, seed=2)
                    shared = strategies[0]
                    profile = [shared] * n
                    c_sym = symmetric_gradient(mech, prior, action_grids, profile)
                    for c_gen in tensor_gradients(mech, prior, action_grids, profile, 0):
                        assert np.max(np.abs(c_gen - c_sym)) < 1e-10, (kind, n, rho, k)


def test_symmetric_path_matches_oracle_with_ties_at_the_top():
    # the action grid is the opponents' grid, so every own bid ties some opponent
    # bid; the last profile puts all opponent mass on one bid, which must void
    # the win there (a tie at the top)
    for kind in ("fpsb", "spsb", "all_pay"):
        for n in (2, 3):
            for rho in (1.0, 0.5):
                mech, prior, action_grids, strategies = ipv_setting(
                    kind=kind, n=n, k=3, l=4, rho=rho, seed=4)
                shared = strategies[0]
                half = 0.5 * shared.matrix
                half[:, 2] += 0.5 * prior.marginals[0]
                onehot = 0.0 * shared.matrix
                onehot[:, 2] = prior.marginals[0]
                for m in (shared.matrix, half, onehot):
                    profile = [shared.with_matrix(m)] * n
                    oracle = naive_gradient(mech, prior, profile, 0)
                    # one chunk, then chunks of two own values (rho < 1)
                    for budget in (DEFAULT_MEMORY_BUDGET, 2 * 8 * 4 * 4):
                        c = symmetric_gradient(mech, prior, action_grids, profile,
                                               memory_budget=budget)
                        assert np.max(np.abs(c - oracle)) < 1e-12, (kind, n, rho)
                b2 = action_grids[0][0].points[2]
                lose = -(b2 ** rho) if kind == "all_pay" else 0.0
                assert np.max(np.abs(c[:, 2] - lose)) < 1e-15, (kind, n, rho)


def test_symmetric_path_one_hot_opponent():
    mech, prior, action_grids, strategies = ipv_setting(k=4, l=4)
    onehot = strategies[1].matrix * 0
    onehot[:, 2] = prior.marginals[1]  # opponent always bids b*=2/3
    opp = strategies[1].with_matrix(onehot)
    c = symmetric_gradient(mech, prior, action_grids, [opp, opp])
    b = action_grids[0][0].points
    o = prior.obs_grids[0].points
    win = (b[None, :] > b[2]).astype(float)
    assert np.allclose(c, (o[:, None] - b[None, :]) * win, atol=1e-15)


def test_symmetric_path_win_mass_conservation():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        pi = rng.dirichlet(np.ones(12))
        cdf = np.cumsum(pi)
        below = cdf - pi
        p_win = below ** (n - 1)  # win at l: every opponent strictly below
        # P(win) + P(lose) + P(tie) over own draw from pi must be one
        p_lose = 1.0 - cdf ** (n - 1)
        p_tie = cdf ** (n - 1) - below ** (n - 1)
        total = pi @ (p_win + p_lose + p_tie)
        assert abs(total - 1.0) < 1e-10


def test_symmetric_path_rejects_unsupported():
    _, prior, action_grids, _ = ipv_setting()
    with pytest.raises(ValueError):
        GradientEngine(TullockContest(1.0), prior, action_grids, prefer_path="symmetric")


def test_symmetric_path_speed_many_agents():
    import time
    mech, prior, action_grids, strategies = ipv_setting(n=10, k=64, l=64)
    t0 = time.perf_counter()
    c = symmetric_gradient(mech, prior, action_grids, [strategies[0]] * 10)
    assert time.perf_counter() - t0 < 1.0
    assert c.shape == (64, 64)


def test_engine_paths_agree():
    mech, prior, action_grids, strategies = ipv_setting(kind="spsb", n=2, k=5, l=6, seed=9)
    c_affine = GradientEngine(mech, prior, action_grids,
                              prefer_path="affine").gradient(strategies, 0)
    for c in tensor_gradients(mech, prior, action_grids, strategies, 0):
        assert np.max(np.abs(c_affine - c)) < 1e-12


def test_engine_path_selection():
    mech, prior, action_grids, _ = ipv_setting(n=2, k=4, l=4)
    assert GradientEngine(mech, prior, action_grids, symmetric=True).path == "symmetric"
    assert GradientEngine(mech, prior, action_grids).path == "affine"
    mech_ra = SingleObjectAuction("fpsb", 2, risk_rho=0.5)
    assert GradientEngine(mech_ra, prior, action_grids).path == "tensor"
    # the memory budget sets the tensor path's chunk size, not the path
    assert GradientEngine(mech_ra, prior, action_grids,
                          memory_budget=200).path == "tensor"
    # asymmetric marginals disqualify the symmetric fast path
    specs = [UniformMarginal(0, 1), UniformMarginal(0, 1)]
    model = IndependentPrivatePrior(specs)
    prior2 = model.discretize([make_uniform_grid(0, 1, 4), make_uniform_grid(0, 1, 4)])
    eng = GradientEngine(mech, prior2, action_grids, symmetric=True)
    assert eng.path == "symmetric"
    from bnesolve.mechanisms import TullockContest
    with pytest.raises(ValueError):
        GradientEngine(TullockContest(1.0, 2), prior, action_grids,
                       symmetric=True, prefer_path="symmetric")
    # contests fall back to the general paths even in symmetric runs
    assert GradientEngine(TullockContest(1.0, 2), prior, action_grids,
                          symmetric=True).path == "affine"


def test_engine_rejects_unknown_path():
    mech, prior, action_grids, _ = ipv_setting(n=2, k=4, l=4)
    for name in ("bogus", "streaming"):
        with pytest.raises(ValueError, match="symmetric.*affine.*tensor"):
            GradientEngine(mech, prior, action_grids, prefer_path=name)


def test_engine_chunked_matches_on_risk_averse():
    mech, prior, action_grids, strategies = ipv_setting(kind="all_pay", k=6, l=7, rho=0.5)
    full = GradientEngine(mech, prior, action_grids, prefer_path="tensor")
    tiny = GradientEngine(mech, prior, action_grids, prefer_path="tensor",
                          memory_budget=1000)
    for agent in range(2):
        c1 = full.gradient(strategies, agent)
        c2 = tiny.gradient(strategies, agent)
        assert np.max(np.abs(c1 - c2)) < 1e-12
        # one chunk covers the value axis: kept between calls and reused
        assert np.array_equal(full.gradient(strategies, agent), c1)
    assert full.cache_bytes() >= 2 * 6 * 7 * 7 * 8


class OneExpressionEngine(GradientEngine):
    """The tensor path with each chunk's ex-post utilities built in one
    expression, sign(u) * |u|**rho of u = own[:, None, None] * A + B, and
    nothing kept between calls."""

    def _contract_utilities(self, agent, w, own_vals, interdependent=False):
        a, b = self._affine_parts(agent)
        chunk = max(1, int(self.budget // (8 * a.size)))
        c = np.zeros((w.shape[-2], a.shape[0]))
        for s in range(0, own_vals.size, chunk):
            e = min(s + chunk, own_vals.size)
            u = own_vals[s:e, None, None] * a + b
            u = np.sign(u) * np.abs(u) ** self.mech.risk_rho
            if interdependent:
                c += np.matmul(w[s:e], u.transpose(0, 2, 1)).sum(axis=0)
            else:
                c[s:e] = np.matmul(u, w[s:e, :, None])[..., 0]
        return c


def risk_averse_settings():
    """(label, mech, prior, action_grids, profile, path, bytes of one own value's
    ex-post utilities): LLG and common value on the tensor path, first price on
    the symmetric path's risk branch; all at risk_rho = 0.5."""
    cfg = config_from_mapping({**get_preset("llg_nz_g05"), "risk_rho": 0.5, "obs_points": 7,
                               "action_points": 6, "prior_samples": 200_000})
    llg = build_problem(cfg)
    prior = llg.discretize()
    profile = [init_strategy("random", prior.obs_grids[i], llg.action_grids[i],
                             prior.marginals[i], seed=i) for i in range(3)]
    yield "llg", llg.mech, prior, llg.action_grids, profile, "tensor", 8 * 6 ** 3
    mech, prior, action_grids, strategies = ipv_setting(n=3, k=9, l=11, rho=0.5, seed=4)
    yield "fpsb", mech, prior, action_grids, [strategies[0]] * 3, "symmetric", 8 * 11 ** 2
    og = [make_uniform_grid(0, 2, 3)] * 3
    prior = CommonValuePrior(3).discretize(og, make_uniform_grid(0, 1, 5), sample_count=20_000,
                                           seed=3, allow_small_sample=True)
    action_grids = [(make_uniform_grid(0, 1.5, 12),)] * 3
    profile = [init_strategy("random", og[i], action_grids[i], prior.marginals[i], seed=i)
               for i in range(3)]
    mech = SingleObjectAuction("spsb", 3, risk_rho=0.5)
    yield "common_value", mech, prior, action_grids, profile, "tensor", 8 * 12 ** 3


@pytest.mark.parametrize("rows", [None, 1, 2])
def test_in_place_utilities_bitwise_equal_one_expression(rows):
    """Utilities filled one own value at a time give the gradients of the one-
    expression construction bit for bit, with one chunk (kept, then reused),
    one own value per chunk, and two (odd value axes end on a part chunk)."""
    for label, mech, prior, action_grids, profile, path, row in risk_averse_settings():
        budget = DEFAULT_MEMORY_BUDGET if rows is None else rows * row
        engine = GradientEngine(mech, prior, action_grids, memory_budget=budget,
                                prefer_path=path)
        reference = OneExpressionEngine(mech, prior, action_grids, memory_budget=budget,
                                        prefer_path=path)
        for agent in range(1 if path == "symmetric" else 3):
            expected = reference.gradient(profile, agent)
            for _ in range(2):
                assert np.array_equal(engine.gradient(profile, agent), expected), \
                    (label, rows, agent)


@pytest.mark.parametrize("setting", ["llg", "common_value"])
def test_tensor_utility_cache_peaks_at_its_own_bytes(setting):
    """Building an agent's utility cache allocates the cache and at most two
    rows' worth more (one row of |u|**rho scratch, the opponent weights)."""
    label, mech, prior, action_grids, profile, path, row = next(
        s for s in risk_averse_settings() if s[0] == setting)
    engine = GradientEngine(mech, prior, action_grids)
    assert engine.path == "tensor"
    engine._affine_parts(0)  # the dense payoff matrices first: the trace sees the rest
    tracemalloc.start()
    try:
        engine.gradient(profile, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine._utility_cache[0].nbytes == len(engine._utility_cache[0]) * row
    assert peak <= engine.cache_bytes() + 2 * row


def test_expected_utility_shape_mismatch():
    mech, prior, action_grids, strategies = ipv_setting()
    with pytest.raises(ValueError):
        expected_utility(strategies[0], np.zeros((2, 2)))


def dense_split_gradient(mech, prior, strategies, agent, rows=512):
    """Affine gradient from the dense payoff matrices of ``mech.affine_parts``,
    built in blocks of ``rows`` own actions."""
    own = strategies[agent].action_values()
    opp = strategies[1 - agent].action_values()
    joint = prior.obs_joint if agent == 0 else prior.obs_joint.T
    w1 = joint @ strategies[1 - agent].conditionals()
    wv = prior.obs_grids[agent].points[:, None] * w1
    c = np.empty((w1.shape[0], own.shape[0]))
    for s in range(0, own.shape[0], rows):
        mine = (own[s:s + rows, 0:1], own[s:s + rows, 1:2])
        theirs = (opp[None, :, 0], opp[None, :, 1])
        a, b = mech.affine_parts(agent, [mine, theirs] if agent == 0 else [theirs, mine])
        c[:, s:s + rows] = wv @ a.T + w1 @ b.T
    return c / prior.marginals[agent][:, None]


def split_tie_setting(cost_model):
    """Half-price sums land exactly on sole-price points, so strict minima tie."""
    mech = SplitAwardAuction(0.3, cost_model)
    og = [make_uniform_grid(1.0, 1.4, 3), make_uniform_grid(1.0, 1.4, 4)]
    prior = independent_prior(og, [lambda x: x, lambda x: 3.0 - x])
    action_grids = [(make_uniform_grid(1.0, 2.0, 5), make_uniform_grid(0.5, 1.0, 3)),
                    (make_uniform_grid(1.0, 2.0, 5), make_uniform_grid(0.25, 1.0, 4))]
    strategies = [init_strategy("random", og[i], action_grids[i], prior.marginals[i],
                                seed=i) for i in range(2)]
    return mech, prior, action_grids, strategies


def test_split_award_kernel_matches_naive_on_tie_grids():
    for cost_model in ("scaled", "constant"):
        mech, prior, action_grids, strategies = split_tie_setting(cost_model)
        assert not np.array_equal(prior.marginals[0][:3], prior.marginals[1][:3])
        engine = GradientEngine(mech, prior, action_grids)
        assert engine.path == "affine"
        # the grids do produce exact ties between the three prices
        comps = [(a[:, 0], a[:, 1]) for a in (s.action_values() for s in strategies)]
        split = comps[0][1][:, None] + comps[1][1][None, :]
        assert np.any(np.isin(split, comps[0][0]))
        for agent in range(2):
            c = engine.gradient(strategies, agent)
            oracle = naive_gradient(mech, prior, strategies, agent)
            assert np.max(np.abs(c - oracle)) < 1e-12, (cost_model, agent)
            assert np.max(np.abs(dense_split_gradient(mech, prior, strategies, agent)
                                 - oracle)) < 1e-12
        assert not engine._affine_cache


def test_split_award_kernel_matches_naive_on_interdependent_prior():
    # distinct value-weighted and plain weights take the kernel's stacked pass
    model = CommonValuePrior(2)
    og = [make_uniform_grid(0, 2, 3)] * 2
    vg = make_uniform_grid(0, 1, 4)
    prior = model.discretize(og, vg, sample_count=2000, seed=0, allow_small_sample=True)
    _, _, action_grids, _ = split_tie_setting("scaled")
    strategies = [init_strategy("random", og[i], action_grids[i], prior.marginals[i],
                                seed=i) for i in range(2)]
    ratio = prior.value_weighted_joint(0) / prior.obs_joint
    assert np.ptp(ratio[prior.obs_joint > 0]) > 0.1  # not a multiple of the joint
    for cost_model in ("scaled", "constant"):
        mech = SplitAwardAuction(0.3, cost_model)
        engine = GradientEngine(mech, prior, action_grids)
        for agent in range(2):
            c = engine.gradient(strategies, agent)
            oracle = naive_gradient(mech, prior, strategies, agent)
            assert np.max(np.abs(c - oracle)) < 1e-12, (cost_model, agent)


def test_split_award_kernel_matches_dense_on_shipped_grids():
    problem = build_problem(config_from_mapping(get_preset("split_award_uniform")))
    prior = problem.discretize()
    strategies = [init_strategy("random", prior.obs_grids[i], problem.action_grids[i],
                                prior.marginals[i], seed=i) for i in range(2)]
    engine = GradientEngine(problem.mech, prior, problem.action_grids)
    for agent in range(2):
        c = engine.gradient(strategies, agent)
        dense = dense_split_gradient(problem.mech, prior, strategies, agent)
        assert np.max(np.abs(dense)) > 0.1
        assert np.max(np.abs(c - dense)) < 1e-12
    assert 0 < engine.cache_bytes() < 1 << 20
