import numpy as np
import pytest

from bnesolve.gradient import (DEFAULT_MEMORY_BUDGET, GradientEngine, expected_utility,
                               gradient_symmetric_iid)
from bnesolve.grids import make_uniform_grid
from bnesolve.mechanisms import LLGAuction, SingleObjectAuction
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
    vg = [make_uniform_grid(0, 1, 7)] * 3
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
    vg = [make_uniform_grid(0, 1, 3)] * 2
    prior = model.discretize(og, vg, sample_count=2000, seed=0, allow_small_sample=True)
    mech = SingleObjectAuction("spsb", 2)
    action_grids = [(make_uniform_grid(0, 1.5, 3),)] * 2
    strategies = [init_strategy("random", og[i], action_grids[i], prior.marginals[i],
                                seed=i) for i in range(2)]
    oracle = naive_gradient(mech, prior, strategies, 0)
    for c in tensor_gradients(mech, prior, action_grids, strategies, 0):
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
        for c in tensor_gradients(mech, prior, action_grids, strategies, agent):
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
                    c_sym = gradient_symmetric_iid(kind, prior.obs_grids[0].points,
                                                   action_grids[0][0].points, shared, n,
                                                   rho)
                    for c_gen in tensor_gradients(mech, prior, action_grids, profile, 0):
                        assert np.max(np.abs(c_gen - c_sym)) < 1e-10, (kind, n, rho, k)


def test_symmetric_path_one_hot_opponent():
    mech, prior, action_grids, strategies = ipv_setting(k=4, l=4)
    onehot = strategies[1].matrix * 0
    onehot[:, 2] = prior.marginals[1]  # opponent always bids b*=2/3
    opp = strategies[1].with_matrix(onehot)
    c = gradient_symmetric_iid("fpsb", prior.obs_grids[0].points,
                               action_grids[0][0].points, opp, 2)
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
    with pytest.raises(ValueError):
        gradient_symmetric_iid("tullock", np.zeros(2), np.zeros(2), None, 2)


def test_symmetric_path_speed_many_agents():
    import time
    mech, prior, action_grids, strategies = ipv_setting(k=64, l=64)
    t0 = time.perf_counter()
    c = gradient_symmetric_iid("fpsb", prior.obs_grids[0].points,
                               action_grids[0][0].points, strategies[0], 10)
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


def test_expected_utility_shape_mismatch():
    mech, prior, action_grids, strategies = ipv_setting()
    with pytest.raises(ValueError):
        expected_utility(strategies[0], np.zeros((2, 2)))
