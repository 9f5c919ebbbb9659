import tracemalloc

import numpy as np
import pytest

from bnesolve.config import build_problem, config_from_mapping
from bnesolve.gradient import DEFAULT_MEMORY_BUDGET, GradientEngine, expected_utility
from bnesolve.grids import make_uniform_grid
from bnesolve.mechanisms import (LLGAuction, SingleObjectAuction, SplitAwardAuction,
                                 TullockContest)
from bnesolve.presets import get_preset
from bnesolve.priors import (AffiliatedValuesPrior, BernoulliWeightsLLGPrior,
                             CommonValuePrior, Component, DiscretePrior)
from bnesolve.strategy import init_strategy
from oracles import (dense_joint, naive_expected_utility, naive_gradient, prior_from_weights,
                     tensor_engine)


def ipv_setting(kind="fpsb", n=2, k=3, l=3, rho=1.0, seed=0, density=None):
    mech = SingleObjectAuction(kind, n, risk_rho=rho)
    grids = [make_uniform_grid(0, 1, k) for _ in range(n)]
    densities = [density or (lambda x: np.ones_like(x))] * n
    prior = prior_from_weights(grids, densities)
    action_grids = [(make_uniform_grid(0, 1, l),)] * n
    strategies = [init_strategy("random", grids[i], action_grids[i], prior.marginals[i],
                                seed=seed + i) for i in range(n)]
    return mech, prior, action_grids, strategies


def tensor_gradients(mech, prior, action_grids, strategies, agent):
    """Tensor-path gradients of ``agent``: one chunk, then chunks of two own
    values; on an independent prior, from its one row of opponent weights and
    then from the block-mate weights of the same prior held as one block."""
    cells = int(np.prod([g.count for grids in action_grids for g in grids]))
    priors = [prior, one_block(prior)] if prior.independent else [prior]
    return [tensor_engine(mech, p, action_grids, memory_budget=budget).gradient(strategies, agent)
            for p in priors for budget in (DEFAULT_MEMORY_BUDGET, 2 * 8 * cells)]


def shared_gradient(mech, prior, action_grids, strategies,
                    memory_budget=DEFAULT_MEMORY_BUDGET):
    """Agent 0's gradient with all agents in one group, on an independent prior
    whose opponents reach agent 0 through their highest bid: the order-
    statistic row of the factorized branch, on the path the payoff picks."""
    engine = GradientEngine(mech, prior, action_grids, memory_budget=memory_budget,
                            groups=[list(range(prior.n_agents))])
    assert prior.independent and 0 in engine._top_bids
    return engine.gradient(strategies, 0)


def one_block(prior):
    """The component ``prior`` (an independent one included) held as one
    component of one block over all agents, its joint built cell by cell: no
    agent is alone with its marginal, so the engine weights every opponent as
    a block-mate (``M @ q_j``), not by the prior's own blocks."""
    block = (tuple(range(prior.n_agents)), dense_joint(prior))
    held = DiscretePrior(prior.obs_grids, prior.marginals, None,
                         components=(Component(1.0, (block,)),))
    assert not held.independent
    return held


def one_block_gradients(mech, prior, action_grids, strategies, agent):
    """``agent``'s gradients on ``one_block(prior)``: the tensor path in one
    chunk and in chunks of two own values, and the affine path for
    risk-neutral payoffs."""
    held = one_block(prior)
    out = tensor_gradients(mech, held, action_grids, strategies, agent)
    if mech.risk_rho == 1.0:
        out.append(GradientEngine(mech, held, action_grids).gradient(strategies, agent))
    return out


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
    model = CommonValuePrior(3, sample_count=100_000, seed=1)
    og = [make_uniform_grid(0, 2, 5)] * 3
    vg = make_uniform_grid(0, 1, 7)
    prior = model.discretize(og, vg)
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
    model = CommonValuePrior(2, sample_count=100_000, seed=0)
    og = [make_uniform_grid(0, 2, 3)] * 2
    vg = make_uniform_grid(0, 1, 3)
    prior = model.discretize(og, vg)
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


def test_dense_interdependent_gradients_match_naive():
    """Dense priors are the interdependent ones: on the three-agent common
    value and the affiliated prior, every agent's gradient (so each opponent
    axis before and after the own one) on both paths at risk_rho 1 and on the
    tensor path at 0.5 agrees with the brute-force oracle; agent 2 of the
    common value bids on a grid of its own, so the opponents' actions must
    meet the payoff in agent order."""
    og = [make_uniform_grid(0, 2, 4)] * 3
    common = CommonValuePrior(3, sample_count=100_000, seed=2).discretize(
        og, make_uniform_grid(0, 1, 3))
    common_grids = [(make_uniform_grid(0, 1.5, 3),)] * 2 + [(make_uniform_grid(0, 1.2, 4),)]
    affiliated = AffiliatedValuesPrior(sample_count=100_000, seed=2).discretize(
        [make_uniform_grid(0, 2, 4)] * 2, make_uniform_grid(0, 2, 3))
    for prior, action_grids in ((common, common_grids),
                                (affiliated, [(make_uniform_grid(0, 1.5, 4),)] * 2)):
        n = prior.n_agents
        assert prior.components is None and prior.value_joint is not None
        profile = [init_strategy("random", prior.obs_grids[i], action_grids[i],
                                 prior.marginals[i], seed=4 + i) for i in range(n)]
        for kind, rho in (("fpsb", 1.0), ("spsb", 1.0), ("fpsb", 0.5)):
            mech = SingleObjectAuction(kind, n, risk_rho=rho)
            engines = [GradientEngine(mech, prior, action_grids)]
            if rho == 1.0:
                engines.append(tensor_engine(mech, prior, action_grids))
            for agent in range(n):
                oracle = naive_gradient(mech, prior, profile, agent)
                for engine in engines:
                    c = engine.gradient(profile, agent)
                    assert np.max(np.abs(c - oracle)) < 1e-12, (n, kind, rho, engine.path, agent)


def test_gradient_three_agent_llg_matches_naive():
    mech = LLGAuction("NZ")
    og = [make_uniform_grid(0, 1, 3), make_uniform_grid(0, 1, 3),
          make_uniform_grid(0, 2, 3)]
    prior = prior_from_weights(og, [lambda x: np.ones_like(x)] * 3)
    action_grids = [(make_uniform_grid(0, 1, 2),), (make_uniform_grid(0, 1, 2),),
                    (make_uniform_grid(0, 2, 3),)]
    strategies = [init_strategy("random", og[i], action_grids[i], prior.marginals[i],
                                seed=i) for i in range(3)]
    for agent in range(3):
        oracle = naive_gradient(mech, prior, strategies, agent)
        for c in tensor_gradients(mech, prior, action_grids, strategies, agent) + [
                affine_gradient(mech, p, action_grids, strategies, agent)
                for p in (prior, one_block(prior))]:
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


def test_highest_bid_row_matches_general():
    # a shared strategy's order-statistic row against the block-mate weights
    # of the same prior held as one block, its outer-product joint, on both paths
    for kind in ("fpsb", "spsb", "all_pay"):
        for n in (2, 3):
            for rho in (1.0, 0.5):
                for k, l in ((3, 4), (16, 16)):
                    mech, prior, action_grids, strategies = ipv_setting(
                        kind=kind, n=n, k=k, l=l, rho=rho, seed=2)
                    shared = strategies[0]
                    profile = [shared] * n
                    c_sym = shared_gradient(mech, prior, action_grids, profile)
                    gens = one_block_gradients(mech, prior, action_grids, profile, 0)
                    assert len(gens) == (3 if rho == 1.0 else 2)
                    for c_gen in gens:
                        assert np.max(np.abs(c_gen - c_sym)) < 1e-10, (kind, n, rho, k)


def test_highest_bid_row_matches_oracle_with_ties_at_the_top():
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
                        c = shared_gradient(mech, prior, action_grids, profile,
                                            memory_budget=budget)
                        assert np.max(np.abs(c - oracle)) < 1e-12, (kind, n, rho)
                b2 = action_grids[0][0].points[2]
                lose = -(b2 ** rho) if kind == "all_pay" else 0.0
                assert np.max(np.abs(c[:, 2] - lose)) < 1e-15, (kind, n, rho)


def test_highest_bid_row_one_hot_opponent():
    mech, prior, action_grids, strategies = ipv_setting(k=4, l=4)
    onehot = strategies[1].matrix * 0
    onehot[:, 2] = prior.marginals[1]  # opponent always bids b*=2/3
    opp = strategies[1].with_matrix(onehot)
    c = shared_gradient(mech, prior, action_grids, [opp, opp])
    b = action_grids[0][0].points
    o = prior.obs_grids[0].points
    win = (b[None, :] > b[2]).astype(float)
    assert np.allclose(c, (o[:, None] - b[None, :]) * win, atol=1e-15)


def test_highest_bid_row_win_mass_conservation():
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


def test_highest_bid_row_speed_many_agents():
    import time
    mech, prior, action_grids, strategies = ipv_setting(n=10, k=64, l=64)
    t0 = time.perf_counter()
    c = shared_gradient(mech, prior, action_grids, [strategies[0]] * 10)
    assert time.perf_counter() - t0 < 1.0
    assert c.shape == (64, 64)


def test_engine_paths_agree():
    mech, prior, action_grids, strategies = ipv_setting(kind="spsb", n=2, k=5, l=6, seed=9)
    c_affine = GradientEngine(mech, prior, action_grids).gradient(strategies, 0)
    for c in tensor_gradients(mech, prior, action_grids, strategies, 0):
        assert np.max(np.abs(c_affine - c)) < 1e-12


def test_engine_path_selection():
    mech, prior, action_grids, _ = ipv_setting(n=2, k=4, l=4)
    # the payoff picks the path and the prior the weights, whatever the groups
    for groups in ([[0, 1]], None):
        engine = GradientEngine(mech, prior, action_grids, groups=groups)
        assert engine.path == "affine" and sorted(engine._top_bids) == [0, 1]
    mech_ra = SingleObjectAuction("fpsb", 2, risk_rho=0.5)
    assert GradientEngine(mech_ra, prior, action_grids).path == "tensor"
    # the memory budget sets the tensor path's chunk size, not the path
    assert GradientEngine(mech_ra, prior, action_grids,
                          memory_budget=200).path == "tensor"
    # asymmetric marginals: the agents cannot form one group, and singleton
    # groups take the general paths
    lopsided = prior_from_weights([make_uniform_grid(0, 1, 4)] * 2,
                                  [lambda x: np.ones_like(x), lambda x: x + 0.1])
    with pytest.raises(ValueError, match="not interchangeable"):
        GradientEngine(mech, lopsided, action_grids, groups=[[0, 1]])
    assert GradientEngine(mech, lopsided, action_grids, groups=[[0], [1]]).path == "affine"
    with pytest.raises(ValueError, match="partition"):
        GradientEngine(mech, prior, action_grids, groups=[[0], [0, 1]])
    # contests weight the opponents by the product of their marginals, even
    # with one group
    contest = GradientEngine(TullockContest(1.0, 2), prior, action_grids, groups=[[0, 1]])
    assert contest.path == "affine" and not contest._top_bids
    # a prior whose one block holds every agent weights them as block-mates
    assert not GradientEngine(mech, one_block(prior), action_grids)._top_bids


def test_engine_chunked_matches_on_risk_averse():
    mech, prior, action_grids, strategies = ipv_setting(kind="all_pay", k=6, l=7, rho=0.5)
    full = GradientEngine(mech, prior, action_grids)
    tiny = GradientEngine(mech, prior, action_grids, memory_budget=1000)
    assert full.path == tiny.path == "tensor"
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

    def _contract_utilities(self, agent, w, own_vals):
        a, b = self._affine_parts(agent)
        chunk = max(1, int(self.budget // (8 * a.size)))
        c = np.zeros((w.shape[-2], a.shape[0]))
        for s in range(0, own_vals.size, chunk):
            e = min(s + chunk, own_vals.size)
            u = own_vals[s:e, None, None] * a + b
            u = np.sign(u) * np.abs(u) ** self.mech.risk_rho
            if w.ndim == 3:
                c += np.matmul(w[s:e], u.transpose(0, 2, 1)).sum(axis=0)
            else:
                c[s:e] = np.matmul(u, w[s:e, :, None])[..., 0]
        return c


def risk_averse_settings():
    """(label, mech, prior, action_grids, profile, path, bytes of one own value's
    ex-post utilities), all on the tensor path at risk_rho = 0.5: LLG and
    common value, and first price with one group of three sharing a strategy
    (the order-statistic row of the factorized branch)."""
    cfg = config_from_mapping({**get_preset("llg_nz_g05"), "risk_rho": 0.5, "obs_points": 7,
                               "action_points": 6})
    llg = build_problem(cfg)
    prior = llg.discretize()
    profile = [init_strategy("random", prior.obs_grids[i], llg.action_grids[i],
                             prior.marginals[i], seed=i) for i in range(3)]
    yield "llg", llg.mech, prior, llg.action_grids, profile, "tensor", 8 * 6 ** 3
    mech, prior, action_grids, strategies = ipv_setting(n=3, k=9, l=11, rho=0.5, seed=4)
    yield "fpsb", mech, prior, action_grids, [strategies[0]] * 3, "tensor", 8 * 11 ** 2
    og = [make_uniform_grid(0, 2, 3)] * 3
    prior = CommonValuePrior(3, sample_count=100_000, seed=3).discretize(
        og, make_uniform_grid(0, 1, 5))
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
        groups = [[0, 1, 2]] if label == "fpsb" else None
        engine = GradientEngine(mech, prior, action_grids, memory_budget=budget,
                                groups=groups)
        reference = OneExpressionEngine(mech, prior, action_grids, memory_budget=budget,
                                        groups=groups)
        assert engine.path == path and (label == "fpsb") == bool(engine._top_bids)
        for agent in range(1 if groups else 3):
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
    joint = np.outer(*prior.marginals)
    if agent == 1:
        joint = joint.T
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
    prior = prior_from_weights(og, [lambda x: x, lambda x: 3.0 - x])
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
    # distinct value-weighted and plain weights take the kernel twice, the
    # second time for the B part only
    model = CommonValuePrior(2, sample_count=100_000, seed=0)
    og = [make_uniform_grid(0, 2, 3)] * 2
    vg = make_uniform_grid(0, 1, 4)
    prior = model.discretize(og, vg)
    _, _, action_grids, _ = split_tie_setting("scaled")
    strategies = [init_strategy("random", og[i], action_grids[i], prior.marginals[i],
                                seed=i) for i in range(2)]
    ratio = prior.value_weighted_joint() / prior.obs_joint
    assert np.ptp(ratio[prior.obs_joint > 0]) > 0.1  # not a multiple of the joint
    for cost_model in ("scaled", "constant"):
        mech = SplitAwardAuction(0.3, cost_model)
        engine = GradientEngine(mech, prior, action_grids)
        for agent in range(2):
            c = engine.gradient(strategies, agent)
            oracle = naive_gradient(mech, prior, strategies, agent)
            assert np.max(np.abs(c - oracle)) < 1e-12, (cost_model, agent)


def test_split_award_matches_naive_on_correlated_private_prior():
    # a block mass that is not the product of its marginals: the opponent is a
    # block-mate, weighted per own observation, so the weights do not reduce
    # to one row; the kernel takes them as full rows over the opponent's
    # actions, with r = [1], as on a dense prior
    _, prior, action_grids, _ = split_tie_setting("scaled")
    rng = np.random.default_rng(5)
    joint = rng.random((3, 4)) * (1.0 + np.eye(3, 4))
    joint[1, 2] = 0.0
    joint /= joint.sum()
    correlated = DiscretePrior(prior.obs_grids, (joint.sum(axis=1), joint.sum(axis=0)), None,
                               components=(Component(1.0, (((0, 1), joint),)),))
    strategies = [init_strategy("random", correlated.obs_grids[i], action_grids[i],
                                correlated.marginals[i], seed=i) for i in range(2)]
    for cost_model in ("scaled", "constant"):
        mech = SplitAwardAuction(0.3, cost_model)
        engine = GradientEngine(mech, correlated, action_grids)
        assert engine.path == "affine" and sorted(engine._kernels) == [0, 1]
        for agent in range(2):
            seen, kernel = [], engine._kernels[agent]

            def recording(g, r, kernel=kernel):
                seen.append((g.shape, r.tolist()))
                return kernel(g, r)

            engine._kernels[agent] = recording
            c = engine.gradient(strategies, agent)
            shape = strategies[1 - agent].matrix.shape
            assert seen == [((correlated.obs_grids[agent].count, shape[1]), [1.0])]
            oracle = naive_gradient(mech, correlated, strategies, agent)
            assert np.max(np.abs(c - oracle)) < 1e-12, (cost_model, agent)
            assert c.flags.c_contiguous


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


def factorized_settings():
    """(label, mech, prior, action_grids) on independent private values,
    every agent with a marginal of its own, all on the affine path:
    two-agent Tullock (dense A and B), three-agent LLG with equal action counts
    (so a wrong order of the opponents' marginals changes values, not shapes),
    first price with a zero-mass cell in each marginal, and the split-award
    kernel on tie grids."""
    og = [make_uniform_grid(0, 1, 3), make_uniform_grid(0, 1, 4)]
    prior = prior_from_weights(og, [lambda x: np.ones_like(x), lambda x: x + 0.5])
    action_grids = [(make_uniform_grid(0, 1, 3),), (make_uniform_grid(0, 1, 4),)]
    yield "tullock", TullockContest(1.0, 2), prior, action_grids
    og = [make_uniform_grid(0, 1, 3), make_uniform_grid(0, 1, 3), make_uniform_grid(0, 2, 3)]
    prior = prior_from_weights(og, [lambda x: np.ones_like(x), lambda x: x + 0.2,
                                    lambda x: 2.5 - x])
    action_grids = [(make_uniform_grid(0, 1, 3),), (make_uniform_grid(0, 1, 3),),
                    (make_uniform_grid(0, 2, 3),)]
    yield "llg", LLGAuction("NZ"), prior, action_grids
    og = [make_uniform_grid(0, 1, 4)] * 2
    prior = prior_from_weights(og, [lambda x: x, lambda x: 1.0 - x])
    yield "zero_mass", SingleObjectAuction("fpsb", 2), prior, [(make_uniform_grid(0, 1, 5),)] * 2
    mech, prior, action_grids, _ = split_tie_setting("scaled")
    yield "split_award", mech, prior, action_grids


def with_strategies(settings):
    for label, mech, prior, action_grids in settings:
        strategies = [init_strategy("random", prior.obs_grids[i], action_grids[i],
                                    prior.marginals[i], seed=7 + i)
                      for i in range(prior.n_agents)]
        yield label, mech, prior, action_grids, strategies


def test_factorized_affine_gradient_matches_naive():
    for label, mech, prior, action_grids, strategies in with_strategies(factorized_settings()):
        assert prior.independent and prior.value_joint is None
        engine = GradientEngine(mech, prior, action_grids)
        assert engine.path == "affine"
        for agent in range(prior.n_agents):
            c = engine.gradient(strategies, agent)
            oracle = naive_gradient(mech, prior, strategies, agent)
            assert np.max(np.abs(c - oracle)) < 1e-12, (label, agent)
            dead = prior.marginals[agent] == 0
            assert np.all(c[dead] == 0.0), (label, agent)
        if label == "zero_mass":
            assert all(np.any(m == 0) for m in prior.marginals)


def asymmetric_highest_bid_settings():
    """(label, mech, prior, action_grids) for three agents on independent
    private values, each with a marginal and an observation grid of its own
    (agent 2's marginal has a zero-mass cell), in singleton groups: first
    price, second price and all-pay at risk_rho 1 and 0.5, every agent on one
    action grid, and first price with agent 2 on a grid of its own, so only
    agent 2's opponents bid on one grid."""
    og = [make_uniform_grid(0, 1, 3), make_uniform_grid(0, 1, 4), make_uniform_grid(0, 1.2, 3)]
    prior = prior_from_weights(og, [lambda x: np.ones_like(x), lambda x: x + 0.3,
                                    lambda x: np.maximum(1.0 - x, 0.0)])
    one_grid = [(make_uniform_grid(0, 1, 4),)] * 3
    for kind in ("fpsb", "spsb", "all_pay"):
        for rho in (1.0, 0.5):
            yield f"{kind}_{rho}", SingleObjectAuction(kind, 3, risk_rho=rho), prior, one_grid
    mixed = [(make_uniform_grid(0, 1, 4),), (make_uniform_grid(0, 1, 4),),
             (make_uniform_grid(0, 1.2, 5),)]
    for rho in (1.0, 0.5):
        yield f"mixed_{rho}", SingleObjectAuction("fpsb", 3, risk_rho=rho), prior, mixed


def test_highest_bid_row_matches_naive_on_asymmetric_agents():
    for label, mech, prior, action_grids, strategies in with_strategies(
            asymmetric_highest_bid_settings()):
        assert np.any(prior.marginals[2] == 0)
        engine = GradientEngine(mech, prior, action_grids)
        assert engine.path == ("affine" if mech.risk_rho == 1.0 else "tensor")
        # the opponents' highest bid where they share a grid, else the product row
        assert sorted(engine._top_bids) == ([2] if label.startswith("mixed") else [0, 1, 2])
        for agent in range(3):
            c = engine.gradient(strategies, agent)
            oracle = naive_gradient(mech, prior, strategies, agent)
            assert np.max(np.abs(c - oracle)) < 1e-12, (label, agent)
            assert np.all(c[prior.marginals[agent] == 0] == 0.0), (label, agent)


def test_factorized_branch_skips_opponent_weights(monkeypatch):
    calls = []
    original = GradientEngine._opponent_weights

    def spy(self, w, strategies, agent):
        calls.append(agent)
        return original(self, w, strategies, agent)

    monkeypatch.setattr(GradientEngine, "_opponent_weights", spy)
    settings = list(with_strategies(factorized_settings()))
    settings += with_strategies(asymmetric_highest_bid_settings())
    settings += [s[1:] for s in (*llg_component_settings(), *interleaved_component_settings())]
    for _, mech, prior, action_grids, strategies in settings:
        engines = [GradientEngine(mech, prior, action_grids)]
        if mech.risk_rho == 1.0:
            engines.append(tensor_engine(mech, prior, action_grids))
        for engine in engines:
            for agent in range(prior.n_agents):
                engine.gradient(strategies, agent)
    assert calls == []
    # a binned prior holds a dense joint, which still takes the GEMMs
    og = [make_uniform_grid(0, 2, 3)] * 2
    common = CommonValuePrior(2, sample_count=100_000, seed=0).discretize(
        og, make_uniform_grid(0, 1, 4))
    assert common.components is None
    grids = [(make_uniform_grid(0, 1.5, 3),)] * 2
    profile = [init_strategy("random", og[i], grids[i], common.marginals[i], seed=i)
               for i in range(2)]
    for make in (GradientEngine, tensor_engine):
        make(SingleObjectAuction("spsb", 2), common, grids).gradient(profile, 1)
    assert calls == [1, 1]


def llg_component_settings():
    """(label, groups, mech, prior, action_grids, profile) on the exact LLG
    prior: the four payment rules at gamma 0, 0.5 and 1 and risk_rho 1 and
    0.5, with the locals grouped (one grid, one shared strategy) and as
    singletons (unequal grids and strategies, so the shared block is the
    intersection of their cells, not a diagonal)."""
    for rule in ("NZ", "NVCG", "NB", "first_price"):
        for gamma in (0.0, 0.5, 1.0):
            for rho in (1.0, 0.5):
                for grouped in (True, False):
                    og = [make_uniform_grid(0, 1, 3), make_uniform_grid(0, 1, 3 if grouped else 4),
                          make_uniform_grid(0, 2, 3)]
                    prior = BernoulliWeightsLLGPrior(gamma).discretize(og)
                    action_grids = [(make_uniform_grid(0, 1, 3),)] * 2 + \
                        [(make_uniform_grid(0, 2, 3),)]
                    profile = [init_strategy("random", og[i], action_grids[i],
                                             prior.marginals[i], seed=5 + i) for i in range(3)]
                    if grouped:
                        profile[1] = profile[0]
                    groups = [[0, 1], [2]] if grouped else None
                    yield (f"{rule}_{gamma}_{rho}_{'grouped' if grouped else 'singleton'}",
                           groups, LLGAuction(rule, risk_rho=rho), prior, action_grids, profile)


def interleaved_component_settings():
    """(label, groups, mech, prior, action_grids, profile) on a hand-built
    three-agent prior of two components: agents 0 and 2 share a block (so a
    block-mate's axes and the other blocks' interleave in agent order), agent
    1's block mass in that component is not its marginal, and in the other
    component no single-agent block is its agent's marginal; first and second
    price at risk_rho 1 and 0.5, agent 2 on an action grid of its own."""
    rng = np.random.default_rng(3)
    og = [make_uniform_grid(0, 1, 3), make_uniform_grid(0, 1, 4), make_uniform_grid(0, 1, 2)]

    def mass(*shape):
        x = rng.random(shape) + 0.1
        return x / x.sum()

    m02, m1a, m0, m1b, m2 = mass(3, 2), mass(4), mass(3), mass(4), mass(2)
    components = (Component(0.3, (((0, 2), m02), ((1,), m1a))),
                  Component(0.7, (((0,), m0), ((1,), m1b), ((2,), m2))))
    marginals = (0.3 * m02.sum(axis=1) + 0.7 * m0, 0.3 * m1a + 0.7 * m1b,
                 0.3 * m02.sum(axis=0) + 0.7 * m2)
    prior = DiscretePrior(og, marginals, None, components=components)
    # agent 2 bids on a grid of its own: the payoff is not symmetric in the
    # opponents, so their actions must meet A in agent order
    action_grids = [(make_uniform_grid(0, 1, 3),)] * 2 + [(make_uniform_grid(0, 1.2, 4),)]
    profile = [init_strategy("random", og[i], action_grids[i], marginals[i], seed=2 + i)
               for i in range(3)]
    for kind in ("fpsb", "spsb"):
        for rho in (1.0, 0.5):
            yield (f"interleaved_{kind}_{rho}", None, SingleObjectAuction(kind, 3, risk_rho=rho),
                   prior, action_grids, profile)


def test_component_prior_gradients_match_naive():
    """Both paths on component priors agree with the brute-force oracle, which
    weights each cell by the components' mass, summed with loops."""
    for label, groups, mech, prior, action_grids, profile in [
            *llg_component_settings(), *interleaved_component_settings()]:
        assert prior.components is not None
        agents = [0, 2] if groups else [0, 1, 2]
        oracles = {a: naive_gradient(mech, prior, profile, a) for a in agents}
        engines = [GradientEngine(mech, prior, action_grids, groups=groups)]
        if mech.risk_rho == 1.0:
            engines.append(tensor_engine(mech, prior, action_grids, groups=groups))
        for engine in engines:
            for a in agents:
                c = engine.gradient(profile, a)
                assert c.flags.c_contiguous, (label, engine.path, a)
                assert np.max(np.abs(c - oracles[a])) < 1e-12, (label, engine.path, a)


def test_split_award_kernel_one_row_matches_dense():
    """A component prior hands the kernel one row, once: G = [[1]] and R
    the opponent's action marginal."""
    for cost_model in ("scaled", "constant"):
        mech, prior, action_grids, strategies = split_tie_setting(cost_model)
        engine = GradientEngine(mech, prior, action_grids)
        for agent in range(2):
            seen = []
            kernel = engine._kernels[agent]

            def recording(g, r, kernel=kernel):
                seen.append((g.tolist(), r.shape))
                return kernel(g, r)

            engine._kernels[agent] = recording
            c = engine.gradient(strategies, agent)
            opp = strategies[1 - agent]
            assert seen == [([[1.0]], (opp.matrix.shape[1],))]
            assert np.max(np.abs(c - naive_gradient(mech, prior, strategies, agent))) < 1e-12
            pi = opp.matrix.sum(axis=0)[None]
            own, theirs = strategies[agent].action_values(), opp.action_values()
            mine = (own[:, 0:1], own[:, 1:2])
            theirs = (theirs[None, :, 0], theirs[None, :, 1])
            a, b = mech.affine_parts(agent, [mine, theirs] if agent == 0 else [theirs, mine])
            for got, dense in zip(kernel(np.ones((1, 1)), pi[0]), (pi @ a.T, pi @ b.T)):
                assert got.shape == (1, own.shape[0]) and got.flags.c_contiguous
                assert np.max(np.abs(got - dense)) < 1e-12, (cost_model, agent)


def layout_settings():
    """(label, engine, profile) for every gradient path, the kernel on an
    interdependent prior included; the label starts with the path's name, or
    with "kernel" for the split-award kernel on the affine path."""
    mech, prior, action_grids, strategies = ipv_setting(n=3, k=5, l=6, seed=3)
    yield "affine_shared", GradientEngine(mech, prior, action_grids, groups=[[0, 1, 2]]), \
        [strategies[0]] * 3
    mech_ra = SingleObjectAuction("fpsb", 3, risk_rho=0.5)
    yield "tensor_shared", GradientEngine(mech_ra, prior, action_grids, groups=[[0, 1, 2]]), \
        [strategies[0]] * 3
    yield "affine_factorized", GradientEngine(mech, prior, action_grids), strategies
    yield "tensor_factorized", GradientEngine(mech_ra, prior, action_grids), strategies
    cfg = config_from_mapping({**get_preset("llg_nz_g05"), "obs_points": 5,
                               "action_points": 4})
    llg = build_problem(cfg)
    llg_prior = llg.discretize()
    profile = [init_strategy("random", llg_prior.obs_grids[i], llg.action_grids[i],
                             llg_prior.marginals[i], seed=i) for i in range(3)]
    yield "affine_components", GradientEngine(llg.mech, llg_prior, llg.action_grids), profile
    yield "tensor_components", tensor_engine(llg.mech, llg_prior, llg.action_grids), profile
    held = one_block(llg_prior)
    yield "affine_one_block", GradientEngine(llg.mech, held, llg.action_grids), profile
    yield "tensor_one_block", tensor_engine(llg.mech, held, llg.action_grids), profile
    og = [make_uniform_grid(0, 2, 3)] * 2
    common = CommonValuePrior(2, sample_count=100_000, seed=0).discretize(
        og, make_uniform_grid(0, 1, 4))
    spsb_grids = [(make_uniform_grid(0, 1.5, 3),)] * 2
    profile = [init_strategy("random", og[i], spsb_grids[i], common.marginals[i], seed=i)
               for i in range(2)]
    yield "affine_interdependent", GradientEngine(SingleObjectAuction("spsb", 2), common,
                                                  spsb_grids), profile
    split, tie_prior, split_grids, strategies = split_tie_setting("scaled")
    yield "kernel", GradientEngine(split, tie_prior, split_grids), strategies
    profile = [init_strategy("random", og[i], split_grids[i], common.marginals[i], seed=i)
               for i in range(2)]
    yield "kernel_interdependent", GradientEngine(split, common, split_grids), profile


def test_gradients_are_c_contiguous():
    for label, engine, profile in layout_settings():
        for agent in range(engine.prior.n_agents):
            c = engine.gradient(profile, agent)
            assert c.shape == profile[agent].matrix.shape, label
            assert c.flags.c_contiguous, (label, agent)
        path = label.split("_")[0]
        assert engine.path == ("affine" if path == "kernel" else path), label
        assert (path == "kernel") == bool(engine._kernels), label


def assert_kernel_matches_dense(engine, strategies, agent, label):
    """The kernel's own (W . A, W . B) and the gradient it serves agree to
    1e-12 with the dense ``_affine_parts`` of the engine, contracted with its
    weight rows G x R; returns the gradient."""
    c = engine.gradient(strategies, agent)
    a, b = engine._affine_parts(agent)
    w = engine._weight_rows(strategies, agent)
    wa, wb = w @ a.T, w @ b.T
    dense = engine.prior.obs_grids[agent].points[:, None] * wa + wb
    dense[~(engine.prior.marginals[agent] > 0)] = 0.0
    assert np.max(np.abs(c - dense)) < 1e-12, (label, agent)
    g, r = engine._opponent_factors(strategies, agent)
    ka, kb = engine._kernels[agent](g, r)
    # one kernel row per row of G: all own observations, or the one they share
    for got, want in ((ka, wa[:g.shape[0]]), (kb, wb[:g.shape[0]])):
        assert got.shape == (g.shape[0], wa.shape[1]) and got.flags.c_contiguous, (label, agent)
        assert np.max(np.abs(got - want)) < 1e-12, (label, agent)
    return c


def llg_tie_settings():
    """(label, groups, prior, action_grids, profile) for first-price LLG on
    dyadic action grids, where local bid sums land exactly on global grid
    points: the exact LLG prior at gamma 0.1, 0.5 and 0.9 with the locals
    grouped and as singletons on grids of one size but unequal points (so
    swapping the own and the mate's axis changes values, not shapes), and the
    three-agent common-value prior, whose weights come as full rows, with the
    locals on grids of unequal size."""
    locals_ = [make_uniform_grid(0, 1, 5), make_uniform_grid(0, 0.5, 5)]
    glob = make_uniform_grid(0, 2, 5)
    for gamma in (0.1, 0.5, 0.9):
        for grouped in (True, False):
            og = [make_uniform_grid(0, 1, 3), make_uniform_grid(0, 1, 3 if grouped else 4),
                  make_uniform_grid(0, 2, 3)]
            prior = BernoulliWeightsLLGPrior(gamma).discretize(og)
            action_grids = [(locals_[0],), (locals_[0] if grouped else locals_[1],), (glob,)]
            profile = [init_strategy("random", og[i], action_grids[i], prior.marginals[i],
                                     seed=11 + i) for i in range(3)]
            if grouped:
                profile[1] = profile[0]
            yield (f"{gamma}_{'grouped' if grouped else 'singleton'}",
                   [[0, 1], [2]] if grouped else None, prior, action_grids, profile)
    og = [make_uniform_grid(0, 2, 3)] * 3
    common = CommonValuePrior(3, sample_count=100_000, seed=1).discretize(
        og, make_uniform_grid(0, 1, 3))
    action_grids = [(locals_[0],), (make_uniform_grid(0, 1, 3),), (glob,)]
    profile = [init_strategy("random", og[i], action_grids[i], common.marginals[i],
                             seed=3 + i) for i in range(3)]
    yield "common_value", None, common, action_grids, profile


def test_llg_first_price_kernel_matches_dense_and_naive_on_tie_grids():
    mech = LLGAuction("first_price")
    for label, groups, prior, action_grids, profile in llg_tie_settings():
        bids = [g[0].points for g in action_grids]
        # exact ties between the locals' bid sum and the global bid
        assert np.any(np.isin(np.add.outer(bids[0], bids[1]), bids[2])), label
        engine = GradientEngine(mech, prior, action_grids, groups=groups)
        assert engine.path == "affine" and sorted(engine._kernels) == [0, 1, 2], label
        for agent in range(3):
            oracle = naive_gradient(mech, prior, profile, agent)
            if prior.components is None:  # dense rows meet the kernel in _affine_sums
                c = engine.gradient(profile, agent)
            else:
                c = assert_kernel_matches_dense(engine, profile, agent, label)
            assert np.max(np.abs(c - oracle)) < 1e-12, (label, agent)


@pytest.mark.parametrize("name", ["llg_first_price_g01", "llg_first_price_g05",
                                  "llg_first_price_g09"])
def test_llg_first_price_kernel_matches_dense_on_shipped_grids(name):
    problem = build_problem(config_from_mapping(get_preset(name)))
    prior = problem.discretize()
    bids = [g[0].points for g in problem.action_grids]
    assert all(b.size == 64 for b in bids)
    assert np.any(np.isin(np.add.outer(bids[0], bids[1]), bids[2]))  # ties on these grids too
    profile = [init_strategy("random", prior.obs_grids[i], problem.action_grids[i],
                             prior.marginals[i], seed=i) for i in range(3)]
    engine = GradientEngine(problem.mech, prior, problem.action_grids, groups=problem.groups)
    for agent in range(3):
        assert np.max(np.abs(assert_kernel_matches_dense(engine, profile, agent, name))) > 0.1


def test_llg_first_price_engine_holds_no_dense_parts():
    problem = build_problem(config_from_mapping(get_preset("llg_first_price_g05")))
    prior = problem.discretize()
    profile = [init_strategy("random", prior.obs_grids[i], problem.action_grids[i],
                             prior.marginals[i], seed=i) for i in range(3)]
    engine = GradientEngine(problem.mech, prior, problem.action_grids, groups=problem.groups)
    for agent in range(3):
        engine.gradient(profile, agent)
    assert not engine._affine_cache
    kernels = engine._kernels
    # the locals' tables are one 64 x 64 index table each, the global's the
    # sort order of the 64^2 bid sums and one index per own bid; with each
    # agent's minus own bids
    assert [k.nbytes for k in kernels.values()] == [(64 * 64 + 64) * 8] * 2 + \
        [(64 * 64 + 2 * 64) * 8]
    views = sum(own.nbytes for _, terms in engine._views.values()
                for _, own, _, _ in terms if own is not None)
    assert engine.cache_bytes() == views + sum(k.nbytes for k in kernels.values())
    # core rules and the tensor path have no kernel
    for rule in ("NZ", "NVCG", "NB"):
        assert not GradientEngine(LLGAuction(rule), prior, problem.action_grids)._kernels
    risk_averse = LLGAuction("first_price", risk_rho=0.5)
    assert not GradientEngine(risk_averse, prior, problem.action_grids)._kernels
