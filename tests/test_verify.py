import numpy as np
import pytest

from bnesolve.gradient import GradientEngine, expected_utility
from bnesolve.grids import make_uniform_grid
from bnesolve.learners import run
from bnesolve.mechanisms import SingleObjectAuction
from bnesolve.strategy import Strategy, init_strategy
from bnesolve.verify import (best_response_matrix, collusive_profile,
                             relative_utility_loss, utility_loss, vs_probe)
from oracles import enumerate_row_vertex_value, prior_from_weights


def setting(k=4, l=4):
    grids = [make_uniform_grid(0, 1, k)] * 2
    prior = prior_from_weights(grids, [lambda x: np.ones_like(x)] * 2)
    action_grids = [(make_uniform_grid(0, 1, l),)] * 2
    return SingleObjectAuction("fpsb", 2), prior, action_grids


def test_best_response_examples():
    c = np.array([[1.0, 2.0], [3.0, 0.0]])
    br = best_response_matrix(c, np.array([0.5, 0.5]))
    assert np.array_equal(br, [[0.0, 0.5], [0.5, 0.0]])
    flat = best_response_matrix(np.ones((2, 3)), np.array([0.25, 0.75]))
    assert np.array_equal(flat, [[0.25, 0, 0], [0.75, 0, 0]])


def test_best_response_beats_every_feasible_strategy():
    rng = np.random.default_rng(0)
    c = rng.normal(0, 1, (3, 3))
    marginal = np.array([0.2, 0.5, 0.3])
    br = best_response_matrix(c, marginal)
    assert np.vdot(br, c) == pytest.approx(enumerate_row_vertex_value(c, marginal),
                                           abs=1e-12)
    g = make_uniform_grid(0, 1, 3)
    for seed in range(1000):
        s = init_strategy("random", g, [g], marginal, seed=seed)
        assert np.vdot(br, c) >= np.vdot(s.matrix, c) - 1e-12


def test_all_equal_gradient_ties_to_lowest_and_indifference():
    c = np.full((2, 3), 0.7)
    marginal = np.array([0.5, 0.5])
    br = best_response_matrix(c, marginal)
    assert np.array_equal(br[:, 0], marginal)
    g = make_uniform_grid(0, 1, 2)
    ag = make_uniform_grid(0, 1, 3)
    for seed in range(5):
        s = init_strategy("random", g, [ag], marginal, seed=seed)
        assert np.vdot(s.matrix, c) == pytest.approx(np.vdot(br, c), abs=1e-12)


def test_loss_zero_at_best_response():
    mech, prior, action_grids = setting()
    s = init_strategy("random", prior.obs_grids[0], action_grids[0],
                      prior.marginals[0], seed=1)
    engine = GradientEngine(mech, prior, action_grids)
    c = engine.gradient([s, s], 0)
    br = s.with_matrix(best_response_matrix(c, s.marginal))
    loss, _, _ = utility_loss(br, c)
    assert abs(loss) < 1e-12
    loss_s, u_cur, u_br = utility_loss(s, c)
    assert loss_s > 0 and u_br >= u_cur - 1e-12


def test_certificate_on_random_profile():
    mech, prior, action_grids = setting()
    profile = [init_strategy("random", prior.obs_grids[i], action_grids[i],
                             prior.marginals[i], seed=i) for i in range(2)]
    cert = relative_utility_loss(profile, prior, mech, tolerance=1e-4)
    assert len(cert.losses) == 2
    assert all(l > 0 for l in cert.losses)
    assert not cert.converged
    # symmetric relabeling leaves the loss profile unchanged
    cert_swapped = relative_utility_loss(profile[::-1], prior, mech, tolerance=1e-4)
    assert cert.losses == pytest.approx(cert_swapped.losses[::-1], abs=1e-12)


def test_hand_built_two_action_game_certificate():
    # all prior mass on one observation point with value 1, two bids {0, 0.5};
    # the no-winner tie rule makes (high, high) an equilibrium: undercutting
    # loses the good, matching ties pay nothing
    g = make_uniform_grid(0, 1, 2)
    ag = make_uniform_grid(0, 0.5, 2)
    prior = prior_from_weights([g, g], [lambda x: np.array([0.0, 1.0])] * 2)
    mech = SingleObjectAuction("fpsb", 2)
    marginal = np.array([0.0, 1.0])
    high = Strategy(np.array([[0.0, 0.0], [0.0, 1.0]]), g, (ag,), marginal)
    cert = relative_utility_loss([high, high], prior, mech)
    assert cert.losses == pytest.approx([0.0, 0.0], abs=1e-12)
    assert cert.converged
    # both bidding 0: deviating to 0.5 wins value 1 at price 0.5
    low = Strategy(np.array([[0.0, 0.0], [1.0, 0.0]]), g, (ag,), marginal)
    cert_low = relative_utility_loss([low, low], prior, mech)
    assert cert_low.losses == pytest.approx([1.0, 1.0], abs=1e-12)
    assert cert_low.best_response_utilities == pytest.approx([0.5, 0.5], abs=1e-15)
    # uniform mixing: u_cur = 0.125 against u_br = 0.25, so the loss is 1/2
    mixed = Strategy(np.array([[0.0, 0.0], [0.5, 0.5]]), g, (ag,), marginal)
    cert_mixed = relative_utility_loss([mixed, mixed], prior, mech)
    assert cert_mixed.losses == pytest.approx([0.5, 0.5], abs=1e-12)


def test_vs_probe_zero_at_equilibrium_point():
    mech, prior, action_grids = setting()
    s = init_strategy("random", prior.obs_grids[0], action_grids[0],
                      prior.marginals[0], seed=2)
    assert vs_probe(mech, prior, [s, s], [s, s]) == 0.0


def test_vs_probe_at_best_response_profile():
    mech, prior, action_grids = setting()
    star = [init_strategy("random", prior.obs_grids[i], action_grids[i],
                          prior.marginals[i], seed=10 + i) for i in range(2)]
    engine = GradientEngine(mech, prior, action_grids)
    brs = []
    for i in range(2):
        c = engine.gradient(star, i)
        brs.append(star[i].with_matrix(best_response_matrix(c, star[i].marginal)))
    value = vs_probe(mech, prior, star, brs, engine=engine)
    direct = 0.0
    for i in range(2):
        c = engine.gradient(brs, i)
        direct += expected_utility(brs[i], c) - expected_utility(star[i], c)
    assert value == pytest.approx(direct, abs=1e-12)


def test_collusive_probe_shades_bids():
    mech, prior, action_grids = setting(k=8, l=8)
    res = run(GradientEngine(mech, prior, action_grids, groups=[[0, 1]]), rule="soda1",
              eta0=50.0, step_beta=0.05, iterations=500, tolerance=1e-4,
              check_interval=10, seed=0)
    probe = collusive_profile(res.strategies)
    mean_eq = res.strategies[0].mean_bid_per_observation()[:, 0]
    mean_probe = probe[0].mean_bid_per_observation()[:, 0]
    assert np.all(mean_probe <= mean_eq + 1e-12)
    step = np.max(np.diff(action_grids[0][0].points))
    assert np.max(np.abs(mean_probe - 0.5 * mean_eq)) <= step
    assert np.max(np.abs(probe[0].matrix.sum(axis=1) - prior.marginals[0])) < 1e-12


def test_vs_probe_shape_mismatch():
    mech, prior, action_grids = setting()
    s = init_strategy("random", prior.obs_grids[0], action_grids[0],
                      prior.marginals[0], seed=2)
    other = init_strategy("uniform", prior.obs_grids[0],
                          (make_uniform_grid(0, 1, 5),), prior.marginals[0])
    with pytest.raises(ValueError):
        vs_probe(mech, prior, [s, s], [other, other])


def test_run_certifies_from_its_own_step_gradients():
    mech, prior, action_grids = setting(k=8, l=8)
    engine = GradientEngine(mech, prior, action_grids, groups=[[0, 1]])
    calls = []
    gradient = engine.gradient
    engine.gradient = lambda *a: calls.append(a[1]) or gradient(*a)
    res = run(engine, rule="soda1", iterations=20, tolerance=0.0, check_interval=5,
              seed=3)
    # one gradient per iteration, plus one for the final profile: checks add none
    assert len(calls) == 21
    cert = relative_utility_loss(res.strategies, prior, mech)
    assert cert.iteration == 0 and res.certificate.iteration == 20
    assert cert.losses[0] == pytest.approx(res.certificate.losses[0], abs=1e-12)
    assert cert.losses[0] == pytest.approx(cert.losses[1], abs=1e-12)
