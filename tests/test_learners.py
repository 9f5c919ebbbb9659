import numpy as np
import pytest

from bnesolve.gradient import GradientEngine
from bnesolve.grids import make_uniform_grid
from bnesolve.learners import make_learner, project_rows_to_simplex, run
from bnesolve.mechanisms import SingleObjectAuction
from bnesolve.priors import independent_prior
from bnesolve.strategy import init_strategy
from oracles import enumerate_row_vertex_value, qp_project_simplex


def setting(k=4, l=4, n=2, kind="fpsb"):
    grids = [make_uniform_grid(0, 1, k)] * n
    prior = independent_prior(grids, [lambda x: np.ones_like(x)] * n)
    action_grids = [(make_uniform_grid(0, 1, l),)] * n
    return SingleObjectAuction(kind, n), prior, action_grids


def rand_strategy(prior, action_grids, seed=0, agent=0):
    return init_strategy("random", prior.obs_grids[agent], action_grids[agent],
                         prior.marginals[agent], seed=seed)


# -- projection ---------------------------------------------------------------

def test_projection_example_row():
    out = project_rows_to_simplex(np.array([[0.9, 0.3]]), np.array([1.0]))
    assert np.allclose(out, [[0.8, 0.2]], atol=1e-15)


def test_projection_feasible_point_unchanged():
    y = np.array([[0.2, 0.3, 0.5]])
    out = project_rows_to_simplex(y, np.array([1.0]))
    assert np.allclose(out, y, atol=1e-15)


def test_projection_zero_mass_row():
    out = project_rows_to_simplex(np.array([[0.4, -0.2], [1.0, 2.0]]),
                                  np.array([0.0, 0.5]))
    assert np.array_equal(out[0], [0.0, 0.0])
    assert out[1].sum() == pytest.approx(0.5, abs=1e-12)


def test_projection_matches_qp_oracle():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        l = rng.integers(2, 9)
        y = rng.normal(0, 2, l)
        mass = rng.uniform(0.05, 2.0)
        got = project_rows_to_simplex(y[None, :], np.array([mass]))[0]
        exact = qp_project_simplex(y, mass)
        assert np.max(np.abs(got - exact)) < 1e-9


# -- update rules -------------------------------------------------------------

def test_entropic_row_constant_gradient_is_fixed_point():
    mech, prior, action_grids = setting()
    s = rand_strategy(prior, action_grids, seed=3)
    learner = make_learner("soda1", eta0=2.0, beta=0.5)
    learner.reset(s)
    c = np.repeat(np.arange(4.0)[:, None], 4, axis=1)
    out = learner.step(s, c, t=1)
    assert np.max(np.abs(out - s.matrix)) < 1e-12


def test_entropic_softmax_example():
    # one live row with full mass: closed-form softmax arithmetic
    from bnesolve.strategy import Strategy
    g = make_uniform_grid(0, 1, 2)
    one = Strategy(np.array([[0.5, 0.5], [0.0, 0.0]]), g, (g,), np.array([1.0, 0.0]))
    learner = make_learner("soda1", eta0=1.0, beta=0.5)
    learner.reset(one)
    out = learner.step(one, np.array([[1.0, 0.0], [0.0, 0.0]]), 1)
    e = np.e
    assert out[0] == pytest.approx([e / (e + 1), 1 / (e + 1)], abs=1e-12)
    assert np.array_equal(out[1], [0.0, 0.0])


def test_entropic_shift_invariance():
    mech, prior, action_grids = setting()
    s = rand_strategy(prior, action_grids, seed=4)
    learner = make_learner("soda1", eta0=5.0, beta=0.5)
    rng = np.random.default_rng(0)
    c = rng.normal(0, 1, s.matrix.shape)
    out1 = learner.step(s, c, 3)
    out2 = learner.step(s, c + np.arange(4.0)[:, None], 3)
    assert np.max(np.abs(out1 - out2)) < 1e-12
    assert np.max(np.abs(out1.sum(axis=1) - s.marginal)) < 1e-12


def test_entropic_errors_on_dead_row():
    mech, prior, action_grids = setting()
    s = rand_strategy(prior, action_grids, seed=5)
    m = s.matrix.copy()
    m[1] = 0.0  # positive marginal but no mass anywhere: corrupt state
    learner = make_learner("soda1")
    bad = s
    bad.matrix = m
    with pytest.raises(ArithmeticError):
        learner.step(bad, np.zeros_like(m), 1)


def test_euclidean_dual_averaging():
    mech, prior, action_grids = setting()
    s = rand_strategy(prior, action_grids, seed=6)
    learner = make_learner("soda2", eta0=0.5, beta=0.5)
    learner.reset(s)
    # zero gradient forever: iterate stays at the (already feasible) start
    for t in (1, 2, 3):
        out = learner.step(s, np.zeros_like(s.matrix), t)
        assert np.max(np.abs(out - s.matrix)) < 1e-12
    # dual accumulation makes the first step match plain projected ascent
    learner2 = make_learner("soda2", eta0=0.5, beta=0.5)
    learner2.reset(s)
    ma = make_learner("soma2", eta0=0.5, beta=0.5)
    rng = np.random.default_rng(1)
    c = rng.normal(0, 1, s.matrix.shape)
    assert np.allclose(learner2.step(s, c, 1), ma.step(s, c, 1), atol=1e-14)


def test_mirror_ascent_zero_gradient_fixed_point():
    mech, prior, action_grids = setting()
    s = rand_strategy(prior, action_grids, seed=7)
    ma = make_learner("soma2", eta0=1.0, beta=0.5)
    out = ma.step(s, np.zeros_like(s.matrix), 1)
    assert np.max(np.abs(out - s.matrix)) < 1e-12


def test_frank_wolfe_first_step_jumps_to_best_response():
    mech, prior, action_grids = setting()
    s = rand_strategy(prior, action_grids, seed=8)
    fw = make_learner("sofw")
    rng = np.random.default_rng(2)
    c = rng.normal(0, 1, s.matrix.shape)
    out = fw.step(s, c, 1)
    idx = np.argmax(c, axis=1)
    expected = np.zeros_like(c)
    expected[np.arange(4), idx] = s.marginal
    assert np.array_equal(out, expected)
    flat = fw.step(s, np.ones_like(c), 1)
    assert np.all(flat[:, 0] == s.marginal)  # row-constant gradient: lowest index


def test_frank_wolfe_best_response_is_lp_optimal():
    mech, prior, action_grids = setting(k=3, l=3)
    s = rand_strategy(prior, action_grids, seed=9)
    rng = np.random.default_rng(3)
    c = rng.normal(0, 1, (3, 3))
    from bnesolve.verify import best_response_matrix
    br = best_response_matrix(c, s.marginal)
    assert np.vdot(br, c) == pytest.approx(
        enumerate_row_vertex_value(c, s.marginal), abs=1e-12)


def test_fictitious_play_average():
    mech, prior, action_grids = setting()
    s = rand_strategy(prior, action_grids, seed=10)
    fp = make_learner("fictitious_play")
    rng = np.random.default_rng(4)
    c = rng.normal(0, 1, s.matrix.shape)
    out = fp.step(s, c, 1)
    from bnesolve.verify import best_response_matrix
    assert np.array_equal(out, best_response_matrix(c, s.marginal))
    # constant best response: the average converges to it
    cur = s
    for t in range(1, 60):
        cur = cur.with_matrix(fp.step(cur, c, t))
    assert np.max(np.abs(cur.matrix - best_response_matrix(c, s.marginal))) < 0.05


def test_rule_aliases_and_unknown():
    assert make_learner("soda1_entropic").rule == "soda1"
    assert make_learner("fp").rule == "fictitious_play"
    with pytest.raises(ValueError):
        make_learner("adam")
    with pytest.raises(ValueError):
        make_learner("soda1", eta0=-1.0)
    with pytest.raises(ValueError):
        make_learner("soda2", beta=1.5)


def test_feasibility_preserved_under_random_steps():
    mech, prior, action_grids = setting(k=3, l=5)
    rng = np.random.default_rng(5)
    for trial in range(200):
        rule = ("soda1", "soda2", "soma2", "sofw", "fictitious_play")[trial % 5]
        learner = make_learner(rule, eta0=float(rng.uniform(0.01, 50)), beta=0.5)
        s = rand_strategy(prior, action_grids, seed=trial)
        learner.reset(s)
        c = rng.normal(0, 3, s.matrix.shape)
        out = learner.step(s, c, int(rng.integers(1, 50)))
        assert np.all(out >= 0)
        assert np.max(np.abs(out.sum(axis=1) - s.marginal)) < 1e-10


# -- run loop -----------------------------------------------------------------

def test_run_zero_iterations_returns_initial():
    mech, prior, action_grids = setting()
    res = run(mech, prior, action_grids, rule="soda1", iterations=0, seed=1,
              groups=[[0, 1]])
    assert res.termination == "max_iterations"
    assert res.iterations == 0
    assert np.max(np.abs(res.strategies[0].matrix.sum(axis=1)
                         - prior.marginals[0])) < 1e-12


def test_run_converges_and_certifies():
    mech, prior, action_grids = setting(k=16, l=16)
    res = run(mech, prior, action_grids, rule="soda1", eta0=50.0, step_beta=0.05,
              iterations=1000, tolerance=1e-4, check_interval=10, seed=0,
              groups=[[0, 1]])
    assert res.converged
    assert res.certificate.max_loss < 1e-4
    assert res.strategies[0] is res.strategies[1]  # shared group strategy


def test_run_deterministic_histories():
    mech, prior, action_grids = setting(k=8, l=8)
    kw = dict(rule="soda2", eta0=1.0, step_beta=0.5, iterations=50,
              tolerance=0.0, check_interval=5, seed=42, groups=[[0, 1]])
    r1 = run(mech, prior, action_grids, **kw)
    r2 = run(mech, prior, action_grids, **kw)
    assert r1.loss_history == r2.loss_history
    assert r1.distance_history == r2.distance_history
    r3 = run(mech, prior, action_grids, **{**kw, "seed": 43})
    assert r1.loss_history != r3.loss_history


def test_run_gradients_precede_all_updates():
    mech, prior, action_grids = setting(k=4, l=4)

    class SpyEngine:
        def __init__(self):
            self.inner = GradientEngine(mech, prior, action_grids)
            self.snapshots = []
            self.path = self.inner.path
            self.cache_bytes = self.inner.cache_bytes

        def gradient(self, strategies, agent):
            self.snapshots.append((agent, [s.matrix.tobytes() for s in strategies]))
            return self.inner.gradient(strategies, agent)

    spy = SpyEngine()
    run(mech, prior, action_grids, rule="soma2", eta0=1.0, step_beta=0.5,
        iterations=5, tolerance=0.0, check_interval=10, seed=0,
        groups=[[0], [1]], engine=spy)
    per_iter = [spy.snapshots[i:i + 2] for i in range(0, len(spy.snapshots), 2)]
    for pair in per_iter:
        # both agents' gradients saw the same profile snapshot
        assert pair[0][1] == pair[1][1]
    # and the profile did change between iterations
    assert per_iter[0][0][1] != per_iter[1][0][1]


def test_run_rejects_inconsistent_groups():
    mech, prior, action_grids = setting()
    with pytest.raises(ValueError):
        run(mech, prior, action_grids, rule="soda1", iterations=1, groups=[[0], [0, 1]])
    grids = [make_uniform_grid(0, 1, 4), make_uniform_grid(0, 1, 4)]
    lopsided = independent_prior(grids, [lambda x: np.ones_like(x), lambda x: x + 0.1])
    with pytest.raises(ValueError, match="not interchangeable"):
        run(mech, lopsided, action_grids, rule="soda1", iterations=1, groups=[[0, 1]])


def test_run_final_certificate_when_not_converged():
    mech, prior, action_grids = setting(k=8, l=8)
    res = run(mech, prior, action_grids, rule="soda1", eta0=0.01, step_beta=1.0,
              iterations=7, tolerance=1e-12, check_interval=100, seed=0,
              groups=[[0, 1]])
    assert res.termination == "max_iterations"
    assert res.iterations == 7
    assert res.loss_history[-1][0] == 7  # certificate refers to the returned profile


def test_run_aborts_on_non_finite_gradient():
    mech, prior, action_grids = setting()

    class NanEngine:
        path = "affine"

        def gradient(self, strategies, agent):
            c = np.zeros_like(strategies[agent].matrix)
            c[0, 0] = np.nan
            raise FloatingPointError("non-finite gradient entries")

    with pytest.raises(FloatingPointError, match="iteration 1"):
        run(mech, prior, action_grids, rule="soda1", iterations=10, seed=0,
            groups=[[0], [1]], engine=NanEngine())


def test_run_emits_progress_records():
    mech, prior, action_grids = setting(k=8, l=8)
    records = []
    run(mech, prior, action_grids, rule="soda1", eta0=50.0, step_beta=0.05,
        iterations=40, tolerance=0.0, check_interval=10, seed=0,
        groups=[[0, 1]], progress=records.append)
    assert len(records) == 4
    assert all({"iteration", "losses", "max_loss", "distance"} <= set(r) for r in records)
    assert records[0]["iteration"] == 9 and records[-1]["iteration"] == 39
