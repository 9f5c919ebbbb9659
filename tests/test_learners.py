import numpy as np
import pytest

from bnesolve.config import build_problem, config_from_mapping
from bnesolve.gradient import GradientEngine
from bnesolve.grids import make_uniform_grid
from bnesolve.learners import make_learner, project_rows_to_simplex, run, softmax_rows
from bnesolve.mechanisms import SingleObjectAuction
from bnesolve.presets import PRESETS, get_preset
from bnesolve.runner import solve
from bnesolve.strategy import init_strategy, iterate_distance
from oracles import enumerate_row_vertex_value, prior_from_weights, qp_project_simplex


def setting(k=4, l=4, n=2, kind="fpsb"):
    grids = [make_uniform_grid(0, 1, k)] * n
    prior = prior_from_weights(grids, [lambda x: np.ones_like(x)] * n)
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


# -- entropic mirror map -------------------------------------------------------

TINY = np.finfo(np.float64).tiny


def check_mirror_map(y, masses):
    """softmax_rows(y, masses), checked against the unshifted softmax row by row.

    Rows with mass below tiny * L keep all of it on their (unique) maximum;
    the test rows with more mass have masses far above tiny * L**2, where the
    dropped entries cannot move the kept ones by 1e-12 relative.
    """
    out = softmax_rows(y, masses)
    l = y.shape[1]
    assert np.all(np.isfinite(out)) and np.all(out >= 0)
    assert np.max(np.abs(out.sum(axis=1) - masses)) < 1e-12
    e = np.exp(y - y.max(axis=1, keepdims=True))
    ref = masses[:, None] * e / e.sum(axis=1, keepdims=True)
    dropped = out == 0
    assert np.all(ref[dropped] < TINY * l)
    for k, mass in enumerate(masses):
        kept = ~dropped[k]
        if mass < TINY * l:
            expected = np.zeros(l)
            expected[np.argmax(y[k])] = mass
            assert np.array_equal(out[k], expected)
        else:
            assert np.all(out[k, kept] >= TINY)  # no subnormals
            assert np.all(np.abs(out[k, kept] - ref[k, kept]) <= 1e-12 * ref[k, kept])
    return out


def test_mirror_map_zero_mass_row_stays_zero():
    y = np.random.default_rng(2).normal(0, 300, (3, 16))
    masses = np.array([0.0, 0.4, 0.6])
    with np.errstate(invalid="raise", divide="raise"):
        softmax_rows(y, masses)
    out = check_mirror_map(y, masses)
    assert np.array_equal(out[0], np.zeros(16))


def test_mirror_map_mass_below_tiny_sits_on_the_row_maximum():
    y = np.array([[0.0, -0.1, 3.0, -800.0],
                  [1.0, 2.0, -0.5, 0.0],
                  [0.5, -2.0, 0.0, 1.0]])
    masses = np.array([1e-310, 3 * TINY, 1.0])  # below tiny, below tiny * L
    out = check_mirror_map(y, masses)
    assert out[0, 2] == 1e-310 and out[1, 1] == 3 * TINY


def test_mirror_map_dual_spread_beyond_1500():
    # offsets of +-3000 overflow or underflow exp without the row shift
    spread = np.array([0.0, -1600.0, -700.0, -20.0, -1501.0])
    y = np.stack([spread - 3000.0, spread + 3000.0, spread[::-1]])
    out = check_mirror_map(y, np.array([0.25, 0.75, 0.0]))
    assert out[0, 1] == 0.0 and out[0, 2] > 0.0  # -1600 dropped, -700 kept


def test_mirror_map_random_duals_hold_no_subnormals():
    rng = np.random.default_rng(7)
    y = rng.normal(0, 400, (40, 64)) + rng.uniform(-2000, 2000, (40, 1))
    masses = rng.uniform(0.001, 0.05, 40)
    masses[:2] = [0.0, 1e-310]
    out = check_mirror_map(y, masses)
    ordinary = out[2:]
    assert np.any(ordinary == 0) and np.any((ordinary > 0) & (ordinary < 1e-300))


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
    learner.reset(s)
    out1 = learner.step(s, c, 3)
    learner.reset(s)
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
        learner.reset(bad)


def test_entropic_steps_are_softmax_of_accumulated_gradients():
    mech, prior, action_grids = setting(k=5, l=6)
    s = rand_strategy(prior, action_grids, seed=11)
    learner = make_learner("soda1", eta0=3.0, beta=0.3)
    learner.reset(s)
    rng = np.random.default_rng(6)
    dual = np.log(s.matrix)
    for t in (1, 2, 3):
        c = rng.normal(0, 2, s.matrix.shape)
        out = learner.step(s, c, t)
        dual = dual + 3.0 * t ** -0.3 * c
    expected = np.exp(dual) / np.exp(dual).sum(axis=1, keepdims=True) * s.marginal[:, None]
    assert np.max(np.abs(out - expected)) < 1e-12


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
    # a rule has one name, the one in RULES
    for alias in ("soda1_entropic", "fp", "adam"):
        with pytest.raises(ValueError):
            make_learner(alias)
    with pytest.raises(ValueError):
        make_learner("soda1", eta0=-1.0)
    with pytest.raises(ValueError):
        make_learner("soda2", beta=1.5)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_learner_settings_build_and_step(name):
    # every step of the rule stays feasible on its own: run() checks each
    # iterate once, and this catches a rule that drifts off the polytope
    cfg = PRESETS[name]
    learner = make_learner(cfg["learner"], cfg["eta0"], cfg["step_beta"])
    mech, prior, action_grids = setting(k=5, l=6)
    s = rand_strategy(prior, action_grids, seed=12)
    learner.reset(s)
    rng = np.random.default_rng(7)
    for t in range(1, 21):
        out = learner.step(s, rng.normal(0, 1, s.matrix.shape), t)
        assert np.all(out >= 0), t
        assert np.max(np.abs(out.sum(axis=1) - s.marginal)) < 1e-12, t
        s = s.with_matrix(out)


def test_with_matrix_rejects_negative_entries_and_row_sum_drift():
    mech, prior, action_grids = setting(k=5, l=6)
    s = rand_strategy(prior, action_grids, seed=12)
    negative = s.matrix.copy()
    shift = negative[2, 3] + 1e-9
    negative[2, 3] -= shift  # -1e-9; the row sum is kept
    negative[2, 4] += shift
    with pytest.raises(ValueError, match="negative"):
        s.with_matrix(negative)
    drift = s.matrix.copy()
    drift[4] *= 1 + 1e-6
    with pytest.raises(ValueError, match="row sums"):
        s.with_matrix(drift)
    with pytest.raises(ValueError, match="shape"):
        s.with_matrix(s.matrix[:, 1:])
    same = s.with_matrix(s.matrix.copy())
    assert same.obs_grid is s.obs_grid and same.marginal is s.marginal
    assert np.array_equal(same.matrix, s.matrix) and same.matrix is not s.matrix


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
    res = run(GradientEngine(mech, prior, action_grids, groups=[[0, 1]]), rule="soda1",
              iterations=0, seed=1)
    assert res.termination == "max_iterations"
    assert res.iterations == 0
    assert np.max(np.abs(res.strategies[0].matrix.sum(axis=1)
                         - prior.marginals[0])) < 1e-12


def test_run_converges_and_certifies():
    mech, prior, action_grids = setting(k=16, l=16)
    res = run(GradientEngine(mech, prior, action_grids, groups=[[0, 1]]), rule="soda1",
              eta0=50.0, step_beta=0.05, iterations=1000, tolerance=1e-4,
              check_interval=10, seed=0)
    assert res.converged
    assert res.certificate.max_loss < 1e-4
    assert res.strategies[0] is res.strategies[1]  # shared group strategy


def test_entropic_truthful_start_moves_mass_off_the_diagonal():
    # the exact zeros of a truthful start must still be able to gain mass:
    # with a dual of log(0) = -inf they would stay zero forever
    mech, prior, action_grids = setting(k=16, l=16)
    res = run(GradientEngine(mech, prior, action_grids, groups=[[0, 1]]), rule="soda1",
              eta0=100.0, step_beta=0.05, iterations=50, tolerance=0.0, check_interval=10,
              init="truthful", seed=0)
    m = res.strategies[0].matrix
    assert 1.0 - np.trace(m) / m.sum() > 0.1


def test_entropic_shipped_fpsb_certifies_without_subnormals():
    problem = build_problem(config_from_mapping(get_preset("fpsb_2_uniform")))
    res = solve(problem, (1, 0))
    assert res.converged and res.iterations == 219
    m = res.strategies[0].matrix
    tiny = np.finfo(m.dtype).tiny
    assert np.count_nonzero((m != 0) & (np.abs(m) < tiny)) == 0


def test_entropic_shipped_presets_iteration_counts():
    # the mirror map must not drift: these counts hold since the dual form,
    # on priors that give each point its cell's probability
    for name, iterations in (("split_award_uniform", 89), ("tullock_r10_asym", 339)):
        problem = build_problem(config_from_mapping(get_preset(name)))
        assert problem.config.learner == "soda1"
        res = solve(problem, (1, 0))
        assert res.converged and res.iterations == iterations, name


@pytest.mark.parametrize("name", ["fpsb_sweep", "risk_fpsb_r05", "risk_fpsb_r07",
                                  "risk_fpsb_r09", "risk_fpsb_r10", "risk_allpay_r09",
                                  "risk_allpay_r10"])
def test_slow_single_object_presets_certify_within_their_cap(name):
    # these need more than the default 1000 iterations at seed (0, 0)
    problem = build_problem(config_from_mapping(get_preset(name)))
    assert problem.config.tolerance == 1e-4
    res = solve(problem, (0, 0))
    assert res.converged and res.certificate.max_loss < 1e-4, name
    assert 1000 < res.iterations < problem.config.iterations, name


def test_run_deterministic_histories():
    mech, prior, action_grids = setting(k=8, l=8)
    engine = GradientEngine(mech, prior, action_grids, groups=[[0, 1]])
    kw = dict(rule="soda2", eta0=1.0, step_beta=0.5, iterations=50,
              tolerance=0.0, check_interval=5, seed=42)
    r1 = run(engine, **kw)
    r2 = run(GradientEngine(mech, prior, action_grids, groups=[[0, 1]]), **kw)
    assert r1.loss_history == r2.loss_history
    assert r1.distance_history == r2.distance_history
    r3 = run(engine, **{**kw, "seed": 43})
    assert r1.loss_history != r3.loss_history


def test_run_gradients_precede_all_updates():
    mech, prior, action_grids = setting(k=4, l=4)

    class SpyEngine:
        def __init__(self):
            self.inner = GradientEngine(mech, prior, action_grids)
            self.snapshots = []
            self.prior, self.action_grids = prior, action_grids
            self.groups = [[0], [1]]
            self.path = self.inner.path
            self.cache_bytes = self.inner.cache_bytes

        def gradient(self, strategies, agent):
            self.snapshots.append((agent, [s.matrix.tobytes() for s in strategies]))
            return self.inner.gradient(strategies, agent)

    spy = SpyEngine()
    run(spy, rule="soma2", eta0=1.0, step_beta=0.5, iterations=5, tolerance=0.0,
        check_interval=10, seed=0)
    per_iter = [spy.snapshots[i:i + 2] for i in range(0, len(spy.snapshots), 2)]
    for pair in per_iter:
        # both agents' gradients saw the same profile snapshot
        assert pair[0][1] == pair[1][1]
    # and the profile did change between iterations
    assert per_iter[0][0][1] != per_iter[1][0][1]


def test_run_rejects_inconsistent_groups():
    mech, prior, action_grids = setting()
    # the engine checks its groups when it is built, before any run
    with pytest.raises(ValueError, match="partition"):
        run(GradientEngine(mech, prior, action_grids, groups=[[0], [0, 1]]),
            rule="soda1", iterations=1)
    grids = [make_uniform_grid(0, 1, 4), make_uniform_grid(0, 1, 4)]
    lopsided = prior_from_weights(grids, [lambda x: np.ones_like(x), lambda x: x + 0.1])
    with pytest.raises(ValueError, match="not interchangeable"):
        run(GradientEngine(mech, lopsided, action_grids, groups=[[0, 1]]),
            rule="soda1", iterations=1)


def test_run_final_certificate_when_not_converged():
    mech, prior, action_grids = setting(k=8, l=8)
    res = run(GradientEngine(mech, prior, action_grids, groups=[[0, 1]]), rule="soda1",
              eta0=0.01, step_beta=1.0, iterations=7, tolerance=1e-12,
              check_interval=100, seed=0)
    assert res.termination == "max_iterations"
    assert res.iterations == 7
    assert res.loss_history[-1][0] == 7  # certificate refers to the returned profile


def test_run_certifies_once_per_check_and_once_at_the_end():
    # the certificate schedule, read from the loss history, and one gradient
    # pass per iteration plus one for the returned profile
    mech, prior, action_grids = setting(k=16, l=16)

    class CountingEngine(GradientEngine):
        calls = 0

        def gradient(self, strategies, agent):
            self.calls += 1
            return super().gradient(strategies, agent)

    def schedule(**kw):
        engine = CountingEngine(mech, prior, action_grids, groups=[[0, 1]])
        res = run(engine, rule="soda1", eta0=50.0, step_beta=0.05, seed=0, **kw)
        assert res.certificate.iteration == res.loss_history[-1][0] == res.iterations
        # distances are kept for the certified iterations alone
        assert [t for t, _ in res.distance_history] == \
            [t for t, _ in res.loss_history if t > 0]
        assert engine.calls == res.iterations + 1
        return res.termination, [t for t, _ in res.loss_history]

    assert schedule(iterations=0) == ("max_iterations", [0])
    assert schedule(iterations=7, tolerance=0.0, check_interval=3) == \
        ("max_iterations", [2, 5, 6, 7])
    termination, checked = schedule(iterations=1000, tolerance=1e-4, check_interval=10)
    assert termination == "converged" and 9 < checked[-1] < 999
    assert checked == list(range(9, checked[-1] + 1, 10))


def test_run_aborts_on_non_finite_gradient():
    mech, prior, action_grids = setting()

    class NanEngine:
        path = "affine"
        groups = [[0], [1]]

        def __init__(self):
            self.prior, self.action_grids = prior, action_grids

        def gradient(self, strategies, agent):
            c = np.zeros_like(strategies[agent].matrix)
            c[0, 0] = np.nan
            raise FloatingPointError("non-finite gradient entries")

    with pytest.raises(FloatingPointError, match="iteration 1"):
        run(NanEngine(), rule="soda1", iterations=10, seed=0)


def test_run_emits_progress_records():
    mech, prior, action_grids = setting(k=8, l=8)
    records = []
    run(GradientEngine(mech, prior, action_grids, groups=[[0, 1]]), rule="soda1",
        eta0=50.0, step_beta=0.05, iterations=40, tolerance=0.0, check_interval=10,
        seed=0, progress=records.append)
    # one record per check and one for the certificate of the returned profile
    assert len(records) == 5
    assert all({"iteration", "losses", "max_loss", "distance"} <= set(r) for r in records)
    assert [r["iteration"] for r in records] == [9, 19, 29, 39, 40]


def test_run_progress_final_record_matches_the_result():
    mech, prior, action_grids = setting(k=8, l=8)
    records = []
    res = run(GradientEngine(mech, prior, action_grids, groups=[[0, 1]]), rule="soda1",
              eta0=50.0, step_beta=0.05, iterations=23, tolerance=0.0, check_interval=5,
              seed=0, progress=records.append)
    last = records[-1]
    assert last["iteration"] == res.iterations == res.certificate.iteration == 23
    assert last["losses"] == list(res.certificate.losses)
    assert last["max_loss"] == res.certificate.max_loss
    assert last["distance"] == res.distance_history[-1][1]
    assert [(r["iteration"], r["losses"]) for r in records] == \
        [(t, list(losses)) for t, losses in res.loss_history]


@pytest.mark.parametrize("groups", [[[0, 1]], [[0], [1]]])
def test_run_distance_history_is_each_certified_step(groups):
    # iterations not a multiple of check_interval: checks at 4, 9, 14, 19, the
    # pass before the last step (22) and the returned profile (23)
    mech, prior, action_grids = setting(k=8, l=8)
    engine = GradientEngine(mech, prior, action_grids, groups=groups)
    kw = dict(rule="soda1", eta0=50.0, step_beta=0.05, tolerance=0.0, check_interval=5,
              seed=3)
    res = run(engine, iterations=23, **kw)
    assert [t for t, _ in res.loss_history] == [4, 9, 14, 19, 22, 23]
    recorded = dict(res.distance_history)
    assert sorted(recorded) == [4, 9, 14, 19, 22, 23]
    reps = [g[0] for g in groups]
    for t in recorded:
        after = run(engine, iterations=t, **kw).strategies
        before = run(engine, iterations=t - 1, **kw).strategies
        assert recorded[t] == [iterate_distance(after[a], before[a]) for a in reps], t
