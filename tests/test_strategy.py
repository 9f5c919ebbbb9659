import csv
import tracemalloc

import numpy as np
import pytest

from bnesolve.grids import make_uniform_grid
from bnesolve.strategy import (Strategy, init_strategy, iterate_distance, load_strategy,
                               save_strategy)


def simple_strategy(k=3, l=3, seed=0, marginal=None, ndim=1):
    og = make_uniform_grid(0, 1, k)
    ags = tuple(make_uniform_grid(0, 1, l) for _ in range(ndim))
    if marginal is None:
        marginal = np.full(k, 1.0 / k)
    return init_strategy("random", og, ags, marginal, seed=seed)


def test_uniform_init():
    s = init_strategy("uniform", make_uniform_grid(0, 1, 2),
                      [make_uniform_grid(0, 1, 2)], np.array([0.5, 0.5]))
    assert np.array_equal(s.matrix, [[0.25, 0.25], [0.25, 0.25]])


def test_truthful_init_diagonal():
    g = make_uniform_grid(0, 1, 3)
    s = init_strategy("truthful", g, [g], np.full(3, 1 / 3))
    assert np.allclose(s.matrix, np.eye(3) / 3)


def test_random_init_rows_sum_to_marginal():
    marginal = np.array([0.1, 0.0, 0.5, 0.4])
    for seed in range(5):
        s = simple_strategy(k=4, l=6, seed=seed, marginal=marginal)
        assert np.max(np.abs(s.matrix.sum(axis=1) - marginal)) < 1e-12
        assert np.all(s.matrix >= 0)


def test_unknown_init_mode():
    g = make_uniform_grid(0, 1, 2)
    with pytest.raises(ValueError):
        init_strategy("hopeful", g, [g], np.array([0.5, 0.5]))


def test_conditional():
    g = make_uniform_grid(0, 1, 2)
    s = Strategy(np.array([[0.1, 0.4], [0.2, 0.3]]), g, (g,), np.array([0.5, 0.5]))
    assert np.allclose(s.conditional(0), [0.2, 0.8])
    uni = init_strategy("uniform", g, [g], np.array([0.5, 0.5]))
    assert np.allclose(uni.conditional(1), [0.5, 0.5])


def test_conditional_zero_marginal_errors():
    g = make_uniform_grid(0, 1, 2)
    s = Strategy(np.array([[0.0, 0.0], [0.5, 0.5]]), g, (g,), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        s.conditional(0)
    with pytest.raises(ValueError):
        s.sample_bids([0.1], np.random.default_rng(0))


def test_sample_bids_truthful():
    g = make_uniform_grid(0, 1, 3)
    s = init_strategy("truthful", g, [g], np.full(3, 1 / 3))
    b = s.sample_bids([0.52, 0.1, 0.9], np.random.default_rng(0))
    assert b[:, 0].tolist() == [0.5, 0.0, 1.0]


def test_sample_bids_degenerate_row():
    g = make_uniform_grid(0, 1, 3)
    mat = np.zeros((3, 3))
    mat[:, 0] = 1 / 3
    s = Strategy(mat, g, (g,), np.full(3, 1 / 3))
    b = s.sample_bids(np.random.default_rng(1).uniform(0, 1, 100), np.random.default_rng(2))
    assert np.all(b == 0.0)


def test_sample_bids_empirical_matches_conditional():
    s = simple_strategy(k=4, l=5, seed=3)
    rng = np.random.default_rng(7)
    obs = np.full(100_000, 0.34)  # snaps to row 1
    b = s.sample_bids(obs, rng)[:, 0]
    freq = np.array([(b == v).mean() for v in s.action_grids[0].points])
    assert 0.5 * np.abs(freq - s.conditional(1)).sum() < 0.01


def table_sample_bids(strategy, observations, rng):
    """Reference sampler: gathers a full (draws x actions) CDF table."""
    obs = np.atleast_1d(np.asarray(observations, dtype=np.float64))
    k = strategy.obs_grid.nearest_index(obs)
    cdf = np.cumsum(strategy.conditionals(), axis=1)
    live = cdf[:, -1:] > 0
    np.divide(cdf, cdf[:, -1:], out=cdf, where=live)
    u = rng.random(obs.size)
    idx = np.minimum((cdf[k] < u[:, None]).sum(axis=1), strategy.action_count - 1)
    return strategy.action_values()[idx]


class FixedDraws:
    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def test_sample_bids_matches_table_formula():
    og = make_uniform_grid(1.0, 1.4, 5)
    ags = (make_uniform_grid(1.0, 2.5, 4), make_uniform_grid(0.3, 1.2, 3))
    s = init_strategy("random", og, ags, np.full(5, 0.2), seed=4)
    m = s.matrix.copy()
    m[:, [0, 5, 6, 11]] = 0.0  # zero-probability actions: flat CDF steps
    m[2] = 0.0
    m[2, 7] = 0.2  # a pure row
    s = s.with_matrix(m * (0.2 / m.sum(axis=1))[:, None])
    obs = np.random.default_rng(3).uniform(0.9, 1.5, 5000)
    got = s.sample_bids(obs, np.random.default_rng(8))
    assert np.array_equal(got, table_sample_bids(s, obs, np.random.default_rng(8)))
    # draws exactly on CDF values, including 0 and the flat steps
    cdf = np.cumsum(s.conditionals(), axis=1)
    cdf /= cdf[:, -1:]
    u = np.concatenate([[0.0], cdf[1], cdf[3], [0.5, 0.25, 1 - 2 ** -53]])
    obs = np.repeat(og.points[[1, 3]], u.size // 2 + 1)[:u.size]
    assert np.array_equal(s.sample_bids(obs, FixedDraws(u)),
                          table_sample_bids(s, obs, FixedDraws(u)))


def test_sample_bids_memory_is_linear_in_draws():
    og = make_uniform_grid(1.0, 1.4, 32)
    ags = (make_uniform_grid(1.0, 2.5, 64), make_uniform_grid(0.3, 1.2, 64))
    s = init_strategy("random", og, ags, np.full(32, 1 / 32), seed=0)
    obs = np.random.default_rng(0).uniform(1.0, 1.4, 1 << 18)
    tracemalloc.start()
    try:
        bids = s.sample_bids(obs, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bids.shape == (1 << 18, 2)
    assert peak < 64 << 20


def test_iterate_distance():
    g = make_uniform_grid(0, 1, 2)
    uni = init_strategy("uniform", g, [g], np.array([0.5, 0.5]))
    tru = init_strategy("truthful", g, [g], np.array([0.5, 0.5]))
    assert iterate_distance(uni, uni) == 0.0
    assert iterate_distance(uni, tru) == pytest.approx(0.5)
    assert iterate_distance(uni, tru) == iterate_distance(tru, uni)
    with pytest.raises(ValueError):
        iterate_distance(uni, simple_strategy(k=3, l=3))


def test_with_matrix_clamps_tiny_negatives():
    g = make_uniform_grid(0, 1, 2)
    s = init_strategy("uniform", g, [g], np.array([0.5, 0.5]))
    wobble = s.matrix.copy()
    wobble[0, 0] = -5e-15
    wobble[0, 1] = 0.5 + 5e-15
    fixed = s.with_matrix(wobble)
    assert np.all(fixed.matrix >= 0)
    assert np.max(np.abs(fixed.matrix.sum(axis=1) - s.marginal)) < 1e-12
    with pytest.raises(ValueError):
        s.with_matrix(np.array([[-0.1, 0.6], [0.25, 0.25]]))


def test_feasibility_validated():
    g = make_uniform_grid(0, 1, 2)
    with pytest.raises(ValueError):
        Strategy(np.array([[0.3, 0.3], [0.25, 0.25]]), g, (g,), np.array([0.5, 0.5]))


def test_multidim_action_layout_row_major():
    og = make_uniform_grid(0, 1, 2)
    a1 = make_uniform_grid(1.0, 2.5, 2)
    a2 = make_uniform_grid(0.3, 1.2, 3)
    s = init_strategy("uniform", og, [a1, a2], np.array([0.5, 0.5]))
    av = s.action_values()
    assert av.shape == (6, 2)
    assert av[0].tolist() == [1.0, 0.3]
    assert av[1].tolist() == [1.0, 0.75]  # second axis varies fastest
    assert av[3].tolist() == [2.5, 0.3]


def test_csv_round_trip_bit_exact(tmp_path):
    s = simple_strategy(k=5, l=4, seed=11)
    path = tmp_path / "strategy_agent0.csv"
    save_strategy(s, path, metadata={"mechanism": "fpsb", "iteration": 123, "seed": [1, 0]})
    loaded, meta = load_strategy(path)
    assert np.array_equal(loaded.matrix, s.matrix)
    assert np.array_equal(loaded.marginal, s.marginal)
    assert np.array_equal(loaded.obs_grid.points, s.obs_grid.points)
    assert meta["mechanism"] == "fpsb" and meta["iteration"] == 123


def test_csv_round_trip_two_dimensional(tmp_path):
    og = make_uniform_grid(1.0, 1.4, 3)
    ags = (make_uniform_grid(1.0, 2.5, 3), make_uniform_grid(0.3, 1.2, 2))
    marginal = np.array([0.25, 0.5, 0.25])
    s = init_strategy("random", og, ags, marginal, seed=5)
    path = tmp_path / "s.csv"
    save_strategy(s, path)
    loaded, _ = load_strategy(path)
    assert np.array_equal(loaded.matrix, s.matrix)
    assert len(loaded.action_grids) == 2
    assert np.array_equal(loaded.action_grids[1].points, ags[1].points)
    header = path.read_text().splitlines()[0]
    assert header == "obs_index,action_index,mass,obs_value,action_value_0,action_value_1"


def reference_save(strategy, path):
    """Row-by-row strategy writer that formats every cell with repr."""
    coords = strategy.action_values()
    ndim = strategy.action_ndim
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["obs_index", "action_index", "mass", "obs_value"]
                        + [f"action_value_{d}" for d in range(ndim)])
        for k in range(strategy.obs_grid.count):
            ov = repr(float(strategy.obs_grid.points[k]))
            for l in range(strategy.action_count):
                writer.writerow([k, l, repr(float(strategy.matrix[k, l])), ov]
                                + [repr(float(coords[l, d])) for d in range(ndim)])


def test_save_strategy_bytes_match_reference_writer(tmp_path):
    og = make_uniform_grid(1.0, 1.4, 7)
    ags = (make_uniform_grid(1.0, 2.5, 9), make_uniform_grid(0.3, 1.2, 5))
    marginal = np.random.default_rng(2).dirichlet(np.ones(7))
    s = init_strategy("random", og, ags, marginal, seed=6)
    m = s.matrix.copy()
    m[1, :3] = 0.0
    m[1] *= marginal[1] / m[1].sum()
    s = s.with_matrix(m)
    save_strategy(s, tmp_path / "new.csv")
    reference_save(s, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def reference_load(path, shape):
    """Row-by-row strategy reader: ``int`` indices and ``float`` masses per CSV row."""
    matrix = np.zeros(shape)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            matrix[int(row[0]), int(row[1])] = float(row[2])
    return matrix


def test_load_strategy_matches_reference_reader_bitwise(tmp_path):
    rng = np.random.default_rng(8)
    og = make_uniform_grid(1.0, 1.4, 8)
    ags = (make_uniform_grid(1.0, 2.5, 16), make_uniform_grid(0.3, 1.2, 8))
    marginal = rng.dirichlet(np.ones(8))
    kind = rng.random((8, 16 * 8))
    m = np.where(kind >= 0.5, rng.exponential(size=kind.shape), 0.0)
    m *= (marginal / m.sum(axis=1))[:, None]
    subnormal = kind < 0.4        # 40% subnormal entries, 10% exact zeros
    m[subnormal] = rng.uniform(0.0, 2.0e-308, int(subnormal.sum()))
    m.flat[np.flatnonzero(subnormal)[0]] = 5e-324    # the smallest subnormal
    s = Strategy(m, og, ags, marginal)
    save_strategy(s, tmp_path / "s.csv")
    loaded, _ = load_strategy(tmp_path / "s.csv")
    ref = reference_load(tmp_path / "s.csv", m.shape)
    assert np.count_nonzero((m > 0) & (m < np.finfo(float).tiny)) > 0.3 * m.size
    assert np.array_equal(loaded.matrix.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(loaded.matrix.view(np.uint64), m.view(np.uint64))
