import csv
import resource
import time
import tracemalloc

import numpy as np
import pytest

from bnesolve.config import build_problem, config_from_mapping
from bnesolve.gradient import expected_utility
from bnesolve.grids import make_uniform_grid
from bnesolve.presets import get_preset
from bnesolve.runner import solve
from bnesolve.strategy import (Strategy, flatten_action_grids, init_strategy,
                               iterate_distance, load_strategy, nearest_actions,
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
    assert np.allclose(s.conditionals()[0], [0.2, 0.8])
    uni = init_strategy("uniform", g, [g], np.array([0.5, 0.5]))
    assert np.allclose(uni.conditionals()[1], [0.5, 0.5])


def test_conditional_zero_marginal_errors():
    g = make_uniform_grid(0, 1, 2)
    s = Strategy(np.array([[0.0, 0.0], [0.5, 0.5]]), g, (g,), np.array([0.0, 1.0]))
    assert s.conditionals().tolist() == [[0.0, 0.0], [0.5, 0.5]]
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
    assert 0.5 * np.abs(freq - s.conditionals()[1]).sum() < 0.01


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


def table_sample_bids_in_chunks(strategy, observations, u, chunk=256):
    """The reference sampler on fixed draws, a few hundred at a time to bound its table."""
    return np.concatenate([table_sample_bids(strategy, observations[i:i + chunk],
                                             FixedDraws(u[i:i + chunk]))
                           for i in range(0, u.size, chunk)])


def sparse_strategy(k, action_counts, seed, zero_share):
    """Random strategy with most actions at zero probability (flat CDF steps),
    some masses near 1e-200, one pure row and one zero-mass row."""
    rng = np.random.default_rng(seed)
    og = make_uniform_grid(1.0, 1.4, k)
    ags = tuple(make_uniform_grid(0.3, 2.5, c) for c in action_counts)
    marginal = rng.dirichlet(np.ones(k))
    marginal[k // 3] = 0.0
    marginal /= marginal.sum()
    s = init_strategy("random", og, ags, marginal, seed=seed)
    m = s.matrix.copy()
    m[rng.random(m.shape) < zero_share] = 0.0
    m[:, 0] = np.maximum(m[:, 0], 1e-3)  # every row keeps some mass
    m[rng.random(m.shape) < 0.05] = 1e-200
    m[k // 2] = 0.0
    m[k // 2, m.shape[1] // 2] = 1.0  # a pure row
    m *= (marginal / m.sum(axis=1))[:, None]
    return s.with_matrix(m)


@pytest.mark.parametrize("k,action_counts,zero_share", [
    (32, (64, 64), 0.9),    # the split-award shape: 4096 flat actions on a 2-D grid
    (300, (16,), 0.5),      # more observation rows than a one-byte index holds
    (256, (256,), 0.8),     # the symmetric single-object shape
])
def test_sample_bids_matches_table_formula_on_large_grids(k, action_counts, zero_share):
    s = sparse_strategy(k, action_counts, seed=k, zero_share=zero_share)
    og = s.obs_grid
    live_points = og.points[s.marginal > 0]
    obs = np.random.default_rng(1).choice(live_points, 3000) \
        + np.random.default_rng(2).uniform(-0.4, 0.4, 3000) * (og.points[1] - og.points[0])
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    got = s.sample_bids(obs, rng)
    assert np.array_equal(got, table_sample_bids_in_chunks(s, obs, ref_rng.random(obs.size)))
    # the stream is where the reference leaves it
    assert rng.random() == ref_rng.random()
    # draws exactly on one row's CDF values and their neighbours, and outside [0, 1)
    row = int(np.flatnonzero(s.marginal > 0)[-1])
    cdf = np.cumsum(s.conditionals()[row])
    cdf /= cdf[-1]
    u = np.concatenate([cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 1),
                        [0.0, 1 - 2 ** -53, 1.0, -0.5, 1.5]])
    obs = np.full(u.size, og.points[row])  # every draw on one observation row
    assert np.array_equal(s.sample_bids(obs, FixedDraws(u)),
                          table_sample_bids_in_chunks(s, obs, u))


def test_sample_bids_cdf_values_and_draws_on_bucket_edges():
    # CDF values on, and one ulp-scale step below, multiples of 1/16, the
    # width of a guide bucket for 16 actions; dyadic masses keep them exact
    e = 2.0 ** -50
    targets = np.array([1 / 16 - e, 1 / 16, 1 / 16, 4 / 16, 6 / 16 - e, 6 / 16, 6 / 16, 6 / 16,
                        10 / 16, 10 / 16 + e, 11 / 16, 15 / 16 - e, 15 / 16, 1 - e, 1, 1])
    og = make_uniform_grid(0, 1, 4)
    ag = make_uniform_grid(0, 1, 16)
    row = np.diff(targets, prepend=0.0)
    s = Strategy(np.tile(row / 4, (4, 1)), og, (ag,), np.full(4, 0.25))
    assert np.array_equal(np.cumsum(s.conditionals()[2]), targets)
    edges = np.arange(17) / 16
    u = np.concatenate([targets, np.nextafter(targets, 0), np.nextafter(targets, 1),
                        edges, np.nextafter(edges, 0), np.nextafter(edges, 1)])
    obs = np.full(u.size, og.points[2])
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


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="needs per-thread rusage")
def test_certificate_and_distance_leave_no_thread_busy():
    # OpenBLAS threads a dot product of over 10k entries, and its workers then
    # spin for about 0.1 s; a certificate every few iterations kept a second
    # core busy for a whole solve
    a, b = simple_strategy(k=32, l=4096, seed=1), simple_strategy(k=32, l=4096, seed=2)

    def other_threads_cpu_s():
        proc = resource.getrusage(resource.RUSAGE_SELF)
        this = resource.getrusage(resource.RUSAGE_THREAD)
        return proc.ru_utime + proc.ru_stime - this.ru_utime - this.ru_stime

    time.sleep(0.3)  # workers woken by earlier tests go idle
    before = other_threads_cpu_s()
    for _ in range(5):
        expected_utility(a, b.matrix)
        iterate_distance(a, b)
    time.sleep(0.1)
    assert other_threads_cpu_s() - before < 0.03


# a NaN entry is refused by both as well: test_nan_entries_rejected
@pytest.mark.parametrize("entry, value, message", [
    ((0, 0), -1e-300, "nonnegative"),    # negative however tiny; the row sum is kept
    ((1, 0), 0.25 + 1e-9, "row sums"),   # a row-sum drift of 1e-9
])
def test_constructor_and_with_matrix_refuse_the_same_matrices(entry, value, message):
    g = make_uniform_grid(0, 1, 2)
    marginal = np.array([0.5, 0.5])
    m = np.full((2, 2), 0.25)
    m[entry] = value
    with pytest.raises(ValueError, match=message):
        Strategy(m, g, (g,), marginal)
    with pytest.raises(ValueError, match=message):
        init_strategy("uniform", g, [g], marginal).with_matrix(m)


def test_nearest_actions_on_split_award_grid_ties_to_lowest():
    problem = build_problem(config_from_mapping(get_preset("split_award_uniform")))
    axes = problem.action_grids[0]
    coords = flatten_action_grids(axes)
    rng = np.random.default_rng(3)
    targets = [rng.uniform([g.lower - 0.1 for g in axes], [g.upper + 0.1 for g in axes])
               for _ in range(200)]
    # midpoints of adjacent points along either axis that are equally far
    # from both in floating point; the other coordinate sits on a grid point
    ties = []
    for axis, other in ((0, 1), (1, 0)):
        p = axes[axis].points
        mid = (p[:-1] + p[1:]) / 2
        for j in np.flatnonzero((p[:-1] - mid) ** 2 == (p[1:] - mid) ** 2)[:5]:
            t = np.empty(2)
            t[axis], t[other] = mid[j], axes[other].points[7]
            ties.append(t)
    assert len(ties) == 10
    targets = np.array(targets + ties)
    idx = nearest_actions(coords, targets)
    loop = [np.argmin(((coords - t) ** 2).sum(axis=1)) for t in targets]
    assert np.array_equal(idx, loop)
    for t, l in zip(ties, idx[-len(ties):]):
        d = ((coords - t) ** 2).sum(axis=1)
        assert np.count_nonzero(d == d.min()) == 2 and l == np.flatnonzero(d == d.min())[0]


def test_feasibility_validated():
    g = make_uniform_grid(0, 1, 2)
    with pytest.raises(ValueError):
        Strategy(np.array([[0.3, 0.3], [0.25, 0.25]]), g, (g,), np.array([0.5, 0.5]))


@pytest.mark.parametrize("nan_rows", [[(0, 0)], [(1, 0), (1, 1)]])
def test_nan_entries_rejected(nan_rows):
    g = make_uniform_grid(0, 1, 2)
    marginal = np.array([0.5, 0.5])
    m = np.array([[0.25, 0.25], [0.25, 0.25]])
    for k, l in nan_rows:
        m[k, l] = np.nan
    with pytest.raises(ValueError, match="row sums"):
        Strategy(m, g, (g,), marginal)
    with pytest.raises(ValueError, match="row sums"):
        init_strategy("uniform", g, [g], marginal).with_matrix(m)


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


@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
def test_load_strategy_refuses_a_body_of_another_shape(tmp_path):
    s = simple_strategy(k=3, l=4, seed=2)
    path = tmp_path / "strategy_agent0.csv"
    save_strategy(s, path)
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    extra = [line.replace("\n", ",0x0.0p+0\n") for line in lines[1:]]
    bodies = {
        "a missing line": lines[1:3],
        "an extra line": lines[1:] + lines[-1:],
        "a short line": [lines[1], lines[2].rsplit(",", 1)[0] + "\n", lines[3]],
        "an extra column": [lines[1], extra[1], lines[3]],
        "an extra column on every line": extra,
        "no lines": [],
    }
    for body in bodies.values():
        path.write_text(lines[0] + "".join(body))
        with pytest.raises(ValueError, match="strategy_agent0.csv"):
            load_strategy(path)
    path.write_text(text)
    assert np.array_equal(load_strategy(path)[0].matrix, s.matrix)


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
    lines = path.read_text().splitlines()
    assert lines[0] == ("# strategy matrix: one line per observation, "
                        "one float.hex mass per action")
    assert len(lines) == 1 + 3 and all(line.count(",") == 3 * 2 - 1 for line in lines[1:])


def reference_save(strategy, path):
    """Entry-by-entry strategy writer: the header, then one line of float.hex masses
    per observation point."""
    with path.open("w", newline="") as fh:
        fh.write("# strategy matrix: one line per observation, one float.hex mass per action\n")
        writer = csv.writer(fh, lineterminator="\n")
        for k in range(strategy.obs_grid.count):
            writer.writerow([float.hex(float(strategy.matrix[k, l]))
                             for l in range(strategy.action_count)])


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


def reference_load(path):
    """Entry-by-entry strategy reader: ``float.fromhex`` per field of each line
    after the header."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([[float.fromhex(field) for field in row] for row in reader])


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
    ref = reference_load(tmp_path / "s.csv")
    assert np.count_nonzero((m > 0) & (m < np.finfo(float).tiny)) > 0.3 * m.size
    assert np.array_equal(loaded.matrix.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(loaded.matrix.view(np.uint64), m.view(np.uint64))


def write_long_layout(strategy, path, mass_column, mass_text):
    """The earlier layout: one line per entry, (obs_index, action_index, mass,
    obs_value, action_value_0, ...)."""
    coords = strategy.action_values()
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["obs_index", "action_index", mass_column, "obs_value"]
                        + [f"action_value_{d}" for d in range(strategy.action_ndim)])
        for k in range(strategy.obs_grid.count):
            for l in range(strategy.action_count):
                writer.writerow([k, l, mass_text(float(strategy.matrix[k, l])),
                                 repr(float(strategy.obs_grid.points[k]))]
                                + [repr(float(c)) for c in coords[l]])


@pytest.mark.parametrize("mass_column, mass_text", [("mass_hex", float.hex), ("mass", repr)])
def test_load_strategy_refuses_the_long_layout(tmp_path, mass_column, mass_text):
    og = make_uniform_grid(0, 1, 2)
    s = init_strategy("uniform", og, [make_uniform_grid(0, 1, 2)], np.array([0.5, 0.5]))
    path = tmp_path / "strategy_agent0.csv"
    save_strategy(s, path)    # the sidecar is the same in both layouts
    write_long_layout(s, path, mass_column, mass_text)
    assert path.read_text().startswith(f"obs_index,action_index,{mass_column},")
    with pytest.raises(ValueError, match="strategy_agent0.csv: header"):
        load_strategy(path)


def test_load_strategy_refuses_decimal_masses_under_another_header(tmp_path):
    """A matrix of decimal masses is refused by its header, though its shape is
    right: read as hex, "0.25" would silently be 0.14453125."""
    og = make_uniform_grid(0, 1, 2)
    s = init_strategy("uniform", og, [make_uniform_grid(0, 1, 2)], np.array([0.5, 0.5]))
    path = tmp_path / "strategy_agent0.csv"
    save_strategy(s, path)
    body = "".join(",".join(map(repr, row)) + "\n" for row in s.matrix.tolist())
    assert body == "0.25,0.25\n0.25,0.25\n"
    for header in ("# strategy matrix: one line per observation, one decimal mass per action",
                   "mass_0,mass_1"):
        path.write_text(header + "\n" + body)
        with pytest.raises(ValueError, match="strategy_agent0.csv: header"):
            load_strategy(path)


def edge_value_strategy():
    tiny = np.finfo(float).tiny
    edges = [0.0, -0.0, 5e-324, np.nextafter(tiny, 0.0), tiny, 1e-120,
             np.nextafter(1e-120, 0.0), 7.3e-121, 0.1, 1 / 3, 0.25, 2.0 ** -60]
    ordinary = np.random.default_rng(4).dirichlet(np.ones(len(edges)))
    m = np.array([edges, ordinary])
    ags = (make_uniform_grid(0, 1, 4), make_uniform_grid(0, 1, 3))
    return Strategy(m, make_uniform_grid(0, 1, 2), ags, m.sum(axis=1))


def learned_split_award_strategy():
    problem = build_problem(config_from_mapping(get_preset("split_award_uniform")))
    return solve(problem, (0, 0)).strategies[0]


@pytest.mark.parametrize("make", [edge_value_strategy, learned_split_award_strategy])
def test_hex_masses_round_trip_bitwise(tmp_path, make):
    s = make()
    assert np.count_nonzero(s.matrix < 1e-100) >= 5    # tiny masses are the point
    save_strategy(s, tmp_path / "s.csv")
    loaded, _ = load_strategy(tmp_path / "s.csv")
    assert np.array_equal(loaded.matrix.view(np.uint64), s.matrix.view(np.uint64))
    assert np.array_equal(loaded.marginal.view(np.uint64), s.marginal.view(np.uint64))
