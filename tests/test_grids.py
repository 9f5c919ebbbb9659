import numpy as np
import pytest

from bnesolve.grids import Grid, make_uniform_grid


def test_uniform_grid_three_points():
    g = make_uniform_grid(0, 1, 3)
    assert np.array_equal(g.points, [0.0, 0.5, 1.0])
    assert g.count == 3


def test_uniform_grid_spacing():
    g = make_uniform_grid(0, 1, 20)
    assert g.count == 20
    assert np.allclose(np.diff(g.points), 1 / 19)
    g = make_uniform_grid(1.0, 2.5, 64)
    assert np.allclose(np.diff(g.points), 1.5 / 63)
    assert g.points[0] == 1.0 and g.points[-1] == 2.5


def test_uniform_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_uniform_grid(0, 1, 1)
    with pytest.raises(ValueError):
        make_uniform_grid(1, 0, 5)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 0.0, 1.0]), 0.0, 1.0)
    with pytest.raises(ValueError):
        Grid(np.array([0.1, 0.5, 1.0]), 0.0, 1.0)


def test_nearest_point_and_ties():
    g = make_uniform_grid(0, 1, 3)
    assert g.nearest_index(0.24) == 0
    # exact midpoint resolves to the lower index
    assert g.nearest_index(0.25) == 0
    assert g.nearest_index(0.26) == 1
    assert g.nearest_index(1.3) == 2
    assert g.nearest_index(-0.7) == 0


def test_nearest_point_idempotent():
    g = make_uniform_grid(-1.5, 2.0, 17)
    for x in np.linspace(-2, 3, 101):
        idx = g.nearest_index(x)
        assert g.nearest_index(g.points[idx]) == idx


def test_nearest_index_vectorized_matches_scalar():
    g = make_uniform_grid(0, 2, 9)
    xs = np.linspace(-0.5, 2.5, 57)
    idx = g.nearest_index(xs)
    assert [int(g.nearest_index(x)) for x in xs] == idx.tolist()


def midpoint_search(g, x):
    """The nearest index by searching the grid's midpoints, ties to the lower point."""
    return np.searchsorted(g._midpoints, np.clip(x, g.lower, g.upper), side="left")


def nearest_index_probes(g, rng):
    """Uniform draws reaching 5% past each bound, every midpoint and its two
    neighbouring doubles, the grid points, the bounds, both infinities and NaN
    (which searching the midpoints puts on the top point)."""
    pad = 0.05 * (g.upper - g.lower)
    mid = g._midpoints
    return np.concatenate([rng.uniform(g.lower - pad, g.upper + pad, 100_000), mid,
                           np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf), g.points,
                           [g.lower, g.upper, np.nextafter(g.lower, -np.inf),
                            np.nextafter(g.upper, np.inf), np.inf, -np.inf, np.nan]])


@pytest.mark.parametrize("lower, upper, count", [(0.0, 1.0, 64), (0.0, 2.0, 64), (0.0, 1.0, 256),
                                                 (1.0, 1.4, 32), (0.0, 1.5, 64), (0.3, 1.2, 64)])
def test_nearest_index_matches_midpoint_search_on_shipped_grids(lower, upper, count):
    g = make_uniform_grid(lower, upper, count)
    x = nearest_index_probes(g, np.random.default_rng(count))
    expected = midpoint_search(g, x)
    assert np.array_equal(g.nearest_index(x), expected)
    # exact midpoints resolve to the lower point
    assert np.array_equal(g.nearest_index(g._midpoints), np.arange(count - 1))
    for v in (g.lower, g.upper, np.inf, -np.inf, np.nan, float(g._midpoints[count // 2])):
        assert g.nearest_index(v) == midpoint_search(g, v)


def test_nearest_index_on_a_non_equidistant_grid():
    pts = np.geomspace(1.0, 9.0, 40) - 1.0
    g = Grid(pts, 0.0, float(pts[-1]))
    x = nearest_index_probes(g, np.random.default_rng(3))
    assert np.array_equal(g.nearest_index(x), midpoint_search(g, x))
    assert np.array_equal(g.nearest_index(g._midpoints), np.arange(39))


@pytest.mark.parametrize("jitter", [1e-12, 1e-7, 1e-3, 0.2])
def test_nearest_index_on_jittered_equidistant_grids(jitter):
    # interior points moved by up to ``jitter`` steps, on either side of the
    # slack that decides between rounding and searching
    g = make_uniform_grid(0.3, 1.2, 64)
    step = 0.9 / 63
    shift = np.random.default_rng(5).uniform(-jitter, jitter, 64) * step
    shift[0] = shift[-1] = 0.0
    h = Grid(g.points + shift, g.lower, g.upper)
    x = nearest_index_probes(h, np.random.default_rng(6))
    assert np.array_equal(h.nearest_index(x), midpoint_search(h, x))

