import numpy as np
import pytest

from bnesolve.grids import Grid


def test_uniform_grid_three_points():
    g = Grid(0, 1, 3)
    assert np.array_equal(g.points, [0.0, 0.5, 1.0])
    assert g.count == 3


def test_uniform_grid_spacing():
    g = Grid(0, 1, 20)
    assert g.count == 20
    assert np.allclose(np.diff(g.points), 1 / 19)
    g = Grid(1.0, 2.5, 64)
    assert np.allclose(np.diff(g.points), 1.5 / 63)
    assert g.points[0] == 1.0 and g.points[-1] == 2.5


def test_uniform_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Grid(0, 1, 1)
    with pytest.raises(ValueError):
        Grid(1, 0, 5)


def test_grid_validation():
    for lower, upper, count in [(0.0, 1.0, 1), (0.0, 1.0, 0), (1.0, 1.0, 3),
                                (1.0, 0.0, 3), (0.0, np.inf, 3), (-np.inf, 1.0, 3),
                                (np.nan, 1.0, 3), (0.0, np.nan, 3)]:
        with pytest.raises(ValueError, match="count >= 2|finite with lower < upper"):
            Grid(lower, upper, count)
    with pytest.raises(TypeError):
        Grid(0.0, 1.0, 2.0)


def test_grid_is_the_value_of_its_bounds_and_count():
    g = Grid(0.0, 1.0, 5)
    assert g == Grid(0, 1, 5) and hash(g) == hash(Grid(0, 1, 5))
    assert len({g, Grid(0, 1, 5), Grid(0.0, 1.0, np.int64(5))}) == 1
    assert g != Grid(0.0, 1.0, 6) and g != Grid(0.0, 2.0, 5) and g != Grid(-1.0, 1.0, 5)
    assert np.array_equal(g.points, np.linspace(0.0, 1.0, 5))
    assert (g.lower, g.upper, g.count) == (0.0, 1.0, 5) and type(g.count) is int
    assert np.array_equal(g.midpoints, [0.125, 0.375, 0.625, 0.875])
    # computed once and read-only, so equal grids cannot come to differ
    assert g.points is g.points and not g.points.flags.writeable
    with pytest.raises(ValueError):
        g.midpoints[0] = 0.0


def test_nearest_point_and_ties():
    g = Grid(0, 1, 3)
    assert g.nearest_index(0.24) == 0
    # exact midpoint resolves to the lower index
    assert g.nearest_index(0.25) == 0
    assert g.nearest_index(0.26) == 1
    assert g.nearest_index(1.3) == 2
    assert g.nearest_index(-0.7) == 0


def test_nearest_point_idempotent():
    g = Grid(-1.5, 2.0, 17)
    for x in np.linspace(-2, 3, 101):
        idx = g.nearest_index(x)
        assert g.nearest_index(g.points[idx]) == idx


def test_nearest_index_vectorized_matches_scalar():
    g = Grid(0, 2, 9)
    xs = np.linspace(-0.5, 2.5, 57)
    idx = g.nearest_index(xs)
    assert [int(g.nearest_index(x)) for x in xs] == idx.tolist()


def midpoint_search(g, x):
    """The nearest index by searching the grid's midpoints, ties to the lower point."""
    return np.searchsorted(g.midpoints, np.clip(x, g.lower, g.upper), side="left")


def nearest_index_probes(g, rng):
    """Uniform draws reaching 5% past each bound, every midpoint and its two
    neighbouring doubles, the grid points, the bounds, both infinities and NaN
    (which searching the midpoints puts on the top point)."""
    pad = 0.05 * (g.upper - g.lower)
    mid = g.midpoints
    return np.concatenate([rng.uniform(g.lower - pad, g.upper + pad, 100_000), mid,
                           np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf), g.points,
                           [g.lower, g.upper, np.nextafter(g.lower, -np.inf),
                            np.nextafter(g.upper, np.inf), np.inf, -np.inf, np.nan]])


@pytest.mark.parametrize("lower, upper, count", [(0.0, 1.0, 64), (0.0, 2.0, 64), (0.0, 1.0, 256),
                                                 (1.0, 1.4, 32), (0.0, 1.5, 64), (0.3, 1.2, 64)])
def test_nearest_index_matches_midpoint_search_on_shipped_grids(lower, upper, count):
    g = Grid(lower, upper, count)
    x = nearest_index_probes(g, np.random.default_rng(count))
    expected = midpoint_search(g, x)
    assert np.array_equal(g.nearest_index(x), expected)
    # exact midpoints resolve to the lower point
    assert np.array_equal(g.nearest_index(g.midpoints), np.arange(count - 1))
    for v in (g.lower, g.upper, np.inf, -np.inf, np.nan, float(g.midpoints[count // 2])):
        assert g.nearest_index(v) == midpoint_search(g, v)
