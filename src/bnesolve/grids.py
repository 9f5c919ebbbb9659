"""Discrete axes for observation, valuation, and action spaces."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Largest distance, in steps, of a point from its equidistant position for the
# arithmetic nearest index.  Its one-step correction is exact while every
# point is less than half a step away; this admits only equidistant axes,
# up to the rounding of their points.
EQUIDISTANT_SLACK = 1e-6


@dataclass(frozen=True)
class Grid:
    """An ascending axis of discrete points spanning a closed interval.

    ``points`` must be strictly increasing with ``points[0] == lower`` and
    ``points[-1] == upper``.

    On an equidistant axis (every point within ``EQUIDISTANT_SLACK`` steps of
    its equidistant position, as ``make_uniform_grid`` and files written from
    it give) ``nearest_index`` rounds arithmetically; on any other axis it
    searches the midpoints.  Both give the same index.
    """

    points: np.ndarray
    lower: float
    upper: float
    _midpoints: np.ndarray = field(init=False, repr=False, compare=False)
    # midpoints padded with NaN at both ends on an equidistant axis, else None
    _cells: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least 2 points on one axis")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] != self.lower or pts[-1] != self.upper:
            raise ValueError("grid points must span [lower, upper] exactly")
        mid = (pts[:-1] + pts[1:]) / 2.0
        step = (self.upper - self.lower) / (pts.size - 1)
        ideal = self.lower + step * np.arange(pts.size)
        cells = None
        if np.max(np.abs(pts - ideal)) <= EQUIDISTANT_SLACK * step:
            cells = np.concatenate(([np.nan], mid, [np.nan]))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_midpoints", mid)
        object.__setattr__(self, "_cells", cells)

    @property
    def count(self) -> int:
        return self.points.size

    def nearest_index(self, x):
        """Index of the grid point closest to ``x`` (scalar or array).

        Values outside the interval are clamped to the bounds.  Exact
        midpoints between two grid points resolve to the lower index.
        """
        if self._cells is None:
            return np.searchsorted(self._midpoints, np.clip(x, self.lower, self.upper),
                                   side="left")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 0:
            return self.nearest_index(x[None])[0]
        # round to the nearest equidistant position, clamped to the axis (fmin
        # first sends NaN to the top point, where searching the midpoints puts it)
        last = self.points.size - 1
        t = np.subtract(x, self.lower)
        t *= last / (self.upper - self.lower)
        t += 0.5
        np.floor(t, out=t)
        np.fmax(np.fmin(t, last, out=t), 0, out=t)
        k = t.astype(np.intp)
        # the guess is at most one off: correct it against the true midpoints,
        # down where x <= mid[k-1], up where x > mid[k]; the NaN pads compare
        # false, so neither end steps off the axis, whatever x is.  One float
        # buffer holds both gathers: fewer large temporaries keep the heap small.
        cells = self._cells
        down = np.less_equal(x, np.take(cells[:-1], k, out=t))
        up = np.greater(x, np.take(cells[1:], k, out=t))
        k += up
        k -= down
        return k


def make_uniform_grid(lower: float, upper: float, count: int) -> Grid:
    """Equidistant grid of ``count`` points spanning ``[lower, upper]``."""
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    if not lower < upper:
        raise ValueError(f"need lower < upper, got [{lower}, {upper}]")
    pts = np.linspace(lower, upper, count)
    return Grid(pts, float(lower), float(upper))

