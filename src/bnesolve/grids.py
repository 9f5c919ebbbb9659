"""Discrete axes for observation, valuation, and action spaces.

Every axis is equidistant: a grid is the value ``(lower, upper, count)``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid:
    """``count`` equidistant points spanning the closed interval [lower, upper].

    Grids with the same three fields are equal and hash alike.  ``points``
    (``np.linspace(lower, upper, count)``) and ``midpoints``, where
    neighbouring points' nearest-point cells meet, are computed once and are
    read-only.  The bounds must be finite with ``lower < upper``, and
    ``count`` an integer of at least 2 (a float count is a ``TypeError``).
    """

    lower: float
    upper: float
    count: int
    points: np.ndarray = field(init=False, repr=False, compare=False)
    midpoints: np.ndarray = field(init=False, repr=False, compare=False)
    # the midpoints padded with NaN at both ends, for nearest_index's correction
    _cells: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lower, upper = float(self.lower), float(self.upper)
        if not (math.isfinite(lower) and math.isfinite(upper) and lower < upper):
            raise ValueError(f"grid bounds must be finite with lower < upper, "
                             f"got [{lower}, {upper}]")
        count = operator.index(self.count)
        if count < 2:
            raise ValueError(f"a grid needs a count >= 2, got {count}")
        points = np.linspace(lower, upper, count)
        midpoints = (points[:-1] + points[1:]) / 2.0
        cells = np.concatenate(([np.nan], midpoints, [np.nan]))
        for name, value in (("lower", lower), ("upper", upper), ("count", count),
                            ("points", points), ("midpoints", midpoints), ("_cells", cells)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def nearest_index(self, x):
        """Index of the grid point closest to ``x`` (scalar or array).

        Values outside the interval are clamped to the bounds, and NaN goes
        to the top point.  Exact midpoints between two grid points resolve to
        the lower index.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 0:
            return self.nearest_index(x[None])[0]
        # round to the nearest equidistant position, clamped to the axis (fmin
        # first sends NaN to the top point)
        last = self.count - 1
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
