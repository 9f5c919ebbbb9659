"""Discrete distributional strategies.

A strategy is a K x L matrix whose entries are nonnegative, exactly, and
whose row k sums to the prior mass of the k-th observation point; entry
(k, l) is the joint probability of observing point k and playing action l.
Multi-dimensional actions are flattened row-major over the per-axis grids.
A pure strategy puts each row's whole mass on one action.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grids import Grid

ROW_SUM_TOL = 1e-10


def flatten_action_grids(action_grids) -> np.ndarray:
    """Row-major table of action coordinates, shape (L_flat, ndim)."""
    meshes = np.meshgrid(*[g.points for g in action_grids], indexing="ij")
    return np.column_stack([m.ravel() for m in meshes])


def nearest_actions(action_values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per row of ``targets`` (shape (K, ndim)), the index of the nearest row of
    ``action_values`` in squared distance; ties go to the lowest index."""
    return np.argmin(((action_values[None, :, :] - targets[:, None, :]) ** 2).sum(axis=2),
                     axis=1)


def pure_matrix(actions: np.ndarray, marginal: np.ndarray, action_count: int) -> np.ndarray:
    """The K x ``action_count`` matrix with row k's mass ``marginal[k]`` on action
    ``actions[k]`` and zeros elsewhere."""
    out = np.zeros((len(actions), action_count))
    out[np.arange(len(actions)), actions] = marginal
    return out


def _check_matrix(m: np.ndarray, marginal: np.ndarray):
    """Entries nonnegative, exactly, and row sums within ``ROW_SUM_TOL`` of the
    marginal.  The lowest entry is found in one pass that skips NaN entries; a
    NaN makes its row sum NaN, which fails the comparison, so it is refused."""
    if np.fmin.reduce(m, axis=None) < 0:
        raise ValueError("strategy entries must be nonnegative")
    if not (np.max(np.abs(m.sum(axis=1) - marginal)) <= ROW_SUM_TOL):
        raise ValueError("row sums must equal the observation marginal")


@dataclass
class Strategy:
    matrix: np.ndarray
    obs_grid: Grid
    action_grids: tuple[Grid, ...]
    marginal: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.marginal = np.asarray(self.marginal, dtype=np.float64)
        self.action_grids = tuple(self.action_grids)
        k, l = self.matrix.shape
        if k != self.obs_grid.count or k != self.marginal.size:
            raise ValueError("matrix rows must match the observation grid and marginal")
        if l != self.action_count:
            raise ValueError("matrix columns must match the flattened action grids")
        _check_matrix(self.matrix, self.marginal)

    @property
    def action_count(self) -> int:
        return int(np.prod([g.count for g in self.action_grids]))

    @property
    def action_ndim(self) -> int:
        return len(self.action_grids)

    def action_values(self) -> np.ndarray:
        return flatten_action_grids(self.action_grids)

    def with_matrix(self, matrix: np.ndarray) -> "Strategy":
        """Same grids/marginal with a new matrix, checked as ``Strategy(...)``
        checks it; the grids and the marginal, this strategy's own, are not
        checked again."""
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != self.matrix.shape:
            raise ValueError("matrix shape must match the strategy's")
        _check_matrix(m, self.marginal)
        new = copy.copy(self)
        new.matrix = m
        return new

    def conditionals(self) -> np.ndarray:
        """All conditional rows at once; zero-mass rows stay zero."""
        out = np.zeros_like(self.matrix)
        np.divide(self.matrix, self.marginal[:, None], out=out,
                  where=self.marginal[:, None] > 0)
        return out

    def sample_bids(self, observations, rng) -> np.ndarray:
        """Bids induced by the strategy for continuous observations.

        Maps each observation to its nearest grid point, samples an action
        index from the conditional row, and returns the action coordinates,
        shape (len(observations), action_ndim).
        """
        obs = np.atleast_1d(np.asarray(observations, dtype=np.float64))
        k = self.obs_grid.nearest_index(obs)
        if np.any(self.marginal[k] <= 0):
            raise ValueError("observation maps to a grid point with zero prior mass")
        cdf = np.cumsum(self.conditionals(), axis=1)
        live = cdf[:, -1:] > 0
        np.divide(cdf, cdf[:, -1:], out=cdf, where=live)
        u = rng.random(obs.size)
        return np.take(self.action_values(), _first_reaching(cdf, k, u), axis=0)

    def mean_bid_per_observation(self) -> np.ndarray:
        """Conditional-mean action coordinates per observation row."""
        return self.conditionals() @ self.action_values()


def _first_reaching(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per draw, the first column of its CDF row whose value reaches the draw.

    Equals ``min(np.searchsorted(cdf[rows[i]], u[i], side="left"), L - 1)``:
    the number of entries below ``u[i]`` among the row's first ``L - 1``.
    Rows must be nondecreasing with values in [0, 1].  Draws are not grouped
    by row.  Entries and draws go to ``m`` buckets by one nondecreasing map,
    ``floor(x * m)`` (draws clamped to [0, m]), so an entry in a lower bucket
    than a draw is below it and one in a higher bucket is not.  A guide table
    counts, per row, the entries in lower buckets than each bucket; the answer
    for a draw in bucket j lies between its row's counts at j and j + 1, and
    only draws whose bucket holds entries of their row are bisected further.
    """
    n_rows, l = cdf.shape
    m = 1 << (l - 1).bit_length()
    width = m + 2
    # entries of bucket b count from column b + 1 on, so that after a running
    # sum column j holds the count of entries in buckets below j
    bucket = (cdf[:, :l - 1] * m).astype(np.intp)
    bucket += np.arange(1, n_rows * width, width)[:, None]
    guide = np.bincount(bucket.ravel(), minlength=n_rows * width).reshape(n_rows, width)
    guide = np.cumsum(guide, axis=1).ravel()
    j = (u * m).astype(np.intp)
    np.clip(j, 0, m, out=j)
    j += rows * width
    idx = guide.take(j)
    end = guide[1:].take(j)
    sel = np.flatnonzero(end > idx)
    if sel.size:
        # bisect the entries of the draw's bucket: lo counts entries below u
        flat = cdf.ravel()
        base = rows[sel] * l
        lo, hi, v = idx[sel], end[sel], u[sel]
        while (open_ := np.flatnonzero(lo < hi)).size:
            mid = (lo[open_] + hi[open_]) >> 1
            below = flat[base[open_] + mid] < v[open_]
            lo[open_] = np.where(below, mid + 1, lo[open_])
            hi[open_] = np.where(below, hi[open_], mid)
        idx[sel] = lo
    return idx


INIT_MODES = ("random", "uniform", "truthful")


def init_strategy(mode: str, obs_grid: Grid, action_grids, marginal, seed=None) -> Strategy:
    """Initial strategy, one of ``INIT_MODES``: 'random' (per-row flat
    Dirichlet), 'uniform', or 'truthful'."""
    action_grids = tuple(action_grids)
    marginal = np.asarray(marginal, dtype=np.float64)
    k = obs_grid.count
    l = int(np.prod([g.count for g in action_grids]))
    if mode == "uniform":
        matrix = np.repeat(marginal[:, None] / l, l, axis=1)
    elif mode == "random":
        rng = np.random.default_rng(seed)
        rows = rng.exponential(size=(k, l))
        rows /= rows.sum(axis=1, keepdims=True)
        matrix = rows * marginal[:, None]
    elif mode == "truthful":
        targets = np.repeat(obs_grid.points[:, None], len(action_grids), axis=1)
        matrix = pure_matrix(nearest_actions(flatten_action_grids(action_grids), targets),
                             marginal, l)
    else:
        raise ValueError(f"unknown init mode '{mode}' (choose from {INIT_MODES})")
    return Strategy(matrix, obs_grid, action_grids, marginal)


def iterate_distance(a: Strategy, b: Strategy) -> float:
    """Frobenius norm of the entrywise difference of two strategies."""
    if a.matrix.shape != b.matrix.shape:
        raise ValueError("strategies have different shapes")
    d = a.matrix - b.matrix
    # not np.linalg.norm, whose BLAS dot wakes spinning threads (see expected_utility)
    return math.sqrt(np.einsum("kl,kl->", d, d))


# ---------------------------------------------------------------------------
# Persistence: the matrix itself, after one fixed header line, plus a JSON
# sidecar with grids, marginal, and run provenance.  After the header, line k
# holds row k's masses, comma-separated in ``flatten_action_grids`` order,
# written with float.hex; the sidecar's floats are written with repr.  Both round-trip
# bit-exactly.  Hex is for speed: a learned strategy's masses are mostly tiny
# doubles, whose shortest repr costs several times a float.hex.  The header
# names the layout and the encoding, and the loader refuses any other header,
# because float.fromhex reads a decimal such as "0.25" silently as another
# number.
# ---------------------------------------------------------------------------

MATRIX_HEADER = "# strategy matrix: one line per observation, one float.hex mass per action"


def _grid_to_json(g: Grid) -> dict:
    return {"points": [repr(float(p)) for p in g.points], "lower": repr(float(g.lower)),
            "upper": repr(float(g.upper))}


def _grid_from_json(d: dict) -> Grid:
    pts = np.array([float(p) for p in d["points"]])
    return Grid(pts, float(d["lower"]), float(d["upper"]))


def sidecar_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def save_strategy(strategy: Strategy, path, metadata: dict | None = None):
    """Write the strategy matrix as hex-float lines plus a metadata sidecar record."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(MATRIX_HEADER + "\n")
        fh.writelines(",".join(map(float.hex, row)) + "\n" for row in strategy.matrix.tolist())
    meta = {
        "obs_grid": _grid_to_json(strategy.obs_grid),
        "action_grids": [_grid_to_json(g) for g in strategy.action_grids],
        "marginal": [repr(float(m)) for m in strategy.marginal],
    }
    meta.update(metadata or {})
    sidecar_path(path).write_text(json.dumps(meta, indent=1))


def load_strategy(path) -> tuple[Strategy, dict]:
    """Read back a strategy file and its sidecar; bit-exact round trip.

    The file's first line must be ``MATRIX_HEADER``, and its body one line of
    masses per observation point and one mass per flattened action of the
    sidecar's grids; any other header (such as the earlier layout of one line
    per entry) or shape, ragged lines included, is refused.
    """
    path = Path(path)
    meta = json.loads(sidecar_path(path).read_text())
    obs_grid = _grid_from_json(meta["obs_grid"])
    action_grids = tuple(_grid_from_json(g) for g in meta["action_grids"])
    marginal = np.array([float(m) for m in meta["marginal"]])
    shape = (obs_grid.count, int(np.prod([g.count for g in action_grids])))
    with path.open() as fh:
        header = fh.readline().rstrip("\n")
        if header != MATRIX_HEADER:
            raise ValueError(f"{path.name}: header {header!r} is not {MATRIX_HEADER!r}")
        try:
            matrix = np.loadtxt(fh, delimiter=",", converters=float.fromhex, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path.name}: {exc}") from None
    if matrix.shape != shape:
        raise ValueError(f"{path.name}: {matrix.shape[0]} x {matrix.shape[1]} masses, "
                         f"not the sidecar's {shape[0]} x {shape[1]}")
    return Strategy(matrix, obs_grid, action_grids, marginal), meta
