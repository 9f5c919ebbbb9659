"""Discrete distributional strategies.

A strategy is a nonnegative K x L matrix whose row k sums to the prior mass
of the k-th observation point; entry (k, l) is the joint probability of
observing point k and playing action l.  Multi-dimensional actions are
flattened row-major over the per-axis grids.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grids import Grid

ROW_SUM_TOL = 1e-10
NEGATIVE_CLAMP = 1e-14


def flatten_action_grids(action_grids) -> np.ndarray:
    """Row-major table of action coordinates, shape (L_flat, ndim)."""
    meshes = np.meshgrid(*[g.points for g in action_grids], indexing="ij")
    return np.column_stack([m.ravel() for m in meshes])


def _lowest(m: np.ndarray) -> float:
    """Smallest entry in one pass; NaN entries are skipped, as comparisons skip them."""
    return np.fmin.reduce(m, axis=None)


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
        if _lowest(self.matrix) < -NEGATIVE_CLAMP:
            raise ValueError("strategy entries must be nonnegative")
        if np.max(np.abs(self.matrix.sum(axis=1) - self.marginal)) > ROW_SUM_TOL:
            raise ValueError("row sums must equal the observation marginal")

    @property
    def action_count(self) -> int:
        return int(np.prod([g.count for g in self.action_grids]))

    @property
    def action_ndim(self) -> int:
        return len(self.action_grids)

    def action_values(self) -> np.ndarray:
        return flatten_action_grids(self.action_grids)

    def with_matrix(self, matrix: np.ndarray) -> "Strategy":
        """Same grids/marginal with a new matrix; tiny negatives are repaired.

        Entries within the clamp tolerance below zero are set to zero and the
        row is rescaled back to its marginal.
        """
        m = np.asarray(matrix, dtype=np.float64)
        lowest = _lowest(m)
        if lowest < -NEGATIVE_CLAMP:
            raise ValueError("matrix has entries below the negative-clamp tolerance")
        if lowest < 0:
            m = np.maximum(m, 0.0)
            sums = m.sum(axis=1)
            scale = np.divide(self.marginal, sums, out=np.zeros_like(sums), where=sums > 0)
            m = m * scale[:, None]
        return Strategy(m, self.obs_grid, self.action_grids, self.marginal)

    def conditional(self, obs_index: int) -> np.ndarray:
        """Mixed strategy over actions conditional on observation point k."""
        mk = self.marginal[obs_index]
        if mk <= 0:
            raise ValueError(f"observation index {obs_index} has zero prior mass")
        return self.matrix[obs_index] / mk

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
        # per observation row: the number of CDF entries below u, i.e. the
        # first action whose cumulative probability reaches u
        idx = np.empty(obs.size, dtype=np.int64)
        order = np.argsort(k, kind="stable")
        rows, starts = np.unique(k[order], return_index=True)
        for row, sel in zip(rows, np.split(order, starts[1:])):
            idx[sel] = np.searchsorted(cdf[row], u[sel], side="left")
        idx = np.minimum(idx, self.action_count - 1)
        return self.action_values()[idx]

    def mean_bid_per_observation(self) -> np.ndarray:
        """Conditional-mean action coordinates per observation row."""
        return self.conditionals() @ self.action_values()


def init_strategy(mode: str, obs_grid: Grid, action_grids, marginal, seed=None) -> Strategy:
    """Initial strategy: 'random' (per-row flat Dirichlet), 'uniform', or 'truthful'."""
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
        coords = flatten_action_grids(action_grids)
        targets = np.repeat(obs_grid.points[:, None], len(action_grids), axis=1)
        idx = np.argmin(((coords[None, :, :] - targets[:, None, :]) ** 2).sum(axis=2), axis=1)
        matrix = np.zeros((k, l))
        matrix[np.arange(k), idx] = marginal
    else:
        raise ValueError(f"unknown init mode '{mode}'")
    return Strategy(matrix, obs_grid, action_grids, marginal)


def iterate_distance(a: Strategy, b: Strategy) -> float:
    """Frobenius norm of the entrywise difference of two strategies."""
    if a.matrix.shape != b.matrix.shape:
        raise ValueError("strategies have different shapes")
    return float(np.linalg.norm(a.matrix - b.matrix))


# ---------------------------------------------------------------------------
# Persistence: CSV of (obs_index, action_index, mass, coordinates) plus a
# JSON sidecar with grids, marginal, and run provenance.  Floats are written
# with repr so the round trip is bit-exact.
# ---------------------------------------------------------------------------

def _grid_to_json(g: Grid) -> dict:
    return {"points": [repr(float(p)) for p in g.points], "lower": repr(float(g.lower)),
            "upper": repr(float(g.upper))}


def _grid_from_json(d: dict) -> Grid:
    pts = np.array([float(p) for p in d["points"]])
    return Grid(pts, float(d["lower"]), float(d["upper"]))


def sidecar_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def save_strategy(strategy: Strategy, path, metadata: dict | None = None):
    """Write the strategy matrix as CSV plus a metadata sidecar record."""
    path = Path(path)
    ndim = strategy.action_ndim
    # csv's default dialect: comma-separated, "\r\n"-terminated, and no field
    # (an integer or a float repr) needs quoting.  Coordinates are formatted
    # once per action and observation values once per row.
    tails = [",".join(map(repr, row)) + "\r\n" for row in strategy.action_values().tolist()]
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(["obs_index", "action_index", "mass", "obs_value"]
                                + [f"action_value_{d}" for d in range(ndim)])
        for k, (ov, masses) in enumerate(zip(strategy.obs_grid.points.tolist(),
                                             strategy.matrix.tolist())):
            mid = f",{ov!r},"
            fh.writelines([f"{k},{l},{m!r}{mid}{tail}"
                           for l, (m, tail) in enumerate(zip(masses, tails))])
    meta = {
        "obs_grid": _grid_to_json(strategy.obs_grid),
        "action_grids": [_grid_to_json(g) for g in strategy.action_grids],
        "marginal": [repr(float(m)) for m in strategy.marginal],
    }
    meta.update(metadata or {})
    sidecar_path(path).write_text(json.dumps(meta, indent=1))


def load_strategy(path) -> tuple[Strategy, dict]:
    """Read back a strategy CSV and its sidecar; bit-exact round trip."""
    path = Path(path)
    meta = json.loads(sidecar_path(path).read_text())
    obs_grid = _grid_from_json(meta["obs_grid"])
    action_grids = tuple(_grid_from_json(g) for g in meta["action_grids"])
    marginal = np.array([float(m) for m in meta["marginal"]])
    l = int(np.prod([g.count for g in action_grids]))
    matrix = np.zeros((obs_grid.count, l))
    rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2), ndmin=2)
    matrix[rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)] = rows[:, 2]
    return Strategy(matrix, obs_grid, action_grids, marginal), meta
