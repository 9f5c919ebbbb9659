"""Independent brute-force oracles for the test suite.

Everything here is deliberately written with plain Python loops and
first-principles enumeration, independent of the vectorized library paths it
is used to check.
"""

from __future__ import annotations

import itertools

import numpy as np


def prior_from_weights(grids, weights):
    """Independent private-value prior whose marginal on each grid is its
    weight function at the grid points, normalized: a hand-made test input,
    not a prior model's discretization."""
    from bnesolve.priors import DiscretePrior

    marginals = []
    for g, weight in zip(grids, weights):
        w = np.broadcast_to(np.asarray(weight(g.points), dtype=np.float64), g.points.shape)
        marginals.append(w / w.sum())
    return DiscretePrior(tuple(grids), tuple(marginals), None)


def tensor_engine(*args, **kwargs):
    """A ``GradientEngine`` set onto the tensor path, which its payoff picks
    only where ``risk_rho != 1``, so that both paths can be compared on one
    risk-neutral game."""
    from bnesolve.gradient import GradientEngine

    engine = GradientEngine(*args, **kwargs)
    engine.path = "tensor"
    return engine


def component_mass(prior, k):
    """Mass of observation cell ``k`` of a prior held as components: over the
    components, the weight times the product of the blocks' masses at k."""
    total = 0.0
    for c in prior.components:
        term = c.weight
        for agents, mass in c.blocks:
            term *= mass[tuple(k[a] for a in agents)]
        total += term
    return total


def dense_joint(prior):
    """The observation joint of a prior held as components, cell by cell."""
    joint = np.zeros(tuple(g.count for g in prior.obs_grids))
    for k in itertools.product(*[range(g.count) for g in prior.obs_grids]):
        joint[k] = component_mass(prior, k)
    return joint


def naive_expected_utility(mech, prior, strategies, agent):
    """Direct summation of the discretized expected-utility integral."""
    n = prior.n_agents
    tables = [s.action_values() for s in strategies]
    counts = [t.shape[0] for t in tables]
    marginals = prior.marginals
    if prior.value_joint is None:
        joint = prior.obs_joint
        own_vals = prior.obs_grids[agent].points
    else:
        joint = prior.value_joint
        own_vals = prior.value_grid.points
    total = 0.0
    for k in itertools.product(*[range(g.count) for g in prior.obs_grids]):
        denom = 1.0
        for j in range(n):
            denom *= marginals[j][k[j]]
        if denom == 0.0:
            continue
        for l in itertools.product(*[range(c) for c in counts]):
            w = 1.0
            for j in range(n):
                w *= strategies[j].matrix[k[j], l[j]]
            if w == 0.0:
                continue
            bids = [tuple(tables[j][l[j]]) for j in range(n)]
            if prior.value_joint is None:
                mass = component_mass(prior, k) if joint is None else joint[k]
                u = float(mech.utility(agent, bids, own_vals[k[agent]]))
                total += u * w * mass / denom
            else:
                for m in range(own_vals.size):
                    mass = joint[(m,) + k]
                    if mass == 0.0:
                        continue
                    u = float(mech.utility(agent, bids, own_vals[m]))
                    total += u * w * mass / denom
    return total


def naive_gradient(mech, prior, strategies, agent):
    """Gradient coefficients by direct enumeration of the opponent sums."""
    n = prior.n_agents
    tables = [s.action_values() for s in strategies]
    counts = [t.shape[0] for t in tables]
    k_own = prior.obs_grids[agent].count
    c = np.zeros((k_own, counts[agent]))
    others = [j for j in range(n) if j != agent]
    if prior.value_joint is None:
        joint = prior.obs_joint
        own_vals = prior.obs_grids[agent].points
    else:
        joint = prior.value_joint
        own_vals = prior.value_grid.points
    for ki in range(k_own):
        if prior.marginals[agent][ki] == 0.0:
            continue
        for li in range(counts[agent]):
            acc = 0.0
            for k_other in itertools.product(*[range(prior.obs_grids[j].count)
                                               for j in others]):
                k = [0] * n
                k[agent] = ki
                for j, kj in zip(others, k_other):
                    k[j] = kj
                denom = 1.0
                for j in range(n):
                    denom *= prior.marginals[j][k[j]]
                if denom == 0.0:
                    continue
                for l_other in itertools.product(*[range(counts[j]) for j in others]):
                    w = 1.0
                    for j, lj in zip(others, l_other):
                        w *= strategies[j].matrix[k[j], lj]
                    if w == 0.0:
                        continue
                    l = [0] * n
                    l[agent] = li
                    for j, lj in zip(others, l_other):
                        l[j] = lj
                    bids = [tuple(tables[j][l[j]]) for j in range(n)]
                    if prior.value_joint is None:
                        mass = component_mass(prior, k) if joint is None \
                            else joint[tuple(k)]
                        u = float(mech.utility(agent, bids, own_vals[ki]))
                        acc += u * w * mass / denom
                    else:
                        for m in range(own_vals.size):
                            mass = joint[(m,) + tuple(k)]
                            if mass == 0.0:
                                continue
                            u = float(mech.utility(agent, bids, own_vals[m]))
                            acc += u * w * mass / denom
            c[ki, li] = acc
    return c


def qp_project_simplex(y, mass):
    """Exact projection onto {x >= 0, sum x = mass} by active-set enumeration.

    Tries every subset of coordinates pinned to zero, solves the equality-
    constrained problem in closed form, keeps feasible candidates, and
    returns the closest.  Exponential in len(y): test-scale only.
    """
    y = np.asarray(y, dtype=float)
    m = y.size
    best, best_d = None, np.inf
    for zero_set in itertools.product([False, True], repeat=m):
        free = [i for i in range(m) if not zero_set[i]]
        if not free:
            if mass == 0.0:
                return np.zeros(m)
            continue
        lam = (mass - sum(y[i] for i in free)) / len(free)
        x = np.zeros(m)
        for i in free:
            x[i] = y[i] + lam
        if np.any(x < -1e-12):
            continue
        d = float(np.sum((x - y) ** 2))
        if d < best_d - 1e-15:
            best, best_d = np.maximum(x, 0.0), d
    return best


def qp_project_llg_core(ref, b1, b2, b3):
    """Exact projection onto {0 <= p_i <= b_i, p1 + p2 >= b3} (2-d).

    Enumerates candidate KKT points: the reference itself, projections onto
    each constraint line, and every constraint-pair vertex; returns the
    feasible candidate closest to the reference.
    """
    z = np.asarray(ref, dtype=float)
    cands = [z]
    # single active constraints
    cands += [np.array([0.0, z[1]]), np.array([z[0], 0.0]),
              np.array([b1, z[1]]), np.array([z[0], b2])]
    t = (z[0] - z[1] + b3) / 2.0
    cands.append(np.array([t, b3 - t]))
    # vertices of constraint pairs
    for x in (0.0, b1):
        for yv in (0.0, b2):
            cands.append(np.array([x, yv]))
        cands.append(np.array([x, b3 - x]))
    for yv in (0.0, b2):
        cands.append(np.array([b3 - yv, yv]))
    best, best_d = None, np.inf
    for p in cands:
        if (-1e-12 <= p[0] <= b1 + 1e-12 and -1e-12 <= p[1] <= b2 + 1e-12
                and p[0] + p[1] >= b3 - 1e-12):
            d = float(np.sum((p - z) ** 2))
            if d < best_d - 1e-15:
                best, best_d = p, d
    return best


def enumerate_row_vertex_value(c, marginal):
    """Best objective over all pure row-vertex strategies, by enumeration."""
    k, l = c.shape
    best = -np.inf
    for assign in itertools.product(range(l), repeat=k):
        v = sum(marginal[i] * c[i, assign[i]] for i in range(k))
        best = max(best, v)
    return best
