"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Heavy artifacts (solved runs, discretized priors) are
cached at module scope and shared between criteria.
"""

import dataclasses
import time

import numpy as np
import pytest

import bnesolve as b
from bnesolve.config import build_problem, config_from_mapping
from bnesolve.grids import Grid
from bnesolve.presets import get_preset
from bnesolve.priors import Component, DiscretePrior
from oracles import (enumerate_row_vertex_value, naive_expected_utility, naive_gradient,
                     prior_from_weights, qp_project_simplex, tensor_engine)

EVAL_SAMPLES = 1 << 18


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def solve(problem, *, rule=None, eta0=None, beta=None, seed=0):
    """``b.solve`` with the learner settings overridden; the prior is shared."""
    problem.discretize()
    cfg = problem.config
    cfg = dataclasses.replace(cfg, learner=rule or cfg.learner,
                              eta0=cfg.eta0 if eta0 is None else eta0,
                              step_beta=cfg.step_beta if beta is None else beta)
    return b.solve(dataclasses.replace(problem, config=cfg), seed)


def problem_for(preset_id, **overrides):
    return build_problem(config_from_mapping({**get_preset(preset_id), **overrides}))


@pytest.fixture(scope="module")
def fpsb_case():
    problem = problem_for("fpsb_2_uniform")
    result = solve(problem, seed=0)
    return problem, result


@pytest.fixture(scope="module")
def llg_priors():
    cache = {}

    def get(gamma_tag):
        if gamma_tag not in cache:
            problem = problem_for(f"llg_nz_{gamma_tag}")
            problem.discretize()
            cache[gamma_tag] = problem.prior
        return cache[gamma_tag]

    return get


def test_criterion_01_fpsb_baseline(fpsb_case):
    problem, result = fpsb_case
    analytic = b.lookup_analytic(problem.mech, problem.prior_model)
    rep = b.evaluate(result.strategies, analytic, problem.prior_model, problem.mech,
                     n_samples=EVAL_SAMPLES, seed=11, agents=[0])
    loss, l2 = rep.losses[0], rep.l2[0][0]
    ok = (result.converged and result.iterations <= 1000
          and result.certificate.max_loss < 1e-4
          and loss <= 0.005 and l2 <= 0.02 and result.wall_time < 30.0)
    report("criterion 1 (first-price baseline)", ok,
           f"iters={result.iterations} in-game loss={result.certificate.max_loss:.1e} "
           f"L={loss:.4f} L2={l2:.4f} solve={result.wall_time:.1f}s")


def test_criterion_02_discretization_sweep():
    targets = {16: 0.030, 32: 0.008, 64: 0.002, 128: 0.001}
    t0 = time.perf_counter()
    measured = {}
    for points in (16, 32, 64, 128):
        problem = problem_for("fpsb_sweep", obs_points=points, action_points=points)
        analytic = b.lookup_analytic(problem.mech, problem.prior_model)
        losses = []
        for seed in (0, 1):
            result = solve(problem, seed=seed)
            rep = b.evaluate(result.strategies, analytic, problem.prior_model,
                             problem.mech, n_samples=EVAL_SAMPLES, seed=20 + seed,
                             agents=[0])
            losses.append(rep.losses[0])
        measured[points] = float(np.mean(losses))
    elapsed = time.perf_counter() - t0
    vals = [measured[p] for p in (16, 32, 64, 128)]
    decreasing = all(a > b_ for a, b_ in zip(vals, vals[1:]))
    within = {p: abs(measured[p] - targets[p]) <= 0.01 for p in targets}
    ok = decreasing and all(within.values()) and elapsed < 300.0
    detail = " ".join(f"L({p})={measured[p]:.4f}(ref {targets[p]})" for p in targets)
    report("criterion 2 (discretization sweep)", ok,
           f"{detail} decreasing={decreasing} time={elapsed:.0f}s")


def test_criterion_03_common_value():
    problem = problem_for("common_value_spsb")
    t0 = time.perf_counter()
    result = solve(problem, seed=0)
    analytic = b.lookup_analytic(problem.mech, problem.prior_model)
    rep = b.evaluate(result.strategies, analytic, problem.prior_model, problem.mech,
                     n_samples=EVAL_SAMPLES, seed=12, agents=[0])
    elapsed = time.perf_counter() - t0
    loss, l2 = rep.losses[0], rep.l2[0][0]
    ok = (result.converged and result.certificate.max_loss < 1e-4
          and loss <= 0.01 and l2 <= 0.05 and elapsed <= 600.0)
    report("criterion 3 (common value, second price)", ok,
           f"iters={result.iterations} loss={result.certificate.max_loss:.1e} "
           f"L={loss:.4f} L2={l2:.4f} time={elapsed:.0f}s")


def test_criterion_04_affiliated_values():
    problem = problem_for("affiliated_fpsb")
    t0 = time.perf_counter()
    result = solve(problem, seed=0)
    analytic = b.lookup_analytic(problem.mech, problem.prior_model)
    rep = b.evaluate(result.strategies, analytic, problem.prior_model, problem.mech,
                     n_samples=EVAL_SAMPLES, seed=13, agents=[0])
    elapsed = time.perf_counter() - t0
    loss, l2 = rep.losses[0], rep.l2[0][0]
    ok = loss <= 0.01 and l2 <= 0.03 and elapsed < 60.0
    report("criterion 4 (affiliated values)", ok,
           f"L={loss:.4f} L2={l2:.4f} time={elapsed:.0f}s "
           f"(in-game loss {result.certificate.max_loss:.1e})")


def test_criterion_05_llg_core_rules(llg_priors):
    lines = []
    ok = True
    for rule_tag in ("nz", "nvcg", "nb"):
        for gamma_tag in ("g01", "g05", "g09"):
            problem = problem_for(f"llg_{rule_tag}_{gamma_tag}")
            problem.prior = llg_priors(gamma_tag)
            conv = {}
            runs = {}
            for learner in ("sofw", "soma2"):
                eta0, beta = (1.0, 0.5) if learner == "sofw" else (20.0, 0.5)
                res = solve(problem, rule=learner, eta0=eta0, beta=beta, seed=0)
                conv[learner] = res.converged and res.certificate.max_loss < 1e-4
                runs[learner] = res
            # the dominant-strategy check is read off the projected-ascent run:
            # Frank-Wolfe certifies an equilibrium whose global bids cap at the
            # top of the locals' bid-sum support (payoff-identical to truthful)
            analytic = b.lookup_analytic(problem.mech, problem.prior_model)
            rep = b.evaluate(runs["soma2"].strategies, analytic, problem.prior_model,
                             problem.mech, n_samples=1 << 16, seed=14, agents=[2])
            l2_global = rep.l2[2][0]
            case_ok = all(conv.values()) and l2_global <= 0.03
            ok = ok and case_ok
            lines.append(f"{rule_tag}/{gamma_tag}: sofw={conv['sofw']} "
                         f"soma2={conv['soma2']} globalL2={l2_global:.3f}")
    # in place of unavailable closed forms for the locals: core feasibility of
    # the payment vector on random bid profiles (the projection-optimality
    # check against the exact enumeration oracle lives in the mechanism tests)
    rng = np.random.default_rng(18)
    b1, b2 = rng.uniform(0, 1, (2, 10_000))
    b3 = rng.uniform(0, 2, 10_000)
    core_ok = True
    for rule in ("NZ", "NVCG", "NB"):
        mech = b.LLGAuction(rule)
        lw, _, p1, p2, _ = mech.outcome([b1, b2, b3])
        idx = lw
        core_ok &= bool(np.all(p1[idx] >= -1e-12) and np.all(p2[idx] >= -1e-12)
                        and np.all(p1[idx] <= b1[idx] + 1e-12)
                        and np.all(p2[idx] <= b2[idx] + 1e-12)
                        and np.all(p1[idx] + p2[idx] >= b3[idx] - 1e-9))
    ok = ok and core_ok
    lines.append(f"core payments feasible on 10^4 profiles: {core_ok}")
    report("criterion 5 (core-selecting combinatorial)", ok, "; ".join(lines))


def test_criterion_06_split_award_pooling():
    problem = problem_for("split_award_uniform")
    lines = []
    ok = True
    for learner, eta0, beta in (("soda1", 20.0, 0.05), ("soda2", 0.05, 0.05)):
        res = solve(problem, rule=learner, eta0=eta0, beta=beta, seed=0)
        s = res.strategies[0]
        rng = np.random.default_rng(15)
        _, obs = problem.prior_model.sample(rng, 1 << 16)
        bids = []
        for j in range(2):
            bj = res.strategies[j].sample_bids(obs[:, j], rng)
            bids.append((bj[:, 0], bj[:, 1]))
        _, _, split = problem.mech.allocation(bids)
        split_share = float(split.mean())
        mean_half_bids = s.mean_bid_per_observation()[:, 1]
        # pooling cap from the no-undercutting argument: a rival grabbing the
        # whole contract at just below twice the pooled half-share price must
        # not profit, so the payoff-dominant price is 0.7 * minimal cost
        cap = 0.7 * problem.prior_model.obs_bounds[0][0]
        lo = problem.action_grids[0][1].lower
        weighted = float(s.marginal @ mean_half_bids)
        upper_part = weighted >= (lo + cap) / 2
        concentrated = abs(weighted - cap) <= 0.05
        case_ok = (res.converged and res.certificate.max_loss < 1e-4
                   and split_share >= 0.95 and upper_part and concentrated)
        ok = ok and case_ok
        lines.append(f"{learner}: loss={res.certificate.max_loss:.1e} "
                     f"split={split_share:.3f} half-bid={weighted:.3f} (cap {cap:.2f})")
    report("criterion 6 (split-award pooling, scaled cost model)", ok, "; ".join(lines))


def test_criterion_07_risk_aversion():
    revenues = {}
    lines = []
    ok = True
    for tag, rho in (("r05", 0.5), ("r07", 0.7), ("r09", 0.9), ("r10", 1.0)):
        problem = problem_for(f"risk_fpsb_{tag}")
        t0 = time.perf_counter()
        res = solve(problem, seed=0)
        solve_time = time.perf_counter() - t0
        revenues[rho] = b.estimate_revenue(res.strategies, problem.prior_model,
                                           problem.mech, n_samples=EVAL_SAMPLES, seed=16)
        if rho == 1.0:
            continue  # anchor for the revenue ordering only
        analytic = b.lookup_analytic(problem.mech, problem.prior_model)
        rep = b.evaluate(res.strategies, analytic, problem.prior_model, problem.mech,
                         n_samples=EVAL_SAMPLES, seed=17, agents=[0])
        loss, l2 = rep.losses[0], rep.l2[0][0]
        # gate: the externally derived bid formula must itself evaluate to low
        # losses before the criterion bounds are meaningful
        gate = abs(loss) <= 0.005 and l2 <= 0.02
        case_ok = gate and loss <= 0.005 and l2 <= 0.02 and solve_time < 10.0
        ok = ok and case_ok
        lines.append(f"rho={rho}: L={loss:.4f} L2={l2:.4f} {solve_time:.1f}s")
    order = [revenues[r] for r in (0.5, 0.7, 0.9, 1.0)]
    decreasing = all(a > b_ for a, b_ in zip(order, order[1:]))
    ok = ok and decreasing
    lines.append("revenue " + ">".join(f"{v:.3f}" for v in order)
                 + f" decreasing={decreasing}")
    report("criterion 7 (risk aversion)", ok, "; ".join(lines))


def test_criterion_08_tullock_contests():
    lines = []
    ok = True
    rules = (("soda1", 100.0, 0.05), ("soda2", 10.0, 0.05), ("soma2", 100.0, 0.5))
    for tag in ("r05", "r10", "r15"):
        for variant, budget in (("", 10.0), ("_asym", 60.0)):
            problem = problem_for(f"tullock_{tag}{variant}")
            statuses = []
            for rule, eta0, beta in rules:
                t0 = time.perf_counter()
                res = solve(problem, rule=rule, eta0=eta0, beta=beta, seed=0)
                elapsed = time.perf_counter() - t0
                good = (res.converged and res.certificate.max_loss < 1e-4
                        and elapsed < budget)
                ok = ok and good
                statuses.append(f"{rule}:{'ok' if good else 'FAIL'}({elapsed:.1f}s)")
            lines.append(f"{tag}{variant or '_sym'} " + ",".join(statuses))
    report("criterion 8 (contests)", ok, "; ".join(lines))


def tensor_gradients(mech, prior, action_grids, strategies):
    """Agent 0's tensor-path gradients: one chunk, then one own value per chunk."""
    cells = int(np.prod([g.count for grids in action_grids for g in grids]))
    return [tensor_engine(mech, prior, action_grids, memory_budget=budget).gradient(strategies, 0)
            for budget in (b.gradient.DEFAULT_MEMORY_BUDGET, 8 * cells)]


def test_criterion_09_oracle_equivalences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    # general gradient vs direct enumeration of the expected-utility sum
    mech = b.SingleObjectAuction("fpsb", 2)
    grids = [Grid(0, 1, 3)] * 2
    prior = prior_from_weights(grids, [lambda x: np.ones_like(x)] * 2)
    action_grids = [(Grid(0, 1, 3),)] * 2
    strategies = [b.init_strategy("random", grids[i], action_grids[i],
                                  prior.marginals[i], seed=i) for i in range(2)]
    oracle = naive_gradient(mech, prior, strategies, 0)
    u_oracle = naive_expected_utility(mech, prior, strategies, 0)
    d_gradient = d_linear = 0.0
    for c in tensor_gradients(mech, prior, action_grids, strategies):
        d_gradient = max(d_gradient, float(np.max(np.abs(c - oracle))))
        d_linear = max(d_linear, abs(b.expected_utility(strategies[0], c) - u_oracle))
    # one shared strategy: the order statistic of the highest opponent bid vs
    # the block-mate weights of the same prior held as one block, its
    # outer-product joint, on both paths
    d_sym = 0.0
    for kind in ("fpsb", "spsb", "all_pay"):
        for n, k in ((2, 16), (3, 12)):
            m = b.SingleObjectAuction(kind, n)
            g = [Grid(0, 1, k)] * n
            p = prior_from_weights(g, [lambda x: np.ones_like(x)] * n)
            joint = p.marginals[0]
            for marginal in p.marginals[1:]:
                joint = np.multiply.outer(joint, marginal)
            held = DiscretePrior(p.obs_grids, p.marginals, None,
                                 components=(Component(1.0, ((tuple(range(n)), joint),)),))
            ag = [(Grid(0, 1, k),)] * n
            shared = b.init_strategy("random", g[0], ag[0], p.marginals[0], seed=3)
            engine = b.GradientEngine(m, p, ag, groups=[list(range(n))])
            assert 0 in engine._top_bids and not held.independent
            c_sym = engine.gradient([shared] * n, 0)
            c_affine = b.GradientEngine(m, held, ag).gradient([shared] * n, 0)
            for c_gen in tensor_gradients(m, held, ag, [shared] * n) + [c_affine]:
                d_sym = max(d_sym, float(np.max(np.abs(c_gen - c_sym))))
    # closed-form best response vs row-vertex enumeration
    d_br = 0.0
    for _ in range(20):
        cm = rng.normal(0, 1, (3, 3))
        marginal = rng.dirichlet(np.ones(3))
        br = b.best_response_matrix(cm, marginal)
        d_br = max(d_br, abs(float(np.vdot(br, cm))
                             - enumerate_row_vertex_value(cm, marginal)))
    # sort-based simplex projection vs exact active-set enumeration
    d_proj = 0.0
    from bnesolve.learners import project_rows_to_simplex
    for _ in range(1000):
        l = int(rng.integers(2, 9))
        y = rng.normal(0, 2, l)
        mass = float(rng.uniform(0.05, 2.0))
        got = project_rows_to_simplex(y[None, :], np.array([mass]))[0]
        d_proj = max(d_proj, float(np.max(np.abs(got - qp_project_simplex(y, mass)))))
    elapsed = time.perf_counter() - t0
    ok = (d_gradient < 1e-12 and d_linear < 1e-12 and d_sym < 1e-10
          and d_br < 1e-12 and d_proj < 1e-9 and elapsed < 60.0)
    report("criterion 9 (oracle equivalences)", ok,
           f"gradient={d_gradient:.1e} linearity={d_linear:.1e} symmetric={d_sym:.1e} "
           f"best-response={d_br:.1e} projection={d_proj:.1e} time={elapsed:.0f}s")


def test_criterion_10_feasibility_fuzz():
    rng = np.random.default_rng(1)
    grids = Grid(0, 1, 5)
    action_grids = (Grid(0, 1, 7),)
    worst_sum, worst_neg = 0.0, 0.0
    rules = ("soda1", "soda2", "soma2", "sofw", "fictitious_play")
    for trial in range(1000):
        marginal = rng.dirichlet(np.ones(5))
        s = b.init_strategy("random", grids, action_grids, marginal, seed=trial)
        learner = b.make_learner(rules[trial % 5], eta0=float(rng.uniform(0.01, 100)),
                                 beta=float(rng.uniform(0.05, 1.0)))
        learner.reset(s)
        c = rng.normal(0, rng.uniform(0.1, 5), s.matrix.shape)
        out = learner.step(s, c, int(rng.integers(1, 200)))
        worst_neg = min(worst_neg, float(out.min()))
        worst_sum = max(worst_sum, float(np.max(np.abs(out.sum(axis=1) - marginal))))
    ok = worst_neg >= 0.0 and worst_sum <= 1e-10
    report("criterion 10 (feasibility fuzzing)", ok,
           f"1000 trials, min entry={worst_neg:.1e}, worst row-sum error={worst_sum:.1e}")


def test_criterion_11_variational_stability_probe(fpsb_case):
    problem, result = fpsb_case
    probe = b.collusive_profile(result.strategies)
    value = b.vs_probe(problem.engine(), result.strategies, probe)
    ok = value > 1e-6
    report("criterion 11 (stability probe)", ok,
           f"probe value {value:.3e} at the half-shaded collusive profile")
