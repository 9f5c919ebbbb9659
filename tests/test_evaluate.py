import numpy as np
import pytest

from bnesolve.evaluate import (AnalyticBNE, emit_plot_data, estimate_revenue, evaluate,
                               lookup_analytic)
from bnesolve.grids import make_uniform_grid
from bnesolve.mechanisms import LLGAuction, SingleObjectAuction
from bnesolve.priors import CommonValuePrior, IndependentPrivatePrior, UniformMarginal
from bnesolve.strategy import Strategy


def uniform_model(n=2):
    return IndependentPrivatePrior([UniformMarginal(0.0, 1.0)] * n)


def gridded_analytic_strategy(fn, k, l, upper=1.0):
    """Push a bid function onto the grid: row k bids the nearest point to fn(o_k)."""
    og = make_uniform_grid(0, 1, k)
    ag = make_uniform_grid(0, upper, l)
    marginal = np.full(k, 1.0 / k)
    idx = ag.nearest_index(fn(og.points))
    mat = np.zeros((k, l))
    mat[np.arange(k), idx] = marginal
    return Strategy(mat, og, (ag,), marginal)


def test_registry_entries():
    model = uniform_model()
    bne = lookup_analytic(SingleObjectAuction("fpsb", 2), model)
    assert bne.bid_fns[0](0.8) == pytest.approx(0.4)
    bne3 = lookup_analytic(SingleObjectAuction("fpsb", 3), uniform_model(3))
    assert bne3.bid_fns[1](0.9) == pytest.approx(0.6)
    cv = lookup_analytic(SingleObjectAuction("spsb", 3), CommonValuePrior(3))
    assert cv.bid_fns[0](1.0) == pytest.approx(2.0 / 3.0)
    ra = lookup_analytic(SingleObjectAuction("fpsb", 2, risk_rho=0.5), model)
    assert ra.bid_fns[0](0.6) == pytest.approx(0.4)
    llg = lookup_analytic(LLGAuction("NZ"), None)
    assert 2 in llg.bid_fns and 0 not in llg.bid_fns
    assert not llg.covers(range(3))
    assert lookup_analytic(SingleObjectAuction("fpsb", 2), CommonValuePrior(2)) is None
    assert lookup_analytic(LLGAuction("first_price"), None) is None


def test_evaluate_gridded_analytic_strategy():
    model = uniform_model()
    mech = SingleObjectAuction("fpsb", 2)
    bne = lookup_analytic(mech, model)
    s = gridded_analytic_strategy(lambda o: o / 2, 64, 64)
    rep = evaluate([s, s], bne, model, mech, n_samples=1 << 17, seed=0, agents=[0])
    assert abs(rep.losses[0]) <= 0.005
    assert rep.l2[0][0] <= 0.02


def test_evaluate_is_deterministic():
    model = uniform_model()
    mech = SingleObjectAuction("fpsb", 2)
    bne = lookup_analytic(mech, model)
    s = gridded_analytic_strategy(lambda o: o / 2, 16, 16)
    r1 = evaluate([s, s], bne, model, mech, n_samples=20_000, seed=7, agents=[0])
    r2 = evaluate([s, s], bne, model, mech, n_samples=20_000, seed=7, agents=[0])
    assert r1.losses == r2.losses and r1.l2 == r2.l2
    r3 = evaluate([s, s], bne, model, mech, n_samples=20_000, seed=8, agents=[0])
    assert r1.losses != r3.losses


def test_quantization_loss_decreases_with_grid():
    model = uniform_model()
    mech = SingleObjectAuction("fpsb", 2)
    bne = lookup_analytic(mech, model)
    losses = []
    for k in (16, 32, 64, 128):
        s = gridded_analytic_strategy(lambda o: o / 2, k, k)
        rep = evaluate([s, s], bne, model, mech, n_samples=1 << 17, seed=1, agents=[0])
        losses.append(rep.losses[0])
    assert losses == sorted(losses, reverse=True)
    assert losses[-1] < losses[0]


def test_evaluate_partial_baseline_gives_l2_only():
    mech = LLGAuction("NZ")
    bne = lookup_analytic(mech, None)
    og = make_uniform_grid(0, 2, 8)
    ag = make_uniform_grid(0, 2, 8)
    marginal = np.full(8, 1 / 8)
    idx = ag.nearest_index(og.points)
    mat = np.zeros((8, 8))
    mat[np.arange(8), idx] = marginal
    truthful = Strategy(mat, og, (ag,), marginal)

    class GlobalOnlyModel:
        def sample(self, rng, size):
            o = np.column_stack([rng.uniform(0, 1, size), rng.uniform(0, 1, size),
                                 rng.uniform(0, 2, size)])
            return o, o

    rep = evaluate([truthful, truthful, truthful], bne, GlobalOnlyModel(), mech,
                   n_samples=5_000, seed=0, agents=[0, 2])
    assert rep.losses[2] is None and rep.l2[2][0] < 0.2
    assert rep.losses[0] is None and rep.l2[0] is None


def test_evaluate_allows_negative_loss():
    model = uniform_model()
    mech = SingleObjectAuction("fpsb", 2)
    # deliberately suboptimal "baseline": learned strategy must beat it
    weak = AnalyticBNE("weak", {i: (lambda o: 0.2 * np.asarray(o)) for i in range(2)})
    s = gridded_analytic_strategy(lambda o: o * 0.3, 32, 32)
    rep = evaluate([s, s], weak, model, mech, n_samples=1 << 16, seed=2, agents=[0])
    assert rep.losses[0] < 0.0


def test_estimate_revenue_truthful_pair():
    model = uniform_model()
    mech = SingleObjectAuction("fpsb", 2)
    truthful = gridded_analytic_strategy(lambda o: o, 64, 64)
    rev = estimate_revenue([truthful, truthful], model, mech, n_samples=1 << 17, seed=3)
    assert rev == pytest.approx(2.0 / 3.0, abs=0.01)


def test_estimate_revenue_zero_bids():
    model = uniform_model()
    mech = SingleObjectAuction("fpsb", 2)
    og = make_uniform_grid(0, 1, 4)
    ag = make_uniform_grid(0, 1, 4)
    marginal = np.full(4, 0.25)
    mat = np.zeros((4, 4))
    mat[:, 0] = marginal
    zero = Strategy(mat, og, (ag,), marginal)
    assert estimate_revenue([zero, zero], model, mech, n_samples=10_000, seed=4) == 0.0


@pytest.mark.parametrize("mech", [SingleObjectAuction("fpsb", 2), LLGAuction("NZ")],
                         ids=["fpsb", "llg"])
def test_estimate_revenue_is_evaluate_without_agents(mech):
    n = mech.n_agents
    model = uniform_model(n)
    strategies = [gridded_analytic_strategy(lambda o, f=f: f * o, 16, 16)
                  for f in (0.5, 0.7, 0.9)[:n]]
    rev = estimate_revenue(strategies, model, mech, n_samples=5_000, seed=11)
    report = evaluate(strategies, None, model, mech, n_samples=5_000, seed=11, agents=())
    assert rev == report.revenue and rev > 0.0
    assert report.losses == {} and report.l2 == {}


def test_evaluate_draw_order():
    # one chunk: the prior, then the scored agent's learned bids, then the
    # other agent's; L and L2 read the first two, the revenue all three
    model = uniform_model()
    mech = SingleObjectAuction("fpsb", 2)
    bne = lookup_analytic(mech, model)
    s0 = gridded_analytic_strategy(lambda o: 0.4 * o, 32, 32)
    s1 = gridded_analytic_strategy(lambda o: 0.6 * o, 32, 32)
    m = 20_000
    report = evaluate([s0, s1], bne, model, mech, n_samples=m, seed=5, agents=[0])
    rng = np.random.default_rng(5)
    values, obs = model.sample(rng, m)
    b0 = s0.sample_bids(obs[:, 0], rng)
    b1 = s1.sample_bids(obs[:, 1], rng)
    beta = [obs[:, j] / 2 for j in range(2)]
    u_eq = float(mech.utility(0, [(beta[0],), (beta[1],)], values[:, 0]).sum()) / m
    u_learned = float(mech.utility(0, [(b0[:, 0],), (beta[1],)], values[:, 0]).sum()) / m
    assert report.utilities[0] == (u_learned, u_eq)
    assert report.losses[0] == 1.0 - u_learned / u_eq
    assert report.l2[0] == [np.sqrt(((b0[:, 0] - beta[0]) ** 2).sum() / m)]
    revenue = 0.0
    for p in mech.payments([(b0[:, 0],), (b1[:, 0],)]):
        revenue += float(np.sum(p))
    assert report.revenue == revenue / m


def test_emit_plot_data():
    model = uniform_model()
    s = gridded_analytic_strategy(lambda o: o, 16, 16)
    rows = emit_plot_data(s, model, 0, count=150, seed=5, analytic_fn=lambda o: o / 2)
    assert len(rows) == 150
    for r in rows[:10]:
        snapped = s.obs_grid.points[s.obs_grid.nearest_index(r["observation"])]
        ag = s.action_grids[0]
        assert r["bid_0"] == pytest.approx(ag.points[ag.nearest_index(snapped)])
        assert r["analytic_bid"] == pytest.approx(r["observation"] / 2)
    again = emit_plot_data(s, model, 0, count=150, seed=5, analytic_fn=lambda o: o / 2)
    assert rows == again
    with pytest.raises(ValueError):
        emit_plot_data(s, model, 0, count=0)


def test_evaluation_refuses_fewer_than_one_sample():
    model = uniform_model()
    mech = SingleObjectAuction("fpsb", 2)
    s = gridded_analytic_strategy(lambda o: o / 2, 8, 8)
    bne = AnalyticBNE("half", {0: lambda o: o / 2, 1: lambda o: o / 2})
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            evaluate([s, s], bne, model, mech, n_samples=n)
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            estimate_revenue([s, s], model, mech, n_samples=n)


def test_evaluate_no_baseline():
    model = uniform_model()
    mech = SingleObjectAuction("fpsb", 2)
    s = gridded_analytic_strategy(lambda o: o / 2, 8, 8)
    rep = evaluate([s, s], None, model, mech, n_samples=1000, seed=0)
    assert rep.losses == {} and rep.notes["baseline"] == "no analytic baseline"
