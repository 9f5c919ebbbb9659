import numpy as np
import pytest

from bnesolve.mechanisms import (LLGAuction, SingleObjectAuction, SplitAwardAuction,
                                 TullockContest, crra, make_mechanism)
from oracles import qp_project_llg_core


def test_fpsb_examples():
    m = SingleObjectAuction("fpsb", 2)
    assert float(m.utility(0, [0.4, 0.3], 0.7)) == pytest.approx(0.3)
    assert float(m.utility(1, [0.4, 0.3], 0.5)) == 0.0
    # tied maximal bids: nothing is allocated
    assert float(m.utility(0, [0.4, 0.4], 0.7)) == 0.0
    assert float(m.utility(1, [0.4, 0.4], 0.7)) == 0.0


def test_fpsb_crra():
    m = SingleObjectAuction("fpsb", 2, risk_rho=0.5)
    assert float(m.utility(0, [0.4, 0.3], 0.7)) == pytest.approx(0.3 ** 0.5)


def test_crra_identity_and_sign_extension():
    u = np.array([-0.4, 0.0, 0.25, 1.3])
    assert crra(u, 1.0) is u
    out = crra(u, 0.5)
    assert out == pytest.approx([-(0.4 ** 0.5), 0.0, 0.5, 1.3 ** 0.5])


def test_spsb_pays_second_price():
    m = SingleObjectAuction("spsb", 3)
    assert float(m.utility(0, [0.9, 0.6, 0.2], 1.0)) == pytest.approx(0.4)
    assert float(m.utility(1, [0.9, 0.6, 0.2], 1.0)) == 0.0
    assert float(m.utility(0, [0.9, 0.9, 0.2], 1.0)) == 0.0


def test_all_pay_loser_pays_bid():
    m = SingleObjectAuction("all_pay", 2)
    assert float(m.utility(0, [0.3, 0.5], 0.9)) == pytest.approx(-0.3)
    assert float(m.utility(1, [0.3, 0.5], 0.9)) == pytest.approx(0.4)
    # ties: the prize is withheld but bids stay sunk
    assert float(m.utility(0, [0.3, 0.3], 0.9)) == pytest.approx(-0.3)


def test_tullock_examples():
    m = TullockContest(1.0, 2)
    assert float(m.utility(0, [0.2, 0.2], 1.0)) == pytest.approx(0.3)
    assert float(m.utility(0, [0.0, 0.0], 0.6)) == pytest.approx(0.3)
    assert float(m.utility(0, [0.0, 0.2], 0.6)) == 0.0
    m15 = TullockContest(1.5, 2)
    share = 0.1 ** 1.5 / (0.1 ** 1.5 + 0.3 ** 1.5)
    assert float(m15.utility(0, [0.1, 0.3], 1.0)) == pytest.approx(share - 0.1)
    with pytest.raises(ValueError):
        TullockContest(0.0, 2)


def test_allocation_monotone_in_own_bid():
    rng = np.random.default_rng(0)
    for kind in ("fpsb", "spsb", "all_pay"):
        m = SingleObjectAuction(kind, 3)
        for _ in range(200):
            others = rng.uniform(0, 1, 2)
            bids = np.linspace(0, 1, 21)
            a, _ = m.affine_parts(0, [bids, others[0], others[1]])
            assert np.all(np.diff(a) >= 0)


def test_llg_core_rule_examples():
    nb = LLGAuction("NB")
    lw, gw, p1, p2, p3 = nb.outcome([0.6, 0.6, 1.0])
    assert lw and not gw and (p1, p2) == (0.6, 0.6)
    nz = LLGAuction("NZ")
    _, _, p1, p2, _ = nz.outcome([0.6, 0.6, 1.0])
    assert (p1, p2) == (0.5, 0.5)
    nvcg = LLGAuction("NVCG")
    _, _, p1, p2, _ = nvcg.outcome([0.2, 0.9, 1.0])
    assert p1 == pytest.approx(0.15) and p2 == pytest.approx(0.85)
    # global wins and pays the locals' total bid under core rules
    lw, gw, _, _, p3 = nz.outcome([0.3, 0.3, 1.0])
    assert gw and not lw and p3 == pytest.approx(0.6)
    assert float(nz.utility(2, [0.3, 0.3, 1.0], 1.5)) == pytest.approx(0.9)
    # exact tie: no winner
    lw, gw, _, _, _ = nz.outcome([0.5, 0.5, 1.0])
    assert not lw and not gw
    assert float(nz.utility(2, [0.5, 0.5, 1.0], 2.0)) == 0.0


def test_llg_first_price():
    m = LLGAuction("first_price")
    assert float(m.utility(0, [0.6, 0.6, 1.0], 0.9)) == pytest.approx(0.3)
    assert float(m.utility(2, [0.2, 0.2, 1.0], 1.5)) == pytest.approx(0.5)


def test_llg_rejects_bad_inputs():
    with pytest.raises(ValueError):
        LLGAuction("nearest_moon")


def test_llg_core_payments_match_qp_oracle():
    rng = np.random.default_rng(42)
    n = 10_000
    b1, b2 = rng.uniform(0, 1, (2, n))
    b3 = rng.uniform(0, 2, n)
    for rule in ("NZ", "NVCG", "NB"):
        m = LLGAuction(rule)
        lw, _, p1, p2, _ = m.outcome([b1, b2, b3])
        idx = np.flatnonzero(lw)
        assert idx.size > 100
        # feasibility on every winning profile
        assert np.all(p1[idx] >= -1e-12) and np.all(p2[idx] >= -1e-12)
        assert np.all(p1[idx] <= b1[idx] + 1e-12) and np.all(p2[idx] <= b2[idx] + 1e-12)
        assert np.all(p1[idx] + p2[idx] >= b3[idx] - 1e-9)
        # projection optimality on a subsample, against exact enumeration
        for i in idx[::37]:
            if rule == "NZ":
                ref = (0.0, 0.0)
            elif rule == "NVCG":
                ref = (max(0.0, b3[i] - b2[i]), max(0.0, b3[i] - b1[i]))
            else:
                ref = (b1[i], b2[i])
            exact = qp_project_llg_core(ref, b1[i], b2[i], b3[i])
            assert abs(p1[i] - exact[0]) < 1e-9 and abs(p2[i] - exact[1]) < 1e-9


def test_split_award_examples():
    m = SplitAwardAuction()
    # split price 2.4 beats nothing: agent 0 sole-sources at 2.0
    u0 = float(m.utility(0, [(2.0, 1.2), (2.1, 1.2)], 1.0))
    u1 = float(m.utility(1, [(2.0, 1.2), (2.1, 1.2)], 1.0))
    assert u0 == pytest.approx(1.0) and u1 == 0.0
    # split price 2.0 beats both sole bids of 2.5
    u0 = float(m.utility(0, [(2.5, 1.0), (2.5, 1.0)], 1.2))
    u1 = float(m.utility(1, [(2.5, 1.0), (2.5, 1.0)], 1.3))
    assert u0 == pytest.approx(1.0 - 0.36) and u1 == pytest.approx(1.0 - 0.39)
    # exact sole/split price tie: no award
    assert float(m.utility(0, [(2.0, 1.0), (2.5, 1.0)], 1.0)) == 0.0
    # sole/sole tie with the split more expensive: no award either
    assert float(m.utility(0, [(2.0, 1.2), (2.0, 1.2)], 1.0)) == 0.0


def test_split_award_outcome():
    m = SplitAwardAuction()
    bids = [(2.0, 1.2), (2.1, 1.2)]
    assert [a.tolist() for a in m.allocation(bids)] == [1.0, 0.0, 0.0]
    assert m.utility(0, bids, 1.0) == pytest.approx(1.0) and m.utility(1, bids, 1.0) == 0.0
    bids = [(2.5, 1.0), (2.5, 1.0)]
    assert [a.tolist() for a in m.allocation(bids)] == [0.0, 0.0, 1.0]
    assert m.utility(0, bids, 1.2) == pytest.approx(0.64)
    assert m.utility(1, bids, 1.3) == pytest.approx(0.61)


def test_split_award_constant_cost_model():
    m = SplitAwardAuction(cost_model="constant")
    u0 = float(m.utility(0, [(2.5, 1.0), (2.5, 1.0)], 1.2))
    assert u0 == pytest.approx(1.0 - 0.3)


def test_split_award_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SplitAwardAuction(split_cost_factor=0.6)
    with pytest.raises(ValueError):
        SplitAwardAuction(cost_model="flat")


def test_split_award_split_allocation_is_efficient():
    # two half shares cost 2*C*o < o: splitting minimizes true cost
    m = SplitAwardAuction()
    for o in (0.5, 1.0, 1.4):
        assert 2 * m.split_cost_factor * o < o


def test_tie_bump_produces_unique_winner():
    grid = np.linspace(0, 1, 11)
    m = SingleObjectAuction("fpsb", 2)
    for k in range(10):
        tie = [grid[k], grid[k]]
        a_tie, _ = m.affine_parts(0, tie)
        assert a_tie == 0.0 and float(m.utility(0, tie, 1.0)) == 0.0
        a_bump, _ = m.affine_parts(0, [grid[k + 1], grid[k]])
        assert a_bump == 1.0  # one grid step up from a tie wins outright


def test_single_object_payoff_via_highest_bid():
    # the gradient's order-statistic row relies on it: with every opponent bid
    # replaced by the highest one the payoff is the same, ties at the top included
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 1.0, 5)
    for kind in ("fpsb", "spsb", "all_pay"):
        m = SingleObjectAuction(kind, 3)
        assert m.payoff_via_highest_bid
        bids = [rng.choice(grid, 500) for _ in range(3)]
        top = np.maximum(bids[1], bids[2])
        for got, want in zip(m.affine_parts(0, bids), m.affine_parts(0, [bids[0], top, top])):
            assert np.array_equal(got, want)
    assert not any(cls.payoff_via_highest_bid
                   for cls in (TullockContest, LLGAuction, SplitAwardAuction))


def test_split_award_buyer_pays_suppliers():
    m = SplitAwardAuction()
    pays = m.payments([(2.5, 1.0), (2.5, 1.0)])
    assert pays[0] == pytest.approx(-1.0) and pays[1] == pytest.approx(-1.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_mechanism("dutch", 2)
    with pytest.raises(ValueError):
        SingleObjectAuction("third_price", 2)


@pytest.mark.parametrize("kind, n", [("fpsb", 2), ("tullock", 2), ("llg", 3),
                                     ("split_award", 2)])
def test_risk_rho_outside_unit_interval_rejected(kind, n):
    for rho in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match=r"risk_rho must lie in \(0, 1\]"):
            make_mechanism(kind, n, risk_rho=rho)
    assert make_mechanism(kind, n, risk_rho=0.5).risk_rho == 0.5


def test_dimension_mismatch_rejected():
    m = SingleObjectAuction("fpsb", 3)
    with pytest.raises(ValueError):
        m.affine_parts(0, [0.1, 0.2])
    s = SplitAwardAuction()
    with pytest.raises(ValueError):
        s.affine_parts(0, [(1.5,), (1.5, 0.5)])


def _reference_payments(mech, bids):
    """Each mechanism's payment formula as it was written out before ``payments``
    became minus the B part of the affine decomposition."""
    comps = mech.components(bids)
    if isinstance(mech, SingleObjectAuction):
        out = []
        for i in range(mech.n_agents):
            own, omax, win = mech._win_and_price(i, comps)
            if mech.kind == "fpsb":
                out.append(win * own)
            elif mech.kind == "spsb":
                out.append(win * omax)
            else:
                out.append(own * np.ones_like(win))
        return out
    if isinstance(mech, TullockContest):
        return [np.asarray(c[0], dtype=np.float64) for c in comps]
    locals_win, global_win, p1, p2, p3 = mech.outcome(bids)
    lw = locals_win.astype(np.float64)
    return [lw * p1, lw * p2, global_win.astype(np.float64) * p3]


@pytest.mark.parametrize("mech", [
    SingleObjectAuction("fpsb", 3), SingleObjectAuction("spsb", 3),
    SingleObjectAuction("all_pay", 3), SingleObjectAuction("fpsb", 3, risk_rho=0.5),
    TullockContest(1.5, 3), LLGAuction("NZ"), LLGAuction("NVCG"), LLGAuction("NB"),
    LLGAuction("first_price")], ids=lambda m: f"{m.kind}-{getattr(m, 'payment_rule', '')}"
                                           f"-rho{m.risk_rho}")
def test_payments_are_minus_affine_b(mech):
    rng = np.random.default_rng(7)
    upper = np.array([1.0, 1.0, 2.0])  # the LLG global bids up to 2
    n = mech.n_agents
    random = [rng.uniform(0, upper[i], 4000) for i in range(n)]
    # a coarse grid with 0 makes ties and all-zero profiles frequent
    grid = [0.25 * rng.integers(0, 4 * int(upper[i]) + 1, 4000) for i in range(n)]
    for bids in (random, grid):
        got, ref = mech.payments(bids), _reference_payments(mech, bids)
        assert len(got) == len(ref) == n
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))
    # the grid profiles do reach the tie rules
    if isinstance(mech, LLGAuction):
        assert np.any(grid[0] + grid[1] == grid[2])
    elif isinstance(mech, SingleObjectAuction):
        assert np.any(grid[0] == np.maximum(grid[1], grid[2]))
