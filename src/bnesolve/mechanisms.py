"""Ex-post utility evaluation for the supported auctions and contests.

All mechanisms are pure functions of a bid profile and the agent's own value,
vectorized over arbitrary batch shapes.  The quasilinear payoff of every
supported game is affine in the own value, ``u = value * A(bids) + B(bids)``,
and risk attitudes enter through the CRRA transform of that payoff.

Tie rule: whenever the winning bid (or winning allocation value) is not
unique, nothing is allocated and all win-contingent payoffs are zero.
All-pay payments are sunk and still paid on ties.

Own-first rule: one code path computes every agent's numbers, its own
coordinates first and the others' in agent order, so interchangeable agents
take the same float operations and grouped agents' gradients match to the bit.
"""

from __future__ import annotations

import numpy as np

CORE_RULES = ("NZ", "NVCG", "NB")
PAYMENT_RULES = CORE_RULES + ("first_price",)


def crra(u, rho: float, in_place: bool = False):
    """Constant-relative-risk-aversion transform sign(u) * |u|**rho.

    ``in_place`` overwrites the float array ``u`` with the result, holding one
    array of scratch, |u|**rho; the entries are bitwise the same either way.
    """
    if rho == 1.0:
        return u
    u = np.asarray(u, dtype=np.float64)
    magnitude = np.abs(u)
    magnitude **= rho
    signs = np.sign(u, out=u if in_place else None)
    signs *= magnitude
    return signs


def _as_components(bid, dims: int):
    """Normalize one agent's bid entry to a tuple of ``dims`` arrays."""
    if isinstance(bid, tuple):
        if len(bid) != dims:
            raise ValueError(f"expected {dims} action components, got {len(bid)}")
        return tuple(np.asarray(b, dtype=np.float64) for b in bid)
    if dims != 1:
        raise ValueError(f"expected {dims} action components, got a scalar bid")
    return (np.asarray(bid, dtype=np.float64),)


class Mechanism:
    """Base: subclasses provide the affine payoff decomposition."""

    kind: str = ""
    n_agents: int
    risk_rho: float = 1.0
    # The payoff depends on the opponents' bids only through the highest of
    # them, and a tie at the top voids the win (so it does not matter how many
    # opponents tie).  On independent private values, with the opponents on
    # one bid grid, GradientEngine then weights them by the distribution of
    # their highest bid, an order statistic of their action marginals.
    payoff_via_highest_bid: bool = False

    @property
    def action_dims(self) -> tuple[int, ...]:
        return (1,) * self.n_agents

    def _set_risk_rho(self, risk_rho: float):
        """Set the CRRA exponent, which must lie in (0, 1]; 1 is risk-neutral."""
        if not 0.0 < risk_rho <= 1.0:
            raise ValueError("risk_rho must lie in (0, 1]")
        self.risk_rho = risk_rho

    def components(self, bids):
        if len(bids) != self.n_agents:
            raise ValueError(f"{self.kind} expects bids for {self.n_agents} agents, "
                             f"got {len(bids)}")
        return [_as_components(b, d) for b, d in zip(bids, self.action_dims)]

    def affine_parts(self, agent: int, bids):
        """(A, B) with quasilinear payoff value * A + B for ``agent``."""
        raise NotImplementedError

    def affine_kernel(self, agent: int, action_grids, trailing):
        """Contraction of opponent weights against (A, B) that never forms them.

        ``action_grids`` holds every agent's tuple of action grids.  The
        weights come in two factors, ``W[k, l_lead, l_trail] = g[k, l_lead] *
        r[l_trail]`` over the opponents in agent order: ``trailing`` names the
        last opponents, those ``r`` covers.  It is empty when ``r`` covers
        none, as on a dense prior; then ``g`` holds full rows over every
        opponent's actions and ``r`` = [1.0].  A mechanism returns a kernel
        only where its form applies, decided from ``trailing``: a callable
        taking ``(g, r)`` to ``(W . A, W . B)``, fresh and C-contiguous of
        shape (K, L_i).  Else it returns None, and the dense matrices serve.
        """
        return None

    def utility(self, agent: int, bids, value):
        """Ex-post utility of ``agent``, CRRA applied to the quasilinear payoff."""
        a, b = self.affine_parts(agent, bids)
        return crra(np.asarray(value, dtype=np.float64) * a + b, self.risk_rho)

    def payments(self, bids):
        """Per-agent transfers to the auctioneer (negative when paid out).

        In the quasilinear payoff ``value * A + B`` the own value enters only
        through A, so B is minus the agent's payment.
        """
        return [-self.affine_parts(i, bids)[1] for i in range(self.n_agents)]

    def symmetry_groups(self) -> list[list[int]]:
        """Agent groups interchangeable under the rules of the mechanism."""
        return [list(range(self.n_agents))]


class SingleObjectAuction(Mechanism):
    """First-price, second-price, or first-price all-pay single-object auction."""

    payoff_via_highest_bid = True

    def __init__(self, kind: str, n_agents: int, risk_rho: float = 1.0):
        if kind not in ("fpsb", "spsb", "all_pay"):
            raise ValueError(f"unknown single-object auction kind '{kind}'")
        self.kind = kind
        self.n_agents = n_agents
        self._set_risk_rho(risk_rho)

    def _win_and_price(self, agent, comps):
        own = comps[agent][0]
        others = [comps[j][0] for j in range(self.n_agents) if j != agent]
        omax = others[0]
        for o in others[1:]:
            omax = np.maximum(omax, o)
        win = (own > omax).astype(np.float64)
        return own, omax, win

    def affine_parts(self, agent, bids):
        comps = self.components(bids)
        own, omax, win = self._win_and_price(agent, comps)
        if self.kind == "fpsb":
            return win, -win * own
        if self.kind == "spsb":
            return win, -win * omax
        return win, -own * np.ones_like(win)  # all_pay: own bid is sunk


class TullockContest(Mechanism):
    """Imperfectly discriminating contest: win odds proportional to effort**r."""

    kind = "tullock"

    def __init__(self, r: float, n_agents: int = 2, risk_rho: float = 1.0):
        if r <= 0:
            raise ValueError("Tullock exponent r must be positive")
        self.r = float(r)
        self.n_agents = n_agents
        self._set_risk_rho(risk_rho)

    def affine_parts(self, agent, bids):
        comps = self.components(bids)
        own = comps[agent][0]
        powered = own ** self.r
        # own-first: the others' powered efforts are added in agent order
        total = sum((c[0] ** self.r for j, c in enumerate(comps) if j != agent), powered)
        # all-zero effort profile: the prize is split evenly at no cost
        zero = total == 0
        share = np.where(zero, 1.0 / self.n_agents, powered / np.where(zero, 1.0, total))
        return share, -own * np.ones_like(share)


def project_core_payments(ref1, ref2, b1, b2, b3):
    """Euclidean projection of a reference point onto the local-winner core.

    The core polytope for winning locals is ``{0 <= p_i <= b_i,
    p_1 + p_2 >= b_3}``.  If the box-clipped reference already covers the
    global bid the clipped point is the projection; otherwise the projection
    lies on the face ``p_1 + p_2 = b_3``, a segment in the box, where each
    local's price is one clipped formula, own terms first (own-first rule).
    """
    q1, q2 = np.clip(ref1, 0.0, b1), np.clip(ref2, 0.0, b2)
    short = q1 + q2 < b3
    t1 = np.clip((ref1 - ref2 + b3) / 2.0, np.maximum(0.0, b3 - b2), np.minimum(b1, b3))
    t2 = np.clip((ref2 - ref1 + b3) / 2.0, np.maximum(0.0, b3 - b1), np.minimum(b2, b3))
    return np.where(short, t1, q1), np.where(short, t2, q2)


class LLGAuction(Mechanism):
    """Two local bidders vs one global bidder on the bundle of both items.

    Locals win iff their bids sum to strictly more than the global bid.  Core
    payment rules price the winning locals at the projection of a reference
    point (origin, VCG point, or bid vector) onto the core polytope; a winning
    global pays the locals' total bid under core rules, its own bid under
    first price.
    """

    kind = "llg"
    n_agents = 3

    def __init__(self, payment_rule: str, risk_rho: float = 1.0):
        if payment_rule not in PAYMENT_RULES:
            raise ValueError(f"payment rule must be one of {PAYMENT_RULES}")
        self.payment_rule = payment_rule
        self._set_risk_rho(risk_rho)

    def symmetry_groups(self):
        return [[0, 1], [2]]

    def outcome(self, bids):
        """(locals_win, global_win, p1, p2, p3) for a bid profile."""
        comps = self.components(bids)
        b1, b2, b3 = (np.asarray(comps[i][0], dtype=np.float64) for i in range(3))
        locals_win = b1 + b2 > b3
        global_win = b3 > b1 + b2
        if self.payment_rule == "first_price":
            p1, p2, p3 = b1, b2, b3
        else:
            if self.payment_rule == "NZ":
                ref1, ref2 = np.zeros_like(b1), np.zeros_like(b2)
            elif self.payment_rule == "NVCG":
                ref1 = np.maximum(0.0, b3 - b2)
                ref2 = np.maximum(0.0, b3 - b1)
            else:  # NB
                ref1, ref2 = b1, b2
            p1, p2 = project_core_payments(ref1, ref2, b1, b2, b3)
            p3 = b1 + b2
        return locals_win, global_win, p1, p2, p3

    def affine_parts(self, agent, bids):
        locals_win, global_win, p1, p2, p3 = self.outcome(bids)
        if agent == 2:
            a = global_win.astype(np.float64)
            return a, -a * p3
        a = locals_win.astype(np.float64)
        return a, -a * (p1 if agent == 0 else p2)

    def payments(self, bids):
        # one outcome for all three agents, with affine_parts' -(-a * p)
        locals_win, global_win, p1, p2, p3 = self.outcome(bids)
        wins = (locals_win, locals_win, global_win)
        return [-(-win.astype(np.float64) * p) for win, p in zip(wins, (p1, p2, p3))]

    def affine_kernel(self, agent, action_grids, trailing):
        # core payments are projections, not separable in the bids; under first
        # price a local's r is the global's action marginal
        if self.payment_rule != "first_price" or trailing != (2,):
            return None
        return LLGFirstPriceKernel(agent, action_grids)


class LLGFirstPriceKernel:
    """First-price LLG contraction of a local's opponent weights through the
    global's bid cdf.

    Under first price the payoff reads the locals only through their bid sum
    ``b_0 + b_1`` against the global bid ``b_2`` (``LLGAuction.outcome``:
    the locals win iff the sum is strictly above it), and each winner pays
    its own bid, so ``B = -b_i * A``.  ``LLGAuction.affine_kernel`` returns
    one for a local whose ``r`` is the global's action marginal, with ``g``
    over the mate's actions: A contracted with ``r`` is its strict cdf read at
    ``own + mate``, where the count of global bids strictly below each sum,
    ``searchsorted(side="left")``, indexes it.  This gives ``A_R[l_mate,
    l_i]`` in O(L^2), and ``g @ A_R`` the weighted sums.  The sums are the
    same float additions, and the comparisons the same strict inequalities,
    as in ``outcome``, so ties void the win exactly as there; the (L_i,
    L_-i) payoff matrices are never formed.
    """

    def __init__(self, agent: int, action_grids):
        bids = [g[0].points for g in action_grids]
        own = bids[agent]
        self.minus_own = -own
        # fl(b_0 + b_1) as in outcome (an IEEE addition commutes), the mate's bid on rows
        sums = own[None, :] + bids[1 - agent][:, None]
        self.at = np.searchsorted(bids[2], sums, side="left")

    @property
    def nbytes(self) -> int:
        return self.minus_own.nbytes + self.at.nbytes

    def __call__(self, g, r):
        """(W . A, W . B) for the weights ``W = g x r`` of ``affine_kernel``."""
        cdf = np.zeros(r.size + 1)
        np.cumsum(r, out=cdf[1:])
        a = g @ cdf[self.at]
        return a, a * self.minus_own


class SplitAwardAuction(Mechanism):
    """Procurement auction for a 100% share or two 50% shares.

    Each supplier bids a price for the whole contract and for a half share;
    the buyer picks the cheaper of the best sole-source offer and the split
    award (sum of the half-share bids).  Supplier cost for the half share is
    ``split_cost_factor * cost`` by default ("scaled"); "constant" charges the
    factor itself.  Lower bids win: this is a reverse auction.
    """

    kind = "split_award"
    n_agents = 2

    def __init__(self, split_cost_factor: float = 0.3, cost_model: str = "scaled",
                 risk_rho: float = 1.0):
        if not 0.0 < split_cost_factor < 0.5:
            raise ValueError("split_cost_factor must lie in (0, 0.5)")
        if cost_model not in ("scaled", "constant"):
            raise ValueError("cost_model must be 'scaled' or 'constant'")
        self.split_cost_factor = float(split_cost_factor)
        self.cost_model = cost_model
        self._set_risk_rho(risk_rho)

    @property
    def action_dims(self):
        return (2, 2)

    def allocation(self, bids):
        """(sole_0, sole_1, split) winner indicator arrays; ties award nothing."""
        comps = self.components(bids)
        sole0, sole1 = comps[0][0], comps[1][0]
        split = comps[0][1] + comps[1][1]
        prices = np.stack(np.broadcast_arrays(sole0, sole1, split), axis=0)
        best = prices.min(axis=0)
        is_best = prices == best
        unique = is_best.sum(axis=0) == 1
        return tuple((is_best[i] & unique).astype(np.float64) for i in range(3))

    # A and B are linear in the own sole-source and split award indicators, so
    # weighted win probabilities in their place give the weighted sums of A and B.

    def cost_part(self, sole_own, split):
        """A: minus the share of the supplier's cost that the awards commit."""
        if self.cost_model == "scaled":
            return -(sole_own + self.split_cost_factor * split)
        return -sole_own

    def price_part(self, sole_own, split, b100, b50):
        """B: the awarded prices, less the fixed half-share cost if it is constant."""
        if self.cost_model == "scaled":
            return sole_own * b100 + split * b50
        return sole_own * b100 + split * (b50 - self.split_cost_factor)

    def affine_parts(self, agent, bids):
        comps = self.components(bids)
        sole0, sole1, split = self.allocation(bids)
        sole_own = sole0 if agent == 0 else sole1
        return self.cost_part(sole_own, split), self.price_part(sole_own, split, *comps[agent])

    def affine_kernel(self, agent, action_grids, trailing):
        return SplitAwardKernel(self, agent, action_grids)

    def payments(self, bids):
        # not -B: under the constant cost model B also carries the fixed
        # half-share cost
        comps = self.components(bids)
        sole0, sole1, split = self.allocation(bids)
        paid = [sole0 * comps[0][0] + split * comps[0][1],
                sole1 * comps[1][0] + split * comps[1][1]]
        return [-p for p in paid]  # the buyer pays the suppliers


class SplitAwardKernel:
    """Split-award contraction of opponent weights from prefix sums.

    Bidding (s, h) against the opponent's (s', h'), the agent wins alone iff
    s < s' and s < h + h', and the split is awarded iff h + h' < s and
    h + h' < s' (strict minima, as in ``SplitAwardAuction.allocation``).  On
    ascending grids each condition selects a suffix or a prefix of an
    opponent axis.  The threshold indices come from those same float
    comparisons on per-axis tables, so ties are decided exactly as in the
    dense payoff.  Sums of the weights over the selected ranges give the
    weighted sole and split win probabilities of every own bid in O(K L)
    instead of O(K L^2), and the (L_i, L_-i) payoff matrices are never formed.
    """

    def __init__(self, mech: SplitAwardAuction, agent: int, action_grids):
        self.mech = mech
        s_own, h_own = (g.points for g in action_grids[agent])
        s_opp, h_opp = (g.points for g in action_grids[1 - agent])
        self.n_s, self.n_h, n_hi = s_opp.size, h_opp.size, h_own.size
        # fl(h_0 + h_1) as in allocation (an IEEE addition commutes), the own half price on rows
        halves = h_own[:, None] + h_opp[None, :]
        # sole: opponent sole prices from sole_s[s] on, half prices from sole_h[s, h] on
        sole_s = self.n_s - (s_own[:, None] < s_opp[None, :]).sum(axis=1)
        sole_h = self.n_h - (s_own[:, None, None] < halves[None]).sum(axis=2)
        # split: opponent half prices below split_h[s, h], and for each of them
        # sole prices from split_s[h, h'] on
        split_h = (halves[None] < s_own[:, None, None]).sum(axis=2)
        split_s = self.n_s - (halves[:, :, None] < s_opp[None, None, :]).sum(axis=2)
        # columns of the padded sum tables of __call__, flattened over their last two axes
        self.sole_at = (sole_s[:, None] * (self.n_h + 1) + sole_h).ravel()
        self.split_cols = (split_s.T * (self.n_h + 1) + np.arange(self.n_h)[:, None]).ravel()
        self.split_at = (split_h * n_hi + np.arange(n_hi)).ravel()
        self.n_hi = n_hi
        self.own_s = np.repeat(s_own, n_hi)
        self.own_h = np.tile(h_own, s_own.size)

    @property
    def nbytes(self) -> int:
        return sum(x.nbytes for x in (self.sole_at, self.split_cols, self.split_at,
                                      self.own_s, self.own_h))

    def __call__(self, g, r):
        """(W . A, W . B) for the weights ``W = g x r`` of ``affine_kernel``:
        full rows g over the opponent's actions with r = [1], or r over them
        with g of one entry."""
        k, n_s, n_h = g.shape[0], self.n_s, self.n_h
        # t[k, a, b]: weight row k at opponent sole price a and half price b;
        # the zero slabs at a = n_s and b = n_h stand for empty ranges.  Suffix
        # sums run as cumsums over reversed views, the same additions as a loop
        t = np.zeros((k, n_s + 1, n_h + 1))
        t[:, :n_s, :n_h] = (g[:, :, None] * r).reshape(k, n_s, n_h)
        suffix = t[:, ::-1]
        np.cumsum(suffix, axis=1, out=suffix)  # now: sole prices from a on
        flat = t.reshape(k, -1)
        # split: t at (split_s[h, h'], h') for every (h', h), summed over h' < split_h
        pre = np.zeros((k, n_h + 1, self.n_hi))
        np.cumsum(flat.take(self.split_cols, axis=1).reshape(k, n_h, self.n_hi),
                  axis=1, out=pre[:, 1:])
        suffix = t[:, :, ::-1]
        np.cumsum(suffix, axis=2, out=suffix)  # now: and half prices from b on
        # gathered along each weight row, so the (K, L_i) results are C-contiguous
        sole = flat.take(self.sole_at, axis=1)
        split = pre.reshape(k, -1).take(self.split_at, axis=1)
        return (self.mech.cost_part(sole, split),
                self.mech.price_part(sole, split, self.own_s, self.own_h))


def make_mechanism(kind: str, n_agents: int, *, risk_rho: float = 1.0,
                   payment_rule: str = "NZ", tullock_r: float = 1.0,
                   split_cost_factor: float = 0.3,
                   split_cost_model: str = "scaled") -> Mechanism:
    if kind in ("fpsb", "spsb", "all_pay"):
        return SingleObjectAuction(kind, n_agents, risk_rho)
    if kind == "tullock":
        return TullockContest(tullock_r, n_agents, risk_rho)
    if kind == "llg":
        if n_agents != 3:
            raise ValueError("the local-local-global model has exactly 3 agents")
        return LLGAuction(payment_rule, risk_rho)
    if kind == "split_award":
        if n_agents != 2:
            raise ValueError("the split-award auction has exactly 2 agents")
        return SplitAwardAuction(split_cost_factor, split_cost_model, risk_rho)
    raise ValueError(f"unknown mechanism kind '{kind}'")
