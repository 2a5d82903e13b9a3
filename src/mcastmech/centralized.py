"""Centralized welfare-optimal rate allocation with dual certificates.

Solves, for a validated instance,

    maximize   sum_ki v_ki(x_ki)
    over       x_ki >= 0,  m_{k,l} for every group k crossing link l
    subject to sum_{k on l} m_{k,l} <= c_l          (capacity, one per link)
               alpha_{ki,l} * x_ki <= m_{k,l}       (bounding, one per member)

by a primal-dual interior-point method with Mehrotra's predictor-corrector
steps. The three inequality families (x >= 0, capacity, bounding) carry
slacks and multipliers as iterates next to z = [x; m], so the link duals
lambda_l and the member duals mu_{ki,l} are iterates themselves, not values
read off a barrier parameter. Each step eliminates the m-block of its Newton
system in closed form and solves the agents-only Schur complement that is
left for a predictor and a corrector direction, each by LAPACK's gesv
called directly (_lu_solve); numpy cannot reuse an LU factorisation, so
the complement is factored twice per step. A step costs numpy calls more
than arithmetic, so its products with A and A^T, its dual residual and
the complement's per-(agent, link) tables are each one bincount over a
stacked index (_Workspace), adding the terms of each entry in the order
of the separate sums they replace. The centring target is floored
at min(gap, 0.1 * max|dual residual|), so complementarity cannot outrun
stationarity on saturated valuations, where Newton steps in x are short.

An iterate is measured after one closed-form finishing step: x is scaled
by the mechanism's own scale r = min_l c_l / sum_k max_i alpha * x, which
makes the tightest link bind exactly, and each m is refit under its link.
Without it an iterate leaves a binding link slack by about gap / lambda,
which on saturated instances (lambda near 1e-8) shows as allocation drift
when the mechanism replays x. The measure is the KKT residual of the
iterate's arrays (the `_residual` behind kkt_residuals). The loop returns
the first iterate with the least residual. It stops at RESIDUAL_FLOOR, or
after PATIENCE steps that cut the complementarity gap s.y by less than a
relative PROGRESS: patience reads s.y alone, never the residual. Only the
returned iterate becomes dicts, a KKTReport and a sharing count; the solve
fails with SolverError only when that best iterate misses tol.

So an iterate needs its residual at once only if it reaches the floor.
Each pass reads two lower bounds on it from what the step computes anyway
(_step_terms: v'(x), each agent's price sum(alpha mu), the dual residual
r_dual = -A^T y - [v'(x); 0] and the primal slacks A z + offset), before any
finishing step (_bound):

- the link-dual gaps |lambda_l - sum_group mu|, which are |r_dual| on the
  m rows bit for bit;
- where no primal slack of z is negative, the overpricing
  sum(alpha mu) - v'(x) of each agent above its zero-rate threshold. Then
  x >= 0, each slot's peak alpha x is at most its m and each link's load at
  most its capacity, in floating point too: the slacks, the peaks and the
  link sums are formed from the same products in the same order, and
  rounding is monotone. So the finishing scale r is at least 1, the
  finished x_f = r x is at least x, and v'(x_f) <= v'(x): exactly for
  log_sat, whose v' is a product, a sum and a quotient, each rounded
  monotonically; to a few ulps for exp_sat, since math.exp is faithfully
  but not monotonically rounded, which OVERPRICE_MARGIN takes off the
  bound. The agent's stationarity entry |v'(x_f) - sum(alpha mu)| is then
  at least its overpricing.

Only an iterate that both bounds leave at or below the floor is finished,
and only one whose finished complementarity block, which needs no v',
is also at or below it is measured in full. The loop keeps each record
with what it computed: the measured entry, or (t, z, y) and the finished
arrays, if any. At the floor it returns that iterate, since every earlier
one lies above the floor; at any other exit it completes each record once,
reusing its finished arrays, and returns the first with the least
residual. So it returns the same iterate, blocks and error as a loop that
measures every iterate, finishes and measures no iterate twice, and
decides most iterates without finishing them.

Stationarity ties the duals together: for every positive rate
v'(x) = sum_l mu * alpha, and on every link the per-group dual sums match
the link dual, lambda_l = sum_{members} mu. Both are part of the residual
report, as is the sharing diagnostic |S_l| (number of groups with a
positive member rate on each link).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import SolverError
from .model import (AgentId, NetworkInstance, Valuation, _tables, canonical_json,
                    require_valid, welfare)

#: Default target for the max KKT residual across all blocks.
DEFAULT_TOL = 1e-9

#: The interior-point loop stops once the max KKT residual is at or below
#: this, whatever tol is, or after PATIENCE steps without progress (s.y
#: below 1 - PROGRESS times its least value so far), or after MAX_ITERS
#: steps. Before a solve stalls its steps cut s.y by a few percent or more;
#: a stalled one still shaves s.y in its last digits (1.5e-11 relative per
#: step at 110 agents), which must not count as progress.
RESIDUAL_FLOOR = 1e-13
PATIENCE = 10
PROGRESS = 1e-3
MAX_ITERS = 200

#: Fraction of the distance to the boundary that a step may cover.
STEP_TO_BOUNDARY = 0.99

#: Relative margin, in units of v'(x) + |overpricing|, taken off each
#: agent's overpricing bound (_bound). math.exp is faithfully, not
#: monotonically, rounded, so exp_sat's v' may rise by a few ulps (at most
#: 5 eps relative) where x rises; the two subtractions of the bound and of
#: the residual round by 2 eps relative more. 16 eps covers both.
OVERPRICE_MARGIN = 16 * 2.0 ** -52


@dataclass
class PrimalSolution:
    x: Dict[AgentId, float]
    m: Dict[Tuple[int, str], float]


@dataclass
class KKTReport:
    primal_feas: float
    dual_feas: float
    comp_slack: float
    stationarity: float
    a4_holds: bool
    s_sizes: Dict[str, int]

    @property
    def max_residual(self) -> float:
        return max(self.primal_feas, self.dual_feas, self.comp_slack, self.stationarity)

    def as_dict(self) -> Dict[str, object]:
        return {
            "primal_feas": self.primal_feas,
            "dual_feas": self.dual_feas,
            "comp_slack": self.comp_slack,
            "stationarity": self.stationarity,
            "max_residual": self.max_residual,
            "a4_holds": self.a4_holds,
            "s_sizes": dict(sorted(self.s_sizes.items())),
        }


@dataclass
class DualCertificate:
    lam: Dict[str, float]
    mu: Dict[Tuple[AgentId, str], float]
    residuals: KKTReport


@dataclass
class A4Report:
    s_sizes: Dict[str, int]
    holds: bool


class _Workspace:
    """The stacked variable vector z = [x..., m...] and the stacked slack
    vector s = [x..., capacity slacks..., bounding slacks...] as arrays over
    the instance's compiled tables (model._tables).

    m runs over the tables' slots (mpairs: link by link, groups ascending)
    and the bounding rows over their pairs (bnd: agent by agent along each
    sorted route), so a bincount over bounding rows or m adds in the order
    of a loop over links_of, members_on_link or groups_on_link.

    A is one list of (row of s, column of z, coefficient) entries: each
    bounding row's m, then its -alpha x; each x; each link's -m, slot by
    slot. Every product with A reads it: A z is one bincount of the entries
    by row (apply, which the step's and the measure's slacks both use), A^T
    y one by column (transpose), and the dual residual with each agent's
    price one of the negated entries by column plus -v'(x) (dual_sums, which
    the step and the stationarity block both use). Each output entry adds
    its terms in the order of the separate sums and differences these
    replace; a - b is a + (-b) in IEEE arithmetic and a negated sum is the
    sum of the negated terms, so each entry is the same bits, up to the
    sign of an exact zero, which the later sums and magnitudes do not carry
    into a result. The per-row gathers (b_ix, b_m, b_al) are the bounding
    rows' own indices, which the Newton system's elimination and the
    finishing step read."""

    def __init__(self, inst: NetworkInstance):
        T = _tables(inst)
        self.agents, self.mpairs, self.bnd = T.agents, T.slot_keys, T.pair_keys
        self.vals = [inst.valuation(ki) for ki in self.agents]
        # v'' = -v' * (k_b + v' / k_a), per Valuation.second_terms
        self.k_b, self.k_a = np.array([v.second_terms() for v in self.vals]).T
        self.nx = nx = len(self.agents)
        self.nm = nm = len(self.mpairs)
        self.nl = nl = len(T.link_ids)
        nb = len(self.bnd)
        self.m_link = np.array(T.slot_link)
        # A bounding row per table pair: its agent, link, m entry and weight.
        b_ix, b_link, b_m, b_al, _, _ = zip(*T.pairs)
        self.b_ix, self.b_m = np.fromiter(b_ix, np.intp, nb), np.fromiter(b_m, np.intp, nb)
        self.b_al = np.fromiter(b_al, float, nb)
        # Each bounding row's flat (agent, link) position, and peers i != j.
        self.b_xl = self.b_ix * nl + np.fromiter(b_link, np.intp, nb)
        # b_xl in each of three stacked n_x by n_l tables (_newton_solver's D, C, U).
        self.dcu = np.concatenate((self.b_xl, self.b_xl + nx * nl, self.b_xl + 2 * nx * nl))
        group = np.array([ki.group for ki in self.agents])
        self.peers = np.equal.outer(group, group) - np.eye(nx)
        self.caps = np.array(T.capacity)
        self.offset = np.concatenate((np.zeros(nx), self.caps, np.zeros(nb)))
        # Rates at or below this count as zero in the stationarity block.
        self.thresh = np.array(T.zero_rate)
        x, row = np.arange(nx), nx + nl + np.arange(nb)
        self.rows = np.concatenate((row, row, x, nx + self.m_link))
        self.cols = np.concatenate((nx + self.b_m, self.b_ix, x, nx + np.arange(nm)))
        ones = np.ones(max(nb, nx, nm))
        self.coef = np.concatenate((ones[:nb], -self.b_al, ones[:nx], -ones[:nm]))
        # Of [y; v'(x)], r_dual = -A^T y - [v'(x); 0], then each agent's price.
        self.dual = (np.concatenate((self.cols, x, nx + nm + self.b_ix)),
                     np.concatenate((self.rows, len(self.offset) + x, row)),
                     np.concatenate((-self.coef, -ones[:nx], self.b_al)))

    def dvalue(self, x: np.ndarray) -> np.ndarray:
        return np.fromiter(map(Valuation.deriv, self.vals, x.tolist()), float, self.nx)

    def slopes(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """v'(x) from each valuation's deriv, and v''(x) from v' elementwise."""
        dv = self.dvalue(x)
        return dv, -dv * (self.k_b + dv / self.k_a)

    def link_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-link sums of an m-indexed vector."""
        return np.bincount(self.m_link, v, self.nl)

    def apply(self, z: np.ndarray) -> np.ndarray:
        """A z, where the slacks are s = A z + offset."""
        return np.bincount(self.rows, z[self.cols] * self.coef, len(self.offset))

    def transpose(self, y: np.ndarray) -> np.ndarray:
        """A^T y for y = [nu (x >= 0), lambda (capacity), mu (bounding)]."""
        return np.bincount(self.cols, y[self.rows] * self.coef, self.nx + self.nm)

    def dual_sums(self, y: np.ndarray, dv: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(r_dual, price): r_dual = -A^T y - [v'(x); 0], whose m rows are
        each slot's link dual less its members' bounding duals, and each
        agent's sum(alpha mu) over its bounding rows."""
        n, (out, src, coef) = self.nx + self.nm, self.dual
        sums = np.bincount(out, np.concatenate((y, dv))[src] * coef, n + self.nx)
        return sums[:n], sums[n:]


def _interior_start(ws: _Workspace, seed: Optional[int]) -> np.ndarray:
    """Each m at a share of its link's capacity split evenly among the
    groups on it, each x at a share of its tightest bound."""
    rng = np.random.default_rng(seed) if seed is not None else None
    frac = np.full(ws.nm, 0.5) if rng is None else rng.uniform(0.35, 0.65, ws.nm)
    m = ws.caps[ws.m_link] * frac / np.bincount(ws.m_link, minlength=ws.nl)[ws.m_link]
    lo = np.full(ws.nx, math.inf)
    np.minimum.at(lo, ws.b_ix, m[ws.b_m] / ws.b_al)
    frac = np.full(ws.nx, 0.5) if rng is None else rng.uniform(0.3, 0.7, ws.nx)
    return np.concatenate((lo * frac, m))


def _max_steps(v: np.ndarray, dv: np.ndarray, n: int) -> List[float]:
    """Largest steps in (0, 1] keeping v + step * dv nonnegative on v[:n] and on v[n:]."""
    ratio = np.divide(v, dv, out=np.full(len(v), -1.0), where=dv < 0.0)
    return [min(1.0, -hi) for hi in np.maximum.reduceat(ratio, (0, n)).tolist()]


def _singular(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lu_solve(S: np.ndarray, b: np.ndarray) -> np.ndarray:
    """S^-1 b by the LAPACK gesv kernel that np.linalg.solve wraps, called
    directly under the same error state, so a singular S raises LinAlgError."""
    return _umath_linalg.solve1(S, b, signature="dd->d")


def _newton_solver(ws: _Workspace, d: np.ndarray, d2v: np.ndarray):
    """Solver for N dz = rhs, N = -diag(d2v) + A^T diag(d) A, d2v = v''(x), d = y / s:
    Sherman-Morrison on each link's m-block (diagonal Dm plus d_l * 11^T)
    leaves an n_x square S on x. A row's d * alpha^2 - (d * alpha)^2 / Dm
    enters S as d * alpha^2 * (its group peers' d) / Dm, so nothing cancels."""
    nx, nl = ws.nx, ws.nl
    d_b, d_l = d[nx + nl:], d[nx:nx + nl]
    c = d_b * ws.b_al
    inv_dm = 1.0 / np.bincount(ws.b_m, d_b, ws.nm)
    u = c * inv_dm[ws.b_m]
    w = d_l / (1.0 + d_l * ws.link_sums(inv_dm))
    D, C, U = np.bincount(ws.dcu, np.concatenate((d_b, c, u)), 3 * nx * nl).reshape(3, nx, nl)
    others = (ws.peers @ D).ravel()[ws.b_xl]
    S = (U * w) @ U.T - ws.peers * (C @ U.T)
    diagonal = S.ravel()[::nx + 1]  # a view
    diagonal += d[:nx] - d2v + np.bincount(ws.b_ix, u * ws.b_al * others, nx)
    scale = 1.0 / np.sqrt(diagonal)  # d spans many orders of magnitude
    S *= scale[:, None] * scale[None, :]

    def m_solve(v):  # the m-block's inverse times v
        t = v * inv_dm
        return t - inv_dm * (w * ws.link_sums(t))[ws.m_link]

    def solve(rhs):
        rx, rm = rhs[:nx], rhs[nx:]
        dx = scale * _lu_solve(
            S, scale * (rx + np.bincount(ws.b_ix, c * m_solve(rm)[ws.b_m], nx)))
        return np.concatenate((dx, m_solve(rm + np.bincount(ws.b_m, c * dx[ws.b_ix], ws.nm))))

    return solve


def _step_terms(ws: _Workspace, z: np.ndarray, y: np.ndarray) -> tuple:
    """(v', v'', price, r_dual, slack) at iterate (z, y): the slopes at x,
    each agent's sum(alpha mu), the dual residual
    r_dual = -A^T y - [v'(x); 0] and the primal slacks A z + offset, which
    the step and the loop's bound (_bound) both read."""
    dv, d2v = ws.slopes(z[:ws.nx])
    r_dual, price = ws.dual_sums(y, dv)
    return dv, d2v, price, r_dual, ws.apply(z) + ws.offset


def _mehrotra_step(ws: _Workspace, z: np.ndarray, s: np.ndarray, y: np.ndarray,
                   terms: tuple):
    """One predictor-corrector step on the KKT system of
    min -welfare(z) s.t. A z + offset = s >= 0, with multipliers y >= 0;
    terms is _step_terms(ws, z, y)."""
    _, d2v, _, r_dual, slack = terms
    n = len(s)
    r_primal = slack - s
    inv_s, sy, y_rp, s_and_y = 1.0 / s, s * y, y * r_primal, np.concatenate((s, y))
    gap = float(s @ y) / n
    solve = _newton_solver(ws, y * inv_s, d2v)

    def direction(r_comp):
        dz = solve(ws.transpose((r_comp - y_rp) * inv_s) - r_dual)
        ds = ws.apply(dz) + r_primal
        return dz, ds, (r_comp - y * ds) * inv_s

    dz, ds, dy = direction(-sy)
    step_s, step_y = _max_steps(s_and_y, np.concatenate((ds, dy)), n)
    gap_aff = float((s + step_s * ds) @ (y + step_y * dy)) / n
    target = max((gap_aff / gap) ** 3 * gap,
                 min(gap, 0.1 * float(np.abs(r_dual).max())))
    dz, ds, dy = direction(target - sy - ds * dy)
    step = STEP_TO_BOUNDARY * min(_max_steps(s_and_y, np.concatenate((ds, dy)), n))
    return z + step * dz, s + step * ds, y + step * dy


def _finish(ws: _Workspace, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Scale an iterate's (x, m) onto the mechanism's allocation (see the
    module docstring): each m keeps the scaled peak plus the largest share
    of its interior excess that still fits its link."""
    nx, nl = ws.nx, ws.nl
    x, m = z[:nx], z[nx:]
    peak = np.zeros(ws.nm)
    np.maximum.at(peak, ws.b_m, ws.b_al * x[ws.b_ix])
    load = ws.link_sums(peak)
    r = float((ws.caps / load).min())
    excess = m - peak
    room = ws.link_sums(excess)
    t = np.divide(ws.caps - r * load, room, out=np.ones(nl), where=room > 0.0).clip(0.0, 1.0)
    return r * x, r * peak + t[ws.m_link] * excess


def _slacks(ws: _Workspace, x: np.ndarray, m: np.ndarray, lam: np.ndarray,
            mu: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(s, comp): the slacks A [x; m] + offset (x, each link's capacity
    slack, each bounding row's m - alpha * x), and the products
    |lam * slack| and |mu * (m - alpha * x)| whose max is _residual's
    complementarity block."""
    s = ws.apply(np.concatenate((x, m))) + ws.offset
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN, which reads as inf
        return s, np.abs(np.concatenate((lam, mu)) * s[ws.nx:])


def _residual(ws: _Workspace, x: np.ndarray, m: np.ndarray, lam: np.ndarray,
              mu: np.ndarray, slacks: Optional[tuple] = None
              ) -> Tuple[float, float, float, float]:
    """Max-norm residual of the primal feasibility, dual feasibility,
    complementary slackness and stationarity blocks, in that order, for
    arrays in workspace order (mu per bounding row); slacks is _slacks of
    the same arrays when the caller has it. A NaN block, which a non-finite
    entry leaves, reads as infinite."""
    s, comp = _slacks(ws, x, m, lam, mu) if slacks is None else slacks
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which reads as inf
        r_dual, _ = ws.dual_sums(np.concatenate((np.zeros(ws.nx), lam, mu)), ws.dvalue(x))
        # v'(x) - sum(alpha mu); only overpricing is allowed at zero.
        resid = -r_dual[:ws.nx]
        blocks = (-s,
                  np.concatenate((-lam, -mu)),
                  comp,
                  np.concatenate((np.where(x > ws.thresh, np.abs(resid), resid),
                                  np.abs(r_dual[ws.nx:]))))
    peaks = (float(b.max()) for b in blocks)
    return tuple(math.inf if math.isnan(v) else max(0.0, v) for v in peaks)


def _bound(ws: _Workspace, z: np.ndarray, terms: tuple) -> float:
    """A lower bound on the residual of iterate z once finished, read from
    its _step_terms: the link-dual gaps |r_dual| on the m rows, which are
    _residual's bit for bit, alone if they exceed RESIDUAL_FLOOR; else,
    where no primal slack is negative, also the overpricing
    sum(alpha mu) - v'(x) of each agent above its zero-rate threshold, less
    OVERPRICE_MARGIN (see the module docstring). A NaN bound shows nothing."""
    dv, _, price, r_dual, slack = terms
    bound = float(np.abs(r_dual[ws.nx:]).max())
    if bound > RESIDUAL_FLOOR or not slack.min() >= 0.0:
        return bound
    over = price - dv
    over -= OVERPRICE_MARGIN * (dv + np.abs(over))
    return max(bound, float(over[z[:ws.nx] > ws.thresh].max(initial=-math.inf)))


def _finished(ws: _Workspace, z: np.ndarray, y: np.ndarray) -> tuple:
    """(x, m, slacks): iterate z finished (_finish), and _slacks of the
    finished arrays with y's duals."""
    x, m = _finish(ws, z)
    return x, m, _slacks(ws, x, m, y[ws.nx:ws.nx + ws.nl], y[ws.nx + ws.nl:])


def _measure(ws: _Workspace, t: int, y: np.ndarray, x: np.ndarray, m: np.ndarray,
             slacks: tuple) -> tuple:
    """(residual, t, blocks, x, m, y) of iterate t from its _finished
    arrays: entries order as "first least residual"."""
    blocks = _residual(ws, x, m, y[ws.nx:ws.nx + ws.nl], y[ws.nx + ws.nl:], slacks)
    return max(blocks), t, blocks, x, m, y


def check_a4(instance: NetworkInstance, primal: PrimalSolution) -> A4Report:
    """Count groups with a positive member rate on each link; a rate at or
    below its agent's zero-rate threshold (_Tables.zero_rate) counts as 0,
    as in the stationarity block, the replay and the lemmas."""
    T = _tables(instance)
    live = set()  # the slots of each positive agent's pairs
    for ki, zero, slots in zip(T.agents, T.zero_rate, T.agent_slots):
        if primal.x[ki] > zero:
            live.update(slots)
    sizes = [0] * len(T.link_ids)
    for s in live:
        sizes[T.slot_link[s]] += 1
    return A4Report(dict(zip(T.link_ids, sizes)), all(c >= 2 for c in sizes))


def kkt_residuals(instance: NetworkInstance, primal: PrimalSolution,
                  lam: Dict[str, float],
                  mu: Dict[Tuple[AgentId, str], float]) -> KKTReport:
    """Max-norm residual per optimality block, plus the sharing diagnostic.

    A NaN or infinite entry in x, m, lam or mu reads as an infinite residual."""
    ws = _Workspace(instance)
    blocks = _residual(ws, np.array([primal.x[ki] for ki in ws.agents], dtype=float),
                       np.array([primal.m[p] for p in ws.mpairs], dtype=float),
                       np.array([lam[lid] for lid in instance.link_ids], dtype=float),
                       np.array([mu[p] for p in ws.bnd], dtype=float))
    a4 = check_a4(instance, primal)
    return KKTReport(*blocks, a4.holds, a4.s_sizes)


def solve_cp(instance: NetworkInstance, tol: float = DEFAULT_TOL,
             init_seed: Optional[int] = None
             ) -> Tuple[PrimalSolution, DualCertificate]:
    """Primal-dual interior-point solve to the requested max KKT residual.

    init_seed jitters the strictly interior start (useful for probing that
    independent runs agree); the path itself is deterministic given the seed.
    tol must be finite and positive, as the CLI's --tol: a NaN or infinite
    tol would pass any stalled solve.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    require_valid(instance)
    ws = _Workspace(instance)
    nx, nl = ws.nx, ws.nl
    z = _interior_start(ws, init_seed)
    x0 = z[:nx]
    gap0 = max(1.0, float(ws.dvalue(x0) @ x0) / (ws.nx + ws.nm))
    s = ws.apply(z) + ws.offset
    y = gap0 / s
    best_gap, stale, measured, pending = math.inf, 0, [], []
    for t in range(MAX_ITERS + 1):
        gap = float(s @ y)
        if gap < (1.0 - PROGRESS) * best_gap:
            best_gap, stale = gap, 0
        else:
            stale += 1
        terms = _step_terms(ws, z, y)
        done = None if _bound(ws, z, terms) > RESIDUAL_FLOOR else _finished(ws, z, y)
        if done and float(done[2][1].max()) <= RESIDUAL_FLOOR:  # finished comp block
            measured.append(_measure(ws, t, y, *done))
        else:
            pending.append((t, z, y, done))  # a bound shows it above the floor
        if measured and measured[-1][0] <= RESIDUAL_FLOOR or stale >= PATIENCE or t == MAX_ITERS:
            break
        try:
            z, s, y = _mehrotra_step(ws, z, s, y, terms)
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(np.concatenate((z, s, y))).all():
            break
    # At the floor no other iterate can be the best: each lies above it.
    if not measured or measured[-1][0] > RESIDUAL_FLOOR:
        measured += [_measure(ws, t, y, *(done or _finished(ws, z, y)))
                     for t, z, y, done in pending]
    res, _, blocks, x, m, y = min(measured)
    if res > tol:
        raise SolverError(
            f"interior point stalled at max residual {res:.3e} > tol {tol:.3e}")
    primal = PrimalSolution(dict(zip(ws.agents, x.tolist())), dict(zip(ws.mpairs, m.tolist())))
    lam = dict(zip(instance.link_ids, y[nx:nx + nl].tolist()))
    mu = dict(zip(ws.bnd, y[nx + nl:].tolist()))
    a4 = check_a4(instance, primal)
    return primal, DualCertificate(lam, mu, KKTReport(*blocks, a4.holds, a4.s_sizes))


def argmax_ties(instance: NetworkInstance, primal: PrimalSolution
                ) -> Dict[Tuple[int, str], List[int]]:
    """Members attaining the group's weighted peak on each link, within a
    relative 1e-6.

    More than one member means the bounding duals on that (group, link) are
    not unique; downstream consumers get the tie set instead of a warning.
    """
    T = _tables(instance)
    xs = [primal.x[ki] for ki in T.agents]
    rates = [alpha * xs[a] for a, _, _, alpha, _, _ in T.pairs]
    ties = {}
    for key, pairs, members in zip(T.slot_keys, T.slot_pairs, instance.members_on_link.values()):
        peak = max([rates[p] for p in pairs])  # each slot's pairs in member order
        cut = peak - 1e-6 * max(1.0, peak)
        ties[key] = [i for p, i in zip(pairs, members) if rates[p] >= cut]
    return ties


def solution_to_dict(instance: NetworkInstance, primal: PrimalSolution,
                     dual: DualCertificate) -> Dict[str, object]:
    """solution.json's document; keyed by the instance's own slots and
    pairs, which solve_cp's primal and dual cover exactly."""
    T = _tables(instance)
    return {
        "x": dict(zip(T.agent_labels, map(primal.x.__getitem__, T.agents))),
        "m": dict(zip(T.slot_labels, map(primal.m.__getitem__, T.slot_keys))),
        "lambda": {lid: dual.lam[lid] for lid in instance.link_ids},
        "mu": dict(zip(T.pair_labels, map(dual.mu.__getitem__, T.pair_keys))),
        "residuals": dual.residuals.as_dict(),
        "welfare": welfare(instance, primal.x),
        "peak_ties": dict(zip(T.slot_labels, argmax_ties(instance, primal).values())),
    }


def solution_to_json(instance: NetworkInstance, primal: PrimalSolution,
                     dual: DualCertificate) -> str:
    return canonical_json(solution_to_dict(instance, primal, dual))
