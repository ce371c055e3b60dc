"""Feasibility of belief-distribution pairs and welfare maximization.

For a binary state and two agents, a pair of belief distributions is
realizable by some private private structure exactly when the second is a
mean-preserving contraction of the conjugate of the first.
:func:`feasibility_certificate` makes the existence constructive: it returns
an explicit joint table with the requested marginal posteriors, built as the
paper's proof builds it.  The staircase table of ``(mu1, conjugate(mu1))``
is garbled on agent 2's side through the left-curtain martingale coupling of
``conjugate(mu1)`` and ``mu2``, computed by one exact left-to-right sweep.

:func:`maximize_welfare` optimizes social welfare over the frontier.  A
welfare-maximal structure always exists with one agent holding a two-point
belief distribution and the other its (at most three-point) conjugate, so
the search space is the two scalars ``(alpha, beta)`` parameterizing
``mu = alpha/(alpha+beta) delta_{pbar-beta} + beta/(alpha+beta)
delta_{pbar+alpha}``.  On that family welfare is piecewise "linear plus
hyperbola", so a finite set of candidates, the meeting points of the lines
where either agent's best action can change and the stationary points along
them, contains a maximizer; no numerical search runs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._num import _int_dtype, _tol
from .beliefs import (
    AtomicDist,
    ORDER_TOL,
    _float_view,
    _gaps,
    _is_mpc_of_conjugate,
    conjugate,
    mean,
)
from .errors import ValidationError
from .structures import FiniteStructure


def is_feasible_pair(mu1: AtomicDist, mu2: AtomicDist, tol=ORDER_TOL) -> bool:
    """Can some private private structure induce these two belief dists?

    True iff the means agree within ``tol`` and ``mu2`` is a
    mean-preserving contraction of the conjugate of ``mu1``.  The criterion
    is symmetric in its arguments.  Exact pairs compare on integer
    numerators and build no Fraction of the conjugate.
    """
    tol = _tol(tol)
    if abs(mean(mu1) - mean(mu2)) > tol:
        return False
    return _is_mpc_of_conjugate(mu2, mu1, tol)


def _shadow(free, m, need):
    """Find the left-curtain shadow of an atom of mass ``m`` and first
    moment ``need`` in ``free``.

    ``free`` holds the conjugate mass not yet taken, as ``(gap index,
    location, mass)`` entries in ascending location.  The shadow is the
    leftmost quantile window of mass ``m`` whose first moment is ``need``;
    the window slides right from the left end, and between two breakpoints
    its first moment is linear in the shift.  When no window reaches
    ``need`` (float round-off) the sweep stops at the rightmost one.
    Returns ``(a, b, left, right, step)``: the window is ``free[a]`` from
    ``left`` on, through ``free[b]`` up to ``right``, and ``step`` is None
    or the pair ``(p, s)`` by whose ratio both ends still move right to hit
    ``need`` exactly.  Floats divide; integers rescale their masses.
    """
    zero = m * 0
    last = len(free) - 1
    b, acc, moment = 0, zero, zero
    while b < last and acc + free[b][2] < m:
        acc += free[b][2]
        moment += free[b][2] * free[b][1]
        b += 1
    right = min(m - acc, free[b][2])
    moment += right * free[b][1]
    a, left = 0, zero
    while moment < need:
        if right == free[b][2]:
            if b == last:
                break
            b, right = b + 1, zero
            continue
        to_left = free[a][2] - left
        to_right = free[b][2] - right
        slope = free[b][1] - free[a][1]
        step = min(to_left, to_right)
        if slope * step >= need - moment:
            return a, b, left, right, (need - moment, slope)
        moment += slope * step
        if to_left <= to_right:
            right = free[b][2] if to_left == to_right else right + step
            a, left = a + 1, zero
        else:
            left, right = left + step, free[b][2]
    return a, b, left, right, None


def _cut(free, a, b, left, right):
    """The window of :func:`_shadow` taken out of ``free``: the entries
    taken and the entries left free."""
    j_a, y_a, r_a = free[a]
    j_b, y_b, r_b = free[b]
    if a == b:
        taken = [(j_a, y_a, right - left)]
        kept = [(j_a, y_a, r_a - (right - left))]
    else:
        taken = [(j_a, y_a, r_a - left), *free[a + 1:b], (j_b, y_b, right)]
        kept = [(j_a, y_a, left), (j_b, y_b, r_b - right)]
    taken = [t for t in taken if t[2] > 0]
    return taken, free[:a] + [e for e in kept if e[2] > 0] + free[b + 1:]


def _column(window, total, k_n, t):
    """The blocks ``(state, first row, end row, t, share)`` of column ``t``.

    ``window`` is sorted by gap index.  Agent 1's atom a is above gap j iff
    j <= a, so the state-1 share of the column steps up by each window mass
    at its gap index.  Summed in gap order, the running shares never pass
    ``total``.
    """
    blocks, share, row = [], total * 0, 0
    for j, _, mass in window + [(k_n, None, 0)]:
        if j > row:
            blocks += [(1, row, j, t, share), (0, row, j, t, total - share)]
            row = j
        share += mass
    return blocks


def _table(blocks, u, n_cols):
    """The certificate's ``(2, rows, n_cols)`` table: row weights ``u``
    times the share of each block of :func:`_column`.

    Each column's blocks tile rows ``0..len(u)`` in pairs, state 1 then
    state 0, and the columns come in order; so one ``np.repeat`` per state
    lays out its shares column by column.
    """
    shares = np.array([v for *_, v in blocks], dtype=u.dtype).reshape(-1, 2)
    lengths = [j - row for _, row, j, _, _ in blocks[::2]]
    pmf = np.empty((2, len(u), n_cols), dtype=u.dtype)
    for state in (0, 1):
        pmf[state] = np.repeat(shares[:, 1 - state], lengths).reshape(n_cols, -1).T
    return pmf * u[:, None]


def feasibility_certificate(mu1, mu2, tol=ORDER_TOL):
    """Concrete private private structure realizing a feasible belief pair.

    Returns a :class:`FiniteStructure` whose two posterior distributions
    equal ``(mu1, mu2)`` within ``tol``, or None when the pair is not
    feasible.  Agent 1's values index the atoms of ``mu1`` and agent 2's
    the atoms of ``mu2``.

    The table is the paper's construction.  In the staircase structure of
    ``(mu1, conjugate(mu1))`` agent 2 observes a support gap of ``mu1`` and
    the state is 1 exactly when agent 1's atom lies above that gap.  Agent
    2's gap is then garbled into an atom of ``mu2``: the atoms of ``mu2``
    are swept in ascending order, and each takes its left-curtain shadow
    from the conjugate mass still free (Beiglboeck & Juillet 2016).  The
    garbling is independent of the state and of agent 1, so privacy holds
    exactly.  Exact inputs give an exact table at every size, swept on
    integer numerators; when either input holds floats, the same sweep runs
    on floats and the table holds floats.  On pairs that are feasible only
    within ``tol``, any first-moment mismatch between the free conjugate
    mass and the atoms still to place is spread evenly over those atoms,
    and a pair whose columns still miss ``mu2`` by more than ``tol`` gets
    None.

    One loop serves both kinds (notes/decisions.md, "Feasibility
    certificates").  On integers, locations are numerators over ``ly`` and
    masses over ``dm``; a window that stops between two breakpoints moves
    by a ratio ``p / s`` after ``dm`` and every mass are multiplied by its
    reduced denominator, and the table holds row weights over ``W1`` times
    column shares over ``dm``.  Floats take ``ly = dm = 1``, each value
    rounded once from its input, and move the window by ``p / s``.
    """
    tol = _tol(tol)
    for name, mu in (("mu1", mu1), ("mu2", mu2)):
        if not 0 < mean(mu) < 1:
            raise ValidationError(
                f"field '{name}': a certificate needs a common mean in (0, 1), "
                f"got {mean(mu)}"
            )
    if not is_feasible_pair(mu1, mu2, tol):
        return None
    e1, e2 = mu1._ints, mu2._ints
    exact = e1 is not None and e2 is not None
    if exact:
        ly, dm = math.lcm(e1.W, e2.X), math.lcm(e1.X, e2.W)
        ratio, div = Fraction, operator.floordiv
    else:
        e1 = _float_view(mu1) if e1 is None else e1
        e2 = _float_view(mu2) if e2 is None else e2
        ly = dm = 1
        ratio = div = operator.truediv

    def over(nums, den, common):
        # nums / den as numerators over common, or as floats.
        return [div(v * common, den) for v in nums.tolist()]

    loc, gap, _, _ = _gaps(e1)
    keep = np.flatnonzero(gap > 0)[::-1]
    free = list(zip(keep.tolist(), over(loc[keep], e1.W, ly), over(gap[keep], e1.X, dm)))
    zs, ms = over(e2.x, e2.X, ly), over(e2.w, e2.W, dm)
    # First moment the free mass holds beyond what the targets still ask
    # for; it is spread evenly over those targets' windows.
    excess = sum(v * y for _, y, v in free) - sum(m * z for z, m in zip(zs, ms))
    todo = sum(ms)
    k_n, blocks = len(e1.w), []
    for t, z in enumerate(zs):
        m, window = ms[t], free
        if t < len(zs) - 1:
            window = []
            if free:
                need = m * z if not excess else m * (z + ratio(excess, todo))
                a, b, left, right, step = _shadow(free, m, need)
                if step:
                    shift = ratio(*step)
                    q, shift = (shift.denominator, shift.numerator) if exact else (1, shift)
                    if q > 1:
                        dm, excess, todo, m = dm * q, excess * q, todo * q, m * q
                        ms = [v * q for v in ms]
                        free = [(j, y, v * q) for j, y, v in free]
                        blocks = [(*block, v * q) for *block, v in blocks]
                    left, right = left * q + shift, right * q + shift
                window, free = _cut(free, a, b, left, right)
        window.sort()
        total = sum(mass for _, _, mass in window)
        moment = sum(mass * y for _, y, mass in window)
        # The pair passed is_feasible_pair, so tol >= 0 and a column that
        # hits its atom exactly passes without a Fraction.
        miss, off = total - m, moment - total * z
        if (miss or off) and (abs(ratio(miss, dm)) > tol
                              or abs(ratio(off, dm * ly)) > tol * ratio(total, dm)):
            return None
        excess -= moment - m * z
        todo -= m
        blocks += _column(window, total, k_n, t)
    if exact:
        den = e1.W * dm
        # Every cell is a row weight times a share of its column: under 2 den.
        u = e1.w.astype(_int_dtype(2 * den))
    else:
        den, u = None, np.array(over(e1.w, e1.W, 1))
    return FiniteStructure._of(_table(blocks, u, len(zs)), den)


# ---------------------------------------------------------------------------
# Welfare maximization over the Pareto frontier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WelfareResult:
    """Welfare-maximal frontier structure for two decision problems.

    ``mu1``/``mu2`` are the two agents' belief distributions (one two-point,
    the other its conjugate, in whichever role assignment won);
    ``reveal_one`` is the comparison welfare from fully informing one agent
    and telling the other nothing.
    """

    alpha: float
    beta: float
    mu1: AtomicDist
    mu2: AtomicDist
    welfare: float
    reveal_one: float


def _payoff_table(u):
    try:
        arr = np.asarray(u, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(
            "payoff tables are state x action arrays of numbers"
        ) from None
    if arr.ndim != 2 or arr.shape[0] != 2 or arr.shape[1] < 1:
        raise ValidationError("payoff tables are state x action with 2 states")
    if not np.isfinite(arr).all():
        raise ValidationError("payoffs must be finite")
    return arr


def indirect_utility(u, beliefs):
    """max_a [(1-q) u[0,a] + q u[1,a]] evaluated at an array of beliefs."""
    q = np.asarray(beliefs, dtype=float)
    return np.max(u[0] + np.multiply.outer(q, u[1] - u[0]), axis=-1)


def expected_indirect_utility(mu: AtomicDist, u) -> float:
    locs = np.array([float(x) for x in mu.locations])
    wts = np.array([float(w) for w in mu.weights])
    return float(np.dot(wts, indirect_utility(_payoff_table(u), locs)))


def welfare_of_pair(mu1: AtomicDist, mu2: AtomicDist, u1, u2) -> float:
    """Social welfare when agent i best-responds to beliefs drawn from mu_i."""
    return expected_indirect_utility(mu1, u1) + expected_indirect_utility(mu2, u2)


def _two_point(prior, alpha, beta) -> AtomicDist:
    total = alpha + beta
    return AtomicDist([
        (prior - beta, alpha / total),
        (prior + alpha, beta / total),
    ])


def _pair_welfare(u_lo, u_hi, prior, alpha, beta):
    """Welfare of the frontier pair at (alpha, beta), vectorized.

    ``u_lo`` is the payoff table of the agent holding the two-point
    distribution and ``u_hi`` of the agent holding its conjugate.  alpha and
    beta may be arrays of matching shape.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    total = alpha + beta
    w_lo = alpha / total
    middle = beta / total
    two_point = (
        w_lo * indirect_utility(u_lo, prior - beta)
        + (1 - w_lo) * indirect_utility(u_lo, prior + alpha)
    )
    conj = (
        (1 - prior - alpha) * indirect_utility(u_hi, np.zeros_like(alpha))
        + total * indirect_utility(u_hi, middle)
        + (prior - beta) * indirect_utility(u_hi, np.ones_like(alpha))
    )
    return two_point + conj


def _crossings(u):
    """Beliefs in (0, 1) where two actions' expected payoffs cross."""
    slope = u[1] - u[0]
    i, j = np.triu_indices(u.shape[1], 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (u[0, j] - u[0, i]) / (slope[i] - slope[j])
    return q[(q > 0) & (q < 1)]


def _candidates(u_lo, u_hi, prior):
    """Points ``(alpha, beta)`` among which the frontier welfare peaks.

    In ``x = prior - beta`` and ``y = prior + alpha`` the crossings of the
    two-point agent cut x- and y-lines and those of the conjugate agent cut
    rays ``(prior - x)/(y - x) = kappa``.  The candidates are the
    intersections of these lines and, on each x- or y-line, the stationary
    point of every branch ``A + D t + M/(t - t0)`` (see
    ``notes/decisions.md``, "Welfare optimum by candidate enumeration").
    """
    cuts, kappa = _crossings(u_lo), _crossings(u_hi)
    xs = np.append(0.0, cuts[cuts < prior])
    ys = np.append(1.0, cuts[cuts > prior])

    def stationary_offsets(t, width, d):
        # sqrt(M/D) for every pair of actions: M = width (l_a(t) - V_lo(t))
        # of the two-point agent, D = u_hi[., h] - V_hi(.) of the other.
        lines = u_lo[0] + np.multiply.outer(t, u_lo[1] - u_lo[0])
        m = width[:, None] * (lines - lines.max(axis=1, keepdims=True))
        return np.sqrt(m[:, :, None] / (d - d.max())).reshape(len(t), -1)

    x_col, y_col = xs[:, None], ys[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        points = [
            (x_col, ys),  # x-line meets y-line
            (x_col, x_col + (prior - x_col) / kappa),  # ray meets x-line
            ((prior - kappa * y_col) / (1 - kappa), y_col),  # ray meets y-line
            (x_col, x_col + stationary_offsets(xs, prior - xs, u_hi[0])),
            (y_col - stationary_offsets(ys, ys - prior, u_hi[1]), y_col),
        ]
    pairs = [np.broadcast_arrays(a, b) for a, b in points]
    x = np.concatenate([a.ravel() for a, _ in pairs])
    y = np.concatenate([b.ravel() for _, b in pairs])
    keep = (0 <= x) & (x < prior) & (prior < y) & (y <= 1)
    return y[keep] - prior, prior - x[keep]


def maximize_welfare(u1, u2, prior):
    """The welfare-maximal structure on the Pareto frontier.

    Some welfare-maximal private private structure gives one agent a
    two-point belief distribution, fixed by ``(alpha, beta)`` in
    ``(0, 1 - prior] x (0, prior]``, and the other its conjugate.  On that
    family welfare is piecewise "linear plus hyperbola", and a finite set of
    candidates (:func:`_candidates`) contains a maximizer for each role
    assignment; the result is the best candidate of both assignments,
    evaluated in floats.  Ties go to the lexicographically smallest
    ``(alpha, beta)``, then to the unswapped assignment.
    """
    tables = []
    for name, u in (("u1", u1), ("u2", u2)):
        try:
            tables.append(_payoff_table(u))
        except ValidationError as exc:
            raise ValidationError(f"field '{name}': {exc}") from None
    u1, u2 = tables
    try:
        prior = float(prior)
    except (TypeError, ValueError):
        raise ValidationError(f"field 'prior': expected a number, got {prior!r}") from None
    if not (0 < prior < 1):
        raise ValidationError("field 'prior': the prior must be interior to (0, 1)")

    found = []  # (welfare, alpha, beta, swapped) arrays per role assignment
    for swapped in (False, True):
        u_lo, u_hi = (u2, u1) if swapped else (u1, u2)
        alphas, betas = _candidates(u_lo, u_hi, prior)
        values = _pair_welfare(u_lo, u_hi, prior, alphas, betas)
        found.append((values, alphas, betas, np.full(len(alphas), swapped)))
    values, alphas, betas, swaps = map(np.concatenate, zip(*found))
    best = np.lexsort((swaps, betas, alphas, -values))[0]
    welfare, alpha, beta = float(values[best]), float(alphas[best]), float(betas[best])
    swapped = bool(swaps[best])

    mu_lo = _two_point(prior, alpha, beta)
    mu_hi = conjugate(mu_lo)
    mu1_out, mu2_out = (mu_hi, mu_lo) if swapped else (mu_lo, mu_hi)

    reveal = max(
        welfare_of_pair(
            AtomicDist([(0, 1 - prior), (1, prior)]),
            AtomicDist([(prior, 1)]),
            u1, u2,
        ),
        welfare_of_pair(
            AtomicDist([(prior, 1)]),
            AtomicDist([(0, 1 - prior), (1, prior)]),
            u1, u2,
        ),
    )
    return WelfareResult(
        alpha=alpha, beta=beta, mu1=mu1_out, mu2=mu2_out,
        welfare=welfare, reveal_one=reveal,
    )
