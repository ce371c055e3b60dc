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

from dataclasses import dataclass

import numpy as np

from .beliefs import (
    AtomicDist,
    ORDER_TOL,
    conjugate,
    is_mpc,
    mean,
    support_gaps,
)
from .errors import ValidationError
from .structures import FiniteStructure


def is_feasible_pair(mu1: AtomicDist, mu2: AtomicDist, tol=ORDER_TOL) -> bool:
    """Can some private private structure induce these two belief dists?

    True iff the means agree within ``tol`` and ``mu2`` is a
    mean-preserving contraction of the conjugate of ``mu1``.  The criterion
    is symmetric in its arguments.
    """
    if abs(mean(mu1) - mean(mu2)) > tol:
        return False
    return is_mpc(mu2, conjugate(mu1), tol)


def _shadow(free, m, z):
    """Take the left-curtain shadow of an atom ``(z, m)`` out of ``free``.

    ``free`` holds the conjugate mass not yet taken, as ``(gap index,
    location, mass)`` entries in ascending location.  The shadow is the
    leftmost quantile window of mass ``m`` whose barycenter is ``z``; the
    window slides right from the left end, and between two breakpoints its
    first moment is linear in the shift, so the stopping point is solved
    for exactly.  When no window reaches ``z`` (float round-off) the sweep
    stops at the rightmost one.  Returns the entries taken and the entries
    left free.
    """
    if not free:
        return [], free
    zero = m * 0
    last = len(free) - 1
    # The window is free[a] from ``left`` on, through free[b] up to ``right``.
    b, acc, moment = 0, zero, zero
    while b < last and acc + free[b][2] < m:
        acc += free[b][2]
        moment += free[b][2] * free[b][1]
        b += 1
    right = min(m - acc, free[b][2])
    moment += right * free[b][1]
    a, left = 0, zero
    need = m * z
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
            step = (need - moment) / slope
            left, right, moment = left + step, right + step, need
            break
        moment += slope * step
        if to_left <= to_right:
            right = free[b][2] if to_left == to_right else right + step
            a, left = a + 1, zero
        else:
            left, right = left + step, free[b][2]
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
    exactly.  Exact inputs give an exact table at every size; when either
    input holds floats, the table holds floats.  On pairs that are
    feasible only within ``tol``, any first-moment mismatch between the
    free conjugate mass and the atoms still to place is spread evenly over
    those atoms, and a pair whose columns still miss ``mu2`` by more than
    ``tol`` gets None.
    """
    for name, mu in (("mu1", mu1), ("mu2", mu2)):
        if not 0 < mean(mu) < 1:
            raise ValidationError(
                f"field '{name}': a certificate needs a common mean in (0, 1), "
                f"got {mean(mu)}"
            )
    if not is_feasible_pair(mu1, mu2, tol):
        return None
    exact = mu1.exact and mu2.exact
    num = (lambda v: v) if exact else float
    u = np.array([num(w) for w in mu1.weights], dtype=object if exact else float)
    indices, atoms = support_gaps(mu1)
    gaps = [(j, num(y), num(v)) for j, (y, v) in zip(indices, atoms)][::-1]
    targets = [(num(z), num(m)) for z, m in mu2.atoms]
    # First moment the free mass holds beyond what the targets still ask
    # for; it is spread evenly over those targets' windows.
    excess = sum(v * y for _, y, v in gaps) - sum(m * z for z, m in targets)
    todo = sum(m for _, m in targets)

    k_n, j_n = len(u), len(targets)
    pmf = np.full((2, k_n, j_n), u[0] * 0, dtype=u.dtype)
    free = gaps
    for t, (z, m) in enumerate(targets):
        if t < j_n - 1:
            window, free = _shadow(free, m, z + excess / todo)
        else:
            window = free
        # Summed in gap order, the running shares below never pass total.
        window.sort()
        total = sum(mass for _, _, mass in window)
        moment = sum(mass * y for _, y, mass in window)
        if abs(total - m) > tol or abs(moment - total * z) > tol * total:
            return None
        excess -= moment - m * z
        todo -= m
        # Agent 1's atom a is above gap j iff j <= a, so the state-1 share
        # of column t steps up by each window mass at its gap index.
        share, row = total * 0, 0
        for j, _, mass in window + [(k_n, None, 0)]:
            if j > row:
                if share:
                    pmf[1, row:j, t] = u[row:j] * share
                if total - share:
                    pmf[0, row:j, t] = u[row:j] * (total - share)
                row = j
            share += mass
    return FiniteStructure(pmf)


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
