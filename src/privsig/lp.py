"""Exact linear programming over rationals.

A dense two-phase simplex with Bland's anti-cycling rule, exact throughout.
Each tableau row is a list of Python ints over one positive int
denominator, reduced by one gcd per row after every update, so no pivot
builds a Fraction (fraction-free elimination; notes/decisions.md, "Exact
simplex on integer rows").  The inputs are coerced to Fractions once and
the results are returned as Fractions.  Intended for the small rational
programs in this package (designer problems, zero-sum games), where exact
optima such as 10/9 matter; grid-scale programs go through scipy's HiGHS
instead.

The lexicographic maximum of :func:`solve_lp_lexmax` comes from the same
run, pivoting on the optimal face (notes/decisions.md).  When every
constraint is an inequality, the duals are read off the final objective row
at the slack columns (``LpResult.duals``); a program of ``<=`` rows with
nonnegative right-hand sides starts from the slack basis and runs no
phase 1.

All variables are nonnegative.  Free variables must be encoded by the caller
as differences of two nonnegative ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._num import as_fraction
from .errors import ValidationError

LEQ, GEQ, EQ = "<=", ">=", "="


@dataclass(frozen=True)
class LpResult:
    """Outcome of a solve.

    ``duals`` has one Fraction per constraint, in input order, when the
    program is optimal and has no ``"="`` row, and is None otherwise.  They
    are an optimal solution of the dual program, a shadow price per
    right-hand side, so ``sum(b_i * duals[i]) == value``.  For a
    maximization ``A^T duals >= c``, with ``duals[i] >= 0`` on ``"<="`` rows
    and ``<= 0`` on ``">="`` rows; for a minimization each of these
    inequalities is reversed.
    """

    status: str            # "optimal" | "infeasible" | "unbounded"
    x: tuple               # optimal point (empty unless optimal)
    value: Fraction | None
    duals: tuple | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _integer_row(values, field):
    """Exact ``values`` as ``(numerators, D)`` over their least common denominator.

    Ints and Fractions are read as they are; anything else goes through
    :func:`as_fraction`, which refuses booleans.
    """
    try:
        fracs = [v if isinstance(v, (int, Fraction)) and v.__class__ is not bool
                 else as_fraction(v) for v in values]
    except ValidationError as exc:
        raise ValidationError(f"field '{field}': {exc}") from None
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _reduced(line, den):
    """``line / den`` with the gcd of the numerators and ``den`` divided out."""
    g = math.gcd(den, *line)
    if g == 1:
        return line, den
    return [v // g for v in line], den // g


def _eliminate(line, den, col, prow, p):
    """``line / den`` minus its ``col`` entry times the pivot row ``prow / p``.

    The pivot row's ``col`` entry equals its denominator ``p`` (value 1), so
    the result is ``(line * p - f * prow) / (den * p)`` with ``f = line[col]``.
    """
    f = line[col]
    return _reduced([v * p - f * pv for v, pv in zip(line, prow)], den * p)


def _pivot(tableau, dens, basis, row, col):
    prow, p = tableau[row], tableau[row][col]
    if p < 0:
        prow, p = [-v for v in prow], -p
    # Dividing the row by its pivot value puts it over the pivot entry.
    prow, p = _reduced(prow, p)
    tableau[row], dens[row] = prow, p
    for i, line in enumerate(tableau):
        if i != row and line[col]:
            tableau[i], dens[i] = _eliminate(line, dens[i], col, prow, p)
    basis[row] = col


def _run_simplex(tableau, dens, basis, cols):
    """Optimize the tableau in place; last row is the objective (maximize).

    Returns "optimal" or "unbounded".  Only the columns in ``cols`` may
    enter.  Bland's rule: entering column is the lowest one with positive
    reduced cost, leaving row breaks ratio ties by lowest basis index.
    Denominators are positive, so signs are read off the numerators, and the
    ratios ``b_i / a_i`` of two rows compare as ``b_i * a_k`` against
    ``b_k * a_i`` because each row's denominator cancels from its own ratio.
    """
    while True:
        obj = tableau[-1]
        col = next((j for j in cols if obj[j] > 0), None)
        if col is None:
            return "optimal"
        best = None
        for i in range(len(tableau) - 1):
            line = tableau[i]
            a = line[col]
            if a > 0:
                if best is None:
                    best = i
                    continue
                lhs = line[-1] * tableau[best][col]
                rhs = tableau[best][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best = i
        if best is None:
            return "unbounded"
        _pivot(tableau, dens, basis, best, col)


def solve_lp(objective, constraints, maximize=True) -> LpResult:
    """Solve max (or min) c.x subject to linear constraints and x >= 0.

    Parameters
    ----------
    objective : sequence of numbers
        Coefficients c, coerced to Fractions.
    constraints : sequence of (coeffs, sense, rhs)
        ``sense`` is one of ``"<="``, ``">="``, ``"="``; coefficients and
        right-hand sides are coerced to Fractions.
    maximize : bool
        Minimization negates the objective.

    A coefficient or right-hand side that is not a finite number (NaN,
    infinity, None) raises :class:`ValidationError` naming ``'objective'``
    or ``'constraints'``.  The duals are described on :class:`LpResult`.
    """
    c, c_den = _integer_row(objective, "objective")
    if not maximize:
        c = [-v for v in c]
    res = _solve([(c, c_den)], constraints)
    if res.optimal and not maximize:
        duals = None if res.duals is None else tuple(-y for y in res.duals)
        return LpResult("optimal", res.x, -res.value, duals)
    return res


def solve_lp_lexmax(objective, constraints) -> LpResult:
    """Maximize c.x, then x_0, x_1, ... in turn, each on the optimal face
    of the ones before it: the lexicographically maximal optimum.

    ``value`` and ``duals`` are those of max c.x; inputs are as in
    :func:`solve_lp`.  The status is "unbounded" when c.x, or a coordinate
    on its face, is unbounded.
    """
    n = len(objective)
    units = [([0] * t + [1] + [0] * (n - t - 1), 1) for t in range(n)]
    return _solve([_integer_row(objective, "objective"), *units], constraints)


def _solve(objectives, constraints) -> LpResult:
    """Maximize the ``(numerators, denominator)`` rows of ``objectives`` in
    priority order; ``value`` is the first one's optimum.

    After each optimum only its columns of zero reduced cost may enter, so
    later pivots stay on its optimal face (notes/decisions.md,
    "Lexicographic optimum on the optimal face").
    """
    n = len(objectives[0][0])
    rows = []
    senses = []
    given = []
    for coeffs, sense, b in constraints:
        if len(coeffs) != n:
            raise ValidationError("constraint arity does not match objective")
        if sense not in (LEQ, GEQ, EQ):
            raise ValidationError(f"unknown constraint sense {sense!r}")
        given.append(sense)
        nums, den = _integer_row([*coeffs, b], "constraints")
        if nums[-1] < 0:
            nums = [-v for v in nums]
            sense = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}[sense]
        rows.append((nums, den))
        senses.append(sense)

    m = len(rows)
    n_slack = sum(1 for s in senses if s != EQ)
    n_art = sum(1 for s in senses if s != LEQ)
    n_cols = n + n_slack + n_art

    # Row i is tableau[i] / dens[i]; the last entry is the right-hand side.
    tableau = []
    dens = []
    basis = []
    slack_at = n
    art_at = n + n_slack
    art_cols = []
    for (nums, den), sense in zip(rows, senses):
        line = nums[:n] + [0] * (n_slack + n_art) + [nums[n]]
        if sense == LEQ:
            line[slack_at] = den
            basis.append(slack_at)
            slack_at += 1
        elif sense == GEQ:
            line[slack_at] = -den
            slack_at += 1
            line[art_at] = den
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        else:
            line[art_at] = den
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        tableau.append(line)
        dens.append(den)

    # Phase 1: drive the artificial variables to zero.
    if art_cols:
        art_set = set(art_cols)
        obj, obj_den = [0] * (n_cols + 1), 1
        for col in art_cols:
            obj[col] = -1
        # Price out the basic artificial columns.
        for i, b_col in enumerate(basis):
            if b_col in art_set:
                obj, obj_den = _eliminate(obj, obj_den, b_col, tableau[i], dens[i])
        tableau.append(obj)
        dens.append(obj_den)
        status = _run_simplex(tableau, dens, basis, range(n_cols))
        # The objective row stores the negated value: > 0 means some
        # artificial variable is stuck at a positive level.
        if status != "optimal" or tableau[-1][-1] > 0:
            return LpResult("infeasible", (), None)
        tableau.pop()
        dens.pop()
        drop = []
        for i in range(m):
            if basis[i] in art_set:
                col = next(
                    (j for j in range(n + n_slack) if tableau[i][j] != 0), None
                )
                if col is None:
                    drop.append(i)
                else:
                    _pivot(tableau, dens, basis, i, col)
        for i in reversed(drop):
            tableau.pop(i)
            dens.pop(i)
            basis.pop(i)

    # Phase 2: the objectives in turn, artificial columns frozen out.  Each
    # optimum leaves only its columns of zero reduced cost free to enter.
    n_real = n + n_slack
    for line in tableau:
        del line[n_real:n_cols]
    cols = range(n_real)
    value = duals = None
    for c, c_den in objectives:
        obj, obj_den = c + [0] * (n_slack + 1), c_den
        for i, b_col in enumerate(basis):
            if obj[b_col]:
                obj, obj_den = _eliminate(obj, obj_den, b_col, tableau[i], dens[i])
        tableau.append(obj)
        dens.append(obj_den)
        if _run_simplex(tableau, dens, basis, cols) == "unbounded":
            return LpResult("unbounded", (), None)
        obj, obj_den = tableau.pop(), dens.pop()
        if value is None:
            value = Fraction(-obj[-1], obj_den)
            if n_slack == m:  # no "=" row, whose dual left with its artificial column
                duals = _duals(obj, obj_den, n, given)
        cols = [j for j in cols if obj[j] == 0]

    x = [Fraction(0)] * n
    for i, b_col in enumerate(basis):
        if b_col < n:
            x[b_col] = Fraction(tableau[i][-1], dens[i])
    return LpResult("optimal", tuple(x), value, duals)


def _duals(obj, obj_den, n, senses):
    """Duals of an all-inequality program from its optimal objective row.

    The row holds ``c - y^T [A | S]`` with ``y`` the row multipliers, and
    constraint ``i``'s slack column ``n + i`` is ``+1`` on a ``<=`` row and
    ``-1`` on a ``>=`` row in the orientation the caller gave (a row negated
    for its right-hand side had its sense flipped with it).  So
    ``y_i = -r`` on ``<=`` rows and ``y_i = r`` on ``>=`` rows, ``r`` the
    slack column's reduced cost, and the right-hand side entry
    ``-y.b = -value`` is strong duality.
    """
    return tuple(
        Fraction(-obj[n + i] if sense == LEQ else obj[n + i], obj_den)
        for i, sense in enumerate(senses)
    )
