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
    status: str            # "optimal" | "infeasible" | "unbounded"
    x: tuple               # optimal point (empty unless optimal)
    value: Fraction | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _integer_row(values, field):
    """Exact ``values`` as ``(numerators, D)`` over their least common denominator."""
    try:
        fracs = [as_fraction(v) for v in values]
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


def _run_simplex(tableau, dens, basis, n_cols):
    """Optimize the tableau in place; last row is the objective (maximize).

    Returns "optimal" or "unbounded".  Bland's rule: entering column is the
    lowest index with positive reduced cost, leaving row breaks ratio ties by
    lowest basis index.  Denominators are positive, so signs are read off
    the numerators, and the ratios ``b_i / a_i`` of two rows compare as
    ``b_i * a_k`` against ``b_k * a_i`` because each row's denominator
    cancels from its own ratio.
    """
    while True:
        obj = tableau[-1]
        col = next((j for j in range(n_cols) if obj[j] > 0), None)
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
    or ``'constraints'``.
    """
    n = len(objective)
    c, c_den = _integer_row(objective, "objective")
    if not maximize:
        c = [-v for v in c]

    rows = []
    senses = []
    for coeffs, sense, b in constraints:
        if len(coeffs) != n:
            raise ValidationError("constraint arity does not match objective")
        if sense not in (LEQ, GEQ, EQ):
            raise ValidationError(f"unknown constraint sense {sense!r}")
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
        status = _run_simplex(tableau, dens, basis, n_cols)
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

    # Phase 2: original objective, artificial columns frozen out.
    n_real = n + n_slack
    for line in tableau:
        del line[n_real:n_cols]
    obj, obj_den = c + [0] * (n_slack + 1), c_den
    for i, b_col in enumerate(basis):
        if obj[b_col]:
            obj, obj_den = _eliminate(obj, obj_den, b_col, tableau[i], dens[i])
    tableau.append(obj)
    dens.append(obj_den)
    status = _run_simplex(tableau, dens, basis, n_real)
    if status == "unbounded":
        return LpResult("unbounded", (), None)

    x = [Fraction(0)] * n
    for i, b_col in enumerate(basis):
        if b_col < n:
            x[b_col] = Fraction(tableau[i][-1], dens[i])
    value = Fraction(-tableau[-1][-1], dens[-1])
    if not maximize:
        value = -value
    return LpResult("optimal", tuple(x), value)
