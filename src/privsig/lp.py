"""Exact linear programming over rationals.

A dense two-phase simplex with Bland's anti-cycling rule, run entirely in
:class:`fractions.Fraction` arithmetic.  Intended for the small rational
programs in this package (designer problems, zero-sum games), where exact
optima such as 10/9 matter; grid-scale programs go through scipy's HiGHS
instead.

All variables are nonnegative.  Free variables must be encoded by the caller
as differences of two nonnegative ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for i, line in enumerate(tableau):
        if i != row and line[col] != 0:
            factor = line[col]
            prow = tableau[row]
            tableau[i] = [v - factor * pv for v, pv in zip(line, prow)]
    basis[row] = col


def _run_simplex(tableau, basis, n_cols):
    """Optimize the tableau in place; last row is the objective (maximize).

    Returns "optimal" or "unbounded".  Bland's rule: entering column is the
    lowest index with positive reduced cost, leaving row breaks ratio ties by
    lowest basis index.
    """
    obj = tableau[-1]
    while True:
        col = next((j for j in range(n_cols) if obj[j] > 0), None)
        if col is None:
            return "optimal"
        best = None
        for i in range(len(tableau) - 1):
            a = tableau[i][col]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            return "unbounded"
        _pivot(tableau, basis, best[1], col)
        obj = tableau[-1]


def solve_lp(objective, constraints, maximize=True) -> LpResult:
    """Solve max (or min) c.x subject to linear constraints and x >= 0.

    Parameters
    ----------
    objective : sequence of numbers
        Coefficients c, coerced to Fractions.
    constraints : sequence of (coeffs, sense, rhs)
        ``sense`` is one of ``"<="``, ``">="``, ``"="``.
    maximize : bool
        Minimization negates the objective.
    """
    n = len(objective)
    c = [Fraction(v) for v in objective]
    if not maximize:
        c = [-v for v in c]

    rows = []
    senses = []
    rhs = []
    for coeffs, sense, b in constraints:
        if len(coeffs) != n:
            raise ValidationError("constraint arity does not match objective")
        if sense not in (LEQ, GEQ, EQ):
            raise ValidationError(f"unknown constraint sense {sense!r}")
        row = [Fraction(v) for v in coeffs]
        b = Fraction(b)
        if b < 0:
            row = [-v for v in row]
            b = -b
            sense = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}[sense]
        rows.append(row)
        senses.append(sense)
        rhs.append(b)

    m = len(rows)
    n_slack = sum(1 for s in senses if s != EQ)
    n_art = sum(1 for s in senses if s != LEQ)
    n_cols = n + n_slack + n_art
    zero = Fraction(0)

    tableau = []
    basis = []
    slack_at = n
    art_at = n + n_slack
    art_cols = []
    for i in range(m):
        line = rows[i] + [zero] * (n_slack + n_art) + [rhs[i]]
        if senses[i] == LEQ:
            line[slack_at] = Fraction(1)
            basis.append(slack_at)
            slack_at += 1
        elif senses[i] == GEQ:
            line[slack_at] = Fraction(-1)
            slack_at += 1
            line[art_at] = Fraction(1)
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        else:
            line[art_at] = Fraction(1)
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        tableau.append(line)

    # Phase 1: drive the artificial variables to zero.
    if art_cols:
        obj = [zero] * (n_cols + 1)
        for col in art_cols:
            obj[col] = Fraction(-1)
        tableau.append(obj)
        for i, b_col in enumerate(basis):
            if b_col in art_cols:
                line = tableau[i]
                tableau[-1] = [v + lv for v, lv in zip(tableau[-1], line)]
        status = _run_simplex(tableau, basis, n_cols)
        # The objective row stores the negated value: > 0 means some
        # artificial variable is stuck at a positive level.
        if status != "optimal" or tableau[-1][-1] > 0:
            return LpResult("infeasible", (), None)
        tableau.pop()
        art_set = set(art_cols)
        drop = []
        for i in range(m):
            if basis[i] in art_set:
                col = next(
                    (j for j in range(n + n_slack) if tableau[i][j] != 0), None
                )
                if col is None:
                    drop.append(i)
                else:
                    _pivot(tableau, basis, i, col)
        for i in reversed(drop):
            tableau.pop(i)
            basis.pop(i)

    # Phase 2: original objective, artificial columns frozen out.
    n_real = n + n_slack
    for line in tableau:
        del line[n_real:n_cols]
    obj = [zero] * (n_real + 1)
    for j in range(n):
        obj[j] = c[j]
    tableau.append(obj)
    for i, b_col in enumerate(basis):
        factor = tableau[-1][b_col]
        if factor != 0:
            line = tableau[i]
            tableau[-1] = [v - factor * lv for v, lv in zip(tableau[-1], line)]
    status = _run_simplex(tableau, basis, n_real)
    if status == "unbounded":
        return LpResult("unbounded", (), None)

    x = [zero] * n
    for i, b_col in enumerate(basis):
        if b_col < n:
            x[b_col] = tableau[i][-1]
    value = -tableau[-1][-1]
    if not maximize:
        value = -value
    return LpResult("optimal", tuple(x), value)
