"""Exact simplex solver: unit cases, random cross-checks against HiGHS, and
the integer-row tableau against the Fraction-tableau simplex it replaced."""

import random
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from privsig import DesignerProblem, designer_optimum, games
from privsig.catalog import rock_paper_scissors_problem
from privsig.errors import ValidationError
from privsig.lp import EQ, GEQ, LEQ, LpResult, solve_lp


# ---------------------------------------------------------------------------
# Oracle: a dense tableau of Fractions
# ---------------------------------------------------------------------------

def _oracle_pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for i, line in enumerate(tableau):
        if i != row and line[col] != 0:
            factor = line[col]
            prow = tableau[row]
            tableau[i] = [v - factor * pv for v, pv in zip(line, prow)]
    basis[row] = col


def _oracle_run_simplex(tableau, basis, n_cols):
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
        _oracle_pivot(tableau, basis, best[1], col)
        obj = tableau[-1]


def oracle_solve_lp(objective, constraints, maximize=True):
    """Two-phase Bland simplex with every tableau entry a Fraction."""
    n = len(objective)
    c = [F(v) for v in objective]
    if not maximize:
        c = [-v for v in c]
    rows, senses, rhs = [], [], []
    for coeffs, sense, b in constraints:
        row = [F(v) for v in coeffs]
        b = F(b)
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
    zero = F(0)
    tableau, basis, art_cols = [], [], []
    slack_at, art_at = n, n + n_slack
    for i in range(m):
        line = rows[i] + [zero] * (n_slack + n_art) + [rhs[i]]
        if senses[i] == LEQ:
            line[slack_at] = F(1)
            basis.append(slack_at)
            slack_at += 1
        else:
            if senses[i] == GEQ:
                line[slack_at] = F(-1)
                slack_at += 1
            line[art_at] = F(1)
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        tableau.append(line)
    if art_cols:
        obj = [zero] * (n_cols + 1)
        for col in art_cols:
            obj[col] = F(-1)
        tableau.append(obj)
        for i, b_col in enumerate(basis):
            if b_col in art_cols:
                tableau[-1] = [v + lv for v, lv in zip(tableau[-1], tableau[i])]
        status = _oracle_run_simplex(tableau, basis, n_cols)
        if status != "optimal" or tableau[-1][-1] > 0:
            return LpResult("infeasible", (), None)
        tableau.pop()
        drop = []
        for i in range(m):
            if basis[i] in art_cols:
                col = next((j for j in range(n + n_slack) if tableau[i][j] != 0), None)
                if col is None:
                    drop.append(i)
                else:
                    _oracle_pivot(tableau, basis, i, col)
        for i in reversed(drop):
            tableau.pop(i)
            basis.pop(i)
    n_real = n + n_slack
    for line in tableau:
        del line[n_real:n_cols]
    obj = c + [zero] * (n_slack + 1)
    tableau.append(obj)
    for i, b_col in enumerate(basis):
        factor = tableau[-1][b_col]
        if factor != 0:
            tableau[-1] = [v - factor * lv for v, lv in zip(tableau[-1], tableau[i])]
    if _oracle_run_simplex(tableau, basis, n_real) == "unbounded":
        return LpResult("unbounded", (), None)
    x = [zero] * n
    for i, b_col in enumerate(basis):
        if b_col < n:
            x[b_col] = tableau[i][-1]
    value = -tableau[-1][-1]
    return LpResult("optimal", tuple(x), value if maximize else -value)


def assert_same_result(got, want):
    """Equal status, point and value, each with the oracle's types."""
    assert got.status == want.status
    assert got.x == want.x and got.value == want.value
    assert [type(v) for v in got.x] == [type(v) for v in want.x]
    assert type(got.value) is type(want.value)
    for v in (*got.x, *([got.value] if got.value is not None else [])):
        assert type(v.numerator) is int and type(v.denominator) is int


# ---------------------------------------------------------------------------
# Unit cases
# ---------------------------------------------------------------------------


def test_basic_maximization():
    res = solve_lp([1, 1], [([1, 2], LEQ, 4), ([3, 1], LEQ, 6)])
    assert res.optimal
    assert res.x == (F(8, 5), F(6, 5))
    assert res.value == F(14, 5)


def test_minimization():
    res = solve_lp([1, 1], [([1, 1], GEQ, 3)], maximize=False)
    assert res.optimal and res.value == 3


def test_infeasible():
    res = solve_lp([1], [([1], GEQ, 2), ([1], LEQ, 1)])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp([1], [([-1], LEQ, 1)])
    assert res.status == "unbounded"


def test_redundant_equalities():
    res = solve_lp([1, 0], [([1, 1], EQ, 1), ([2, 2], EQ, 2)])
    assert res.optimal and res.value == 1


def test_negative_rhs_normalization():
    res = solve_lp([1, 1], [([-1, -1], GEQ, -1)])
    assert res.optimal and res.value == 1


def test_degenerate_cycling_guard():
    # A classic cycling-prone instance; Bland's rule must terminate.
    res = solve_lp(
        [F(3, 4), -150, F(1, 50), -6],
        [
            ([F(1, 4), -60, -F(1, 25), 9], LEQ, 0),
            ([F(1, 2), -90, -F(1, 50), 3], LEQ, 0),
            ([0, 0, 1, 0], LEQ, 1),
        ],
    )
    assert res.optimal and res.value == F(1, 20)


def test_arity_check():
    with pytest.raises(ValidationError):
        solve_lp([1], [([1, 2], LEQ, 1)])


def test_random_agreement_with_highs(rng):
    for trial in range(40):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        c = rng.integers(-5, 6, size=n)
        rows = rng.integers(-4, 5, size=(m, n))
        rhs = rng.integers(0, 8, size=m)
        senses = rng.choice([LEQ, GEQ, EQ], size=m)
        cons = [
            (rows[i].tolist(), str(senses[i]), int(rhs[i])) for i in range(m)
        ]
        exact = solve_lp(c.tolist(), cons)
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for coeffs, sense, b in cons:
            if sense == LEQ:
                a_ub.append(coeffs)
                b_ub.append(b)
            elif sense == GEQ:
                a_ub.append([-v for v in coeffs])
                b_ub.append(-b)
            else:
                a_eq.append(coeffs)
                b_eq.append(b)
        ref = linprog(
            c=-c.astype(float),
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub, dtype=float) if a_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq, dtype=float) if a_eq else None,
            bounds=(0, None),
            method="highs",
        )
        if exact.status == "optimal":
            assert ref.status == 0, f"trial {trial}: HiGHS disagrees on feasibility"
            assert abs(float(exact.value) - (-ref.fun)) < 1e-7
        elif exact.status == "infeasible":
            assert ref.status == 2
        else:
            assert ref.status == 3


def test_numpy_integer_coefficients_stay_python_ints():
    c = np.array([3, 2], dtype=np.int64)
    rows = np.array([[1, 1], [1, 3]], dtype=np.int64)
    res = solve_lp(c, [(rows[0], LEQ, np.int64(4)), (rows[1], LEQ, np.int64(6))])
    assert_same_result(res, oracle_solve_lp([3, 2], [([1, 1], LEQ, 4), ([1, 3], LEQ, 6)]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), None])
def test_non_finite_objective_names_the_objective(bad):
    with pytest.raises(ValidationError, match="'objective'"):
        solve_lp([1, bad], [([1, 1], LEQ, 1)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), None])
def test_non_finite_coefficient_names_the_constraints(bad):
    with pytest.raises(ValidationError, match="'constraints'"):
        solve_lp([1, 1], [([1, 1], LEQ, 1), ([bad, 1], GEQ, 0)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), None])
def test_non_finite_rhs_names_the_constraints(bad):
    with pytest.raises(ValidationError, match="'constraints'"):
        solve_lp([1, 1], [([1, 1], EQ, bad)])


# ---------------------------------------------------------------------------
# Integer rows against the Fraction tableau
# ---------------------------------------------------------------------------

#: Fractions whose denominators exceed 2**64.
huge_fractions = st.builds(
    F, st.integers(-6 * 2**66, 6 * 2**66), st.integers(2**64 + 1, 2**66)
)
coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.builds(lambda k: k / 4, st.integers(-24, 24)),
    st.floats(-6, 6, allow_nan=False, allow_infinity=False),
    huge_fractions,
)
#: Zero right-hand sides make vertices degenerate and ratios tie.
often_zero = st.one_of(st.just(0), coefficients)
senses = st.sampled_from([LEQ, GEQ, EQ])


@st.composite
def linear_programs(draw):
    """Random LPs, negative and zero right-hand sides included, with
    redundant equalities: scaled copies and sums of earlier rows."""
    n = draw(st.integers(1, 5))
    cons = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = draw(st.lists(coefficients, min_size=n, max_size=n))
        cons.append((coeffs, draw(senses), draw(often_zero)))
    for _ in range(draw(st.integers(0, 2))):
        first = draw(st.sampled_from(cons))
        second = draw(st.sampled_from(cons))
        scale = draw(st.sampled_from([F(1), F(-1), F(2), F(-3, 7)]))
        coeffs = [scale * F(a) + F(b) for a, b in zip(first[0], second[0])]
        cons.append((coeffs, EQ, scale * F(first[2]) + F(second[2])))
    # Zero costs leave ties among optimal vertices.
    objective = draw(st.lists(often_zero, min_size=n, max_size=n))
    return objective, cons, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(linear_programs())
# Ratio ties at zero on which the leaving row decides the optimal vertex.
@example(([1, 0], [([1, -2], GEQ, 0), ([2, 2], GEQ, 0), ([1, 0], LEQ, 1)], True))
@example(([1, -1, 0, 2], [([1, 0, 0, 2], EQ, 1), ([1, -2, -2, 2], LEQ, 1),
                          ([0, 1, -1, -1], EQ, 0), ([0, 0, -2, -2], EQ, -1)], True))
def test_integer_rows_match_the_fraction_tableau(lp):
    objective, cons, maximize = lp
    assert_same_result(
        solve_lp(objective, cons, maximize),
        oracle_solve_lp(objective, cons, maximize),
    )


def random_designer_problem(rng, n1, n2, states):
    game = [[rng.randint(-4, 4) for _ in range(n2)] for _ in range(n1)]
    payoffs = [[[rng.randint(0, 4) for _ in range(n2)] for _ in range(n1)]
               for _ in range(states)]
    weights = [rng.randint(0, 4) for _ in range(states)]
    weights[rng.randrange(states)] += 1
    prior = [F(w, sum(weights)) for w in weights]
    return DesignerProblem(game, payoffs, prior)


#: Every size up to 4x4 actions and 3 states but the largest, on which the
#: oracle alone takes 4-7 s per problem; notes/bench_exact_lp.py compares
#: the answers there.
DESIGNER_SIZES = [(n1, n2, states) for n1 in (2, 3, 4) for n2 in (2, 3, 4)
                  for states in (1, 2, 3) if n1 * n2 * states < 48]


@pytest.mark.parametrize("seed", range(2))
def test_designer_optimum_matches_the_fraction_tableau(seed):
    # RPS plus 26 random problems per seed.
    problems = [rock_paper_scissors_problem()] + [
        random_designer_problem(random.Random(f"designer/{seed}/{size}"), *size)
        for size in DESIGNER_SIZES
    ]
    for problem in problems:
        got = designer_optimum(problem)
        with mock.patch.object(games, "solve_lp", oracle_solve_lp):
            want = designer_optimum(problem)
        assert got == want
        assert [type(v) for t in got[0] for r in t for v in r] == [
            type(v) for t in want[0] for r in t for v in r
        ]
