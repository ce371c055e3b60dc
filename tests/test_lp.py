"""Exact simplex solver: unit cases, random cross-checks against HiGHS, the
integer-row tableau against the Fraction-tableau simplex it replaced, the
duals against LP duality, and the lexicographic solve against one fresh LP
per coordinate."""

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
from privsig.lp import EQ, GEQ, LEQ, LpResult, solve_lp, solve_lp_lexmax
from test_games import lexicographic_oracle


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
    """Two-phase Bland simplex with every tableau entry a Fraction; the duals
    of an all-inequality program are read off its final objective row."""
    n = len(objective)
    c = [F(v) for v in objective]
    if not maximize:
        c = [-v for v in c]
    rows, senses, rhs = [], [], []
    given = [sense for _, sense, _ in constraints]
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
    duals = None
    if EQ not in given:
        # Slack i is +1 in a "<=" row and -1 in a ">=" row as given, and
        # its reduced cost is minus the row's multiplier times that entry.
        sign = 1 if maximize else -1
        duals = tuple(sign * (-tableau[-1][n + i] if sense == LEQ else tableau[-1][n + i])
                      for i, sense in enumerate(given))
    return LpResult("optimal", tuple(x), value if maximize else -value, duals)


def assert_same_result(got, want):
    """Equal status, point, value and duals, each with the oracle's types."""
    assert got.status == want.status
    assert got.x == want.x and got.value == want.value and got.duals == want.duals
    assert [type(v) for v in got.x] == [type(v) for v in want.x]
    assert [type(v) for v in got.duals or ()] == [type(v) for v in want.duals or ()]
    assert type(got.value) is type(want.value)
    for v in (*got.x, *(got.duals or ()), *([got.value] if got.value is not None else [])):
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


def test_booleans_are_not_coefficients():
    with pytest.raises(ValidationError, match="'objective'"):
        solve_lp([True, 1], [([1, 1], LEQ, 1)])
    with pytest.raises(ValidationError, match="'constraints'"):
        solve_lp([1, 1], [([1, True], LEQ, 1)])
    with pytest.raises(ValidationError, match="'constraints'"):
        solve_lp([1, 1], [([1, 1], LEQ, False)])


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


def assert_dual_optimal(res, objective, cons, maximize):
    """``res.duals`` is dual-feasible, with the documented signs, and
    ``b.y == c.x == value`` exactly."""
    y = res.duals
    assert len(y) == len(cons) and all(type(v) is F for v in y)
    flip = 1 if maximize else -1
    for v, (_, sense, _) in zip(y, cons):
        assert flip * v >= 0 if sense == LEQ else flip * v <= 0
    for j, c in enumerate(objective):
        assert flip * (sum(v * F(row[j]) for v, (row, _, _) in zip(y, cons)) - F(c)) >= 0
    assert sum(v * F(b) for v, (_, _, b) in zip(y, cons)) == res.value
    assert sum(F(c) * v for c, v in zip(objective, res.x)) == res.value


@settings(max_examples=300, deadline=None)
@given(linear_programs())
def test_duals_only_without_equality_rows(lp):
    objective, cons, maximize = lp
    res = solve_lp(objective, cons, maximize)
    if not res.optimal or any(sense == EQ for _, sense, _ in cons):
        assert res.duals is None
    else:
        assert_dual_optimal(res, objective, cons, maximize)


#: The same programs with every "=" row turned into an inequality.
inequality_programs = st.builds(
    lambda lp, flip: (lp[0], [(c, (GEQ if flip else LEQ) if s == EQ else s, b)
                              for c, s, b in lp[1]], lp[2]),
    linear_programs(), st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(inequality_programs)
def test_duals_are_dual_optimal(lp):
    objective, cons, maximize = lp
    res = solve_lp(objective, cons, maximize)
    if res.optimal:
        assert_dual_optimal(res, objective, cons, maximize)
    else:
        assert res.duals is None


def test_duals_of_the_basic_program():
    # max x0 + x1 s.t. x0 + 2 x1 <= 4, 3 x0 + x1 <= 6: both rows bind, and
    # (1, 1) = y (1, 2) + y' (3, 1) gives y = 2/5, y' = 1/5.
    res = solve_lp([1, 1], [([1, 2], LEQ, 4), ([3, 1], LEQ, 6)])
    assert res.duals == (F(2, 5), F(1, 5))
    # min x0 + x1 s.t. x0 + x1 >= 3: raising the bound raises the minimum.
    assert solve_lp([1, 1], [([1, 1], GEQ, 3)], maximize=False).duals == (1,)
    # A row negated for its right-hand side keeps the sign of its own sense.
    assert solve_lp([1, 1], [([-1, -1], GEQ, -1)]).duals == (-1,)


def test_lexmax_duals_are_those_of_the_objective():
    cons = [([1, 1], LEQ, 1), ([1, 0], LEQ, 1)]
    assert solve_lp_lexmax([1, 1], cons).duals == solve_lp([1, 1], cons).duals


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
        with mock.patch.object(games, "solve_lp", oracle_solve_lp), mock.patch.object(
            games, "solve_lp_lexmax",
            lambda c, cons: lexicographic_oracle(c, cons, oracle_solve_lp),
        ):
            want = designer_optimum(problem)
        assert got == want
        assert [type(v) for t in got[0] for r in t for v in r] == [
            type(v) for t in want[0] for r in t for v in r
        ]


# ---------------------------------------------------------------------------
# Lexicographic maximum on the optimal face
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(linear_programs())
def test_lexmax_matches_one_lp_per_coordinate(lp):
    objective, cons, _ = lp
    got = solve_lp_lexmax(objective, cons)
    assert_same_result(got, lexicographic_oracle(objective, cons))
    if got.optimal:
        # The tie-breaks keep the objective at its optimum.
        assert sum(F(c) * v for c, v in zip(objective, got.x)) == got.value


def transport(costs, supplies, demands):
    """Maximize the cost-weighted shipment x[i][j], flattened row by row."""
    n = len(demands)
    cons = []
    for i, s in enumerate(supplies):
        cons.append(([int(k // n == i) for k in range(len(costs))], EQ, s))
    for j, d in enumerate(demands):
        cons.append(([int(k % n == j) for k in range(len(costs))], EQ, d))
    return costs, cons


def test_lexmax_on_a_fully_tied_transportation_problem():
    # Equal costs: every feasible shipment is optimal, so the tie-breaks
    # alone pick the point: greedy from the first cell on.
    costs, cons = transport([1] * 6, [1, 2], [1, 1, 1])
    res = solve_lp_lexmax(costs, cons)
    assert res.optimal and res.value == solve_lp(costs, cons).value == 3
    assert res.x == (1, 0, 0, 0, 1, 1)
    assert all(type(v) is F for v in res.x)


def test_lexmax_keeps_the_objective_on_a_partly_tied_face():
    # The cheap cell (0, 0) is zero at every optimum, and the tie-breaks
    # must not move it up although it comes first.
    costs, cons = transport([0, 2, 2, 2, 2, 2], [1, 1], [1, 1, 0])
    res = solve_lp_lexmax(costs, cons)
    assert res.optimal and res.value == solve_lp(costs, cons).value == 4
    assert sum(c * v for c, v in zip(costs, res.x)) == res.value
    assert res.x == (0, 1, 0, 1, 0, 0)


def test_lexmax_unbounded_tie_break():
    # max -x0 subject to x0 <= x1 has value 0 at x0 = 0, but x1 is
    # unbounded on that face: there is no lexicographic maximum.
    cons = [([1, -1], LEQ, 0)]
    assert solve_lp([-1, 0], cons).value == 0
    assert solve_lp_lexmax([-1, 0], cons) == LpResult("unbounded", (), None)


def test_lexmax_infeasible_and_unbounded_objective():
    assert solve_lp_lexmax([1], [([1], GEQ, 2), ([1], LEQ, 1)]).status == "infeasible"
    assert solve_lp_lexmax([1], [([-1], LEQ, 1)]).status == "unbounded"
