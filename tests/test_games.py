"""Zero-sum equilibria and the designer's recommendation LP."""

from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from privsig import (
    DesignerProblem,
    ValidationError,
    check_superadditivity,
    designer_optimum,
    independent_baseline,
    relaxed_optimum,
    solve_zero_sum,
)
from privsig import FiniteStructure, games, is_private_private, lp
from privsig.catalog import rock_paper_scissors_problem
from privsig.lp import EQ, GEQ, LpResult, solve_lp


def lexicographic_oracle(objective, constraints, solve=solve_lp):
    """Lexicographic maximum by fresh LPs: pin max c.x, then maximize each
    coordinate in turn and pin it too.

    One solve per coordinate, each from scratch: an independent oracle for
    ``solve_lp_lexmax``, which pivots on one tableau throughout.
    """
    first = solve(objective, constraints)
    if not first.optimal:
        return first
    cons = [*constraints, (objective, EQ, first.value)]
    x = []
    for t in range(len(objective)):
        probe = [0] * len(objective)
        probe[t] = 1
        step = solve(probe, cons)
        if not step.optimal:
            return step
        x.append(step.value)
        cons.append((probe, EQ, step.value))
    return LpResult("optimal", tuple(x), first.value, first.duals)


def maximin_oracle(u):
    """Equilibrium by two maximin LPs, one per player, each with a split
    value variable ``v+ - v-``: an independent oracle for the one packing LP
    of ``solve_zero_sum``."""
    table = [[F(v) for v in row] for row in u]
    n1, n2 = len(table), len(table[0])

    def maximin(gains, n_own, n_other):
        cons = [([gains(i, j) for i in range(n_own)] + [-1, 1], GEQ, 0) for j in range(n_other)]
        cons.append(([1] * n_own + [0, 0], EQ, 1))
        res = solve_lp([0] * n_own + [1, -1], cons)
        assert res.optimal
        return res.x[:n_own], res.value

    s1, v1 = maximin(lambda i, j: table[i][j], n1, n2)
    s2, v2 = maximin(lambda i, j: -table[j][i], n2, n1)
    assert v1 == -v2
    return s1, s2, v1


def assert_certified(u, s1, s2, value):
    """Fraction distributions with min_j (s1 u)_j == value == max_i (u s2)_i."""
    table = [[F(v) for v in row] for row in u]
    for s, n in ((s1, len(table)), (s2, len(table[0]))):
        assert len(s) == n and all(type(v) is F and v >= 0 for v in s) and sum(s) == 1
    assert type(value) is F
    assert min(sum(p * row[j] for p, row in zip(s1, table)) for j in range(len(s2))) == value
    assert max(sum(a * q for a, q in zip(row, s2)) for row in table) == value


class TestZeroSum:
    @pytest.mark.parametrize("u", [[[]], [], [1, 2], [[1, 2], [3]], 5])
    def test_non_table_names_the_field(self, u):
        with pytest.raises(ValidationError, match="'u'"):
            solve_zero_sum(u)

    def test_rock_paper_scissors(self):
        s1, s2, value = solve_zero_sum([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
        assert s1 == (F(1, 3),) * 3
        assert s2 == (F(1, 3),) * 3
        assert value == 0

    def test_matching_pennies(self):
        s1, s2, value = solve_zero_sum([[1, -1], [-1, 1]])
        assert s1 == (F(1, 2), F(1, 2))
        assert s2 == (F(1, 2), F(1, 2))
        assert value == 0

    def test_dominant_strategy(self):
        s1, _, value = solve_zero_sum([[1, 1], [0, 0]])
        assert s1 == (F(1), F(0))
        assert value == 1

    def test_value_against_numeric_solver(self, rng):
        for _ in range(15):
            table = rng.integers(-4, 5, size=(3, 3))
            _, _, value = solve_zero_sum(table.tolist())
            # Row player's maximin via HiGHS on the same LP.
            n = 3
            c = np.zeros(n + 1)
            c[n] = -1.0
            a_ub = np.hstack([-table.T.astype(float), np.ones((n, 1))])
            res = linprog(
                c=c, A_ub=a_ub, b_ub=np.zeros(n),
                A_eq=[[1.0] * n + [0.0]], b_eq=[1.0],
                bounds=[(0, None)] * n + [(None, None)],
                method="highs",
            )
            assert abs(float(value) - res.x[n]) < 1e-7

    def test_one_lp_solve_and_no_phase_1(self):
        with mock.patch.object(lp, "_solve", wraps=lp._solve) as solve, \
                mock.patch.object(lp, "_run_simplex", wraps=lp._run_simplex) as simplex:
            s1, s2, value = solve_zero_sum([[3, -1, 2], [-2, 4, 0], [1, 1, -3]])
        assert solve.call_count == 1
        # Phase 2 only: the packing LP starts from the slack basis.
        assert simplex.call_count == 1
        assert_certified([[3, -1, 2], [-2, 4, 0], [1, 1, -3]], s1, s2, value)

    def test_wrong_duals_fail_the_certificate(self):
        # Rock-paper-scissors' row player must mix evenly; a skewed dual
        # vector of the right total is caught by the certificate.
        def skewed(objective, constraints):
            res = solve_lp(objective, constraints)
            duals = (res.duals[0] + res.duals[1], F(0), res.duals[2])
            return LpResult(res.status, res.x, res.value, duals)

        with mock.patch.object(games, "solve_lp", skewed), \
                pytest.raises(ArithmeticError, match="certificate"):
            solve_zero_sum([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])

    def test_dyadic_floats_and_fractions_stay_exact(self):
        # No saddle point: with u = [[a, b], [c, d]] and s = a - b - c + d,
        # p_1 = (d - c) / s, q_1 = (d - b) / s and value = (ad - bc) / s.
        u = [[0.5, -0.25], [F(-1, 3), 1]]
        got = solve_zero_sum(u)
        assert got == ((F(16, 25), F(9, 25)), (F(3, 5), F(2, 5)), F(1, 5))
        assert_certified(u, *got)


#: Payoffs of the three input kinds: ints, Fractions and dyadic floats.
payoffs = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(lambda k: k / 8, st.integers(-72, 72)),
)


@st.composite
def zero_sum_games(draw):
    """Rectangular n1 x n2 games, 1 <= n1, n2 <= 8: random, constant, or
    with a row or column dominated by a copy of another."""
    n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "constant", "dominated"]))
    if kind == "constant":
        v = draw(payoffs)
        return [[v] * n2 for _ in range(n1)]
    u = draw(st.lists(st.lists(payoffs, min_size=n2, max_size=n2), min_size=n1, max_size=n1))
    if kind == "dominated":
        # A row below another row, and a column above another column.
        i, k = draw(st.integers(0, n1 - 1)), draw(st.integers(0, n1 - 1))
        u[k] = [F(v) - draw(st.integers(0, 3)) for v in u[i]]
        j, l = draw(st.integers(0, n2 - 1)), draw(st.integers(0, n2 - 1))
        for row in u:
            row[l] = F(row[j]) + draw(st.integers(0, 3))
    return u


@settings(max_examples=200, deadline=None)
@given(zero_sum_games())
def test_zero_sum_matches_the_two_maximin_lps(u):
    s1, s2, value = solve_zero_sum(u)
    assert value == maximin_oracle(u)[2]
    assert_certified(u, s1, s2, value)


class TestDesigner:
    def test_rps_values(self):
        problem = rock_paper_scissors_problem()
        assert independent_baseline(problem) == F(2, 3)
        assert relaxed_optimum(problem) == 2
        kernel, payoff = designer_optimum(problem)
        # The LP optimum of the catalog instance; the reduction and its dual
        # certificate are in notes/decisions.md.
        assert payoff == F(10, 9)
        # Every optimal kernel averages back to the equilibrium product.
        eq = problem.equilibrium_product()
        for a1 in range(3):
            for a2 in range(3):
                avg = sum(
                    problem.prior[k] * kernel[k][a1][a2] for k in range(2)
                )
                assert avg == eq[a1][a2]
        assert payoff <= relaxed_optimum(problem)
        assert payoff >= independent_baseline(problem)

    def test_rps_against_numeric_solver(self):
        # Independent float check of the same LP optimum.
        problem = rock_paper_scissors_problem()
        n = 18
        c = np.zeros(n)
        for k in range(2):
            for a1 in range(3):
                for a2 in range(3):
                    c[k * 9 + a1 * 3 + a2] = (
                        -0.5 * float(problem.designer_payoffs[k][a1][a2])
                    )
        a_eq, b_eq = [], []
        for k in range(2):
            row = np.zeros(n)
            row[k * 9:(k + 1) * 9] = 1.0
            a_eq.append(row)
            b_eq.append(1.0)
        for a in range(9):
            row = np.zeros(n)
            row[a] = 0.5
            row[9 + a] = 0.5
            a_eq.append(row)
            b_eq.append(1 / 9)
        res = linprog(c=c, A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                      bounds=(0, None), method="highs")
        _, payoff = designer_optimum(problem)
        assert abs(-res.fun - float(payoff)) < 1e-9

    def test_state_independent_payoffs_pin_value(self):
        table = [[1, 0, 2], [0, 1, 0], [2, 0, 1]]
        problem = DesignerProblem(
            game=[[0, -1, 1], [1, 0, -1], [-1, 1, 0]],
            designer_payoffs=(table, table),
            prior=(F(1, 2), F(1, 2)),
        )
        _, payoff = designer_optimum(problem)
        assert payoff == independent_baseline(problem)

    def test_single_state_kernel_is_equilibrium(self):
        table = [[1, 0], [0, 1]]
        problem = DesignerProblem(
            game=[[1, -1], [-1, 1]],
            designer_payoffs=(table,),
            prior=(F(1),),
        )
        kernel, payoff = designer_optimum(problem)
        assert kernel[0] == problem.equilibrium_product()
        assert payoff == independent_baseline(problem)

    def test_zero_equilibrium_cell_gives_zero_baseline(self):
        # Rewarding only an action pair the equilibrium never plays.
        table = [[0, 0], [0, 5]]
        problem = DesignerProblem(
            game=[[1, 1], [0, 0]],  # dominant: both pure strategies
            designer_payoffs=(table, table),
            prior=(F(1, 2), F(1, 2)),
        )
        assert independent_baseline(problem) == 0

    def test_deterministic_lexicographic_kernel(self):
        problem = rock_paper_scissors_problem()
        k1, _ = designer_optimum(problem)
        k2, _ = designer_optimum(problem)
        assert k1 == k2
        # The lexicographically maximal optimal kernel, every cell an exact
        # Fraction, including those forced by the row and column sums.
        z, one, two = F(0), F(1, 9), F(2, 9)
        assert k1 == (
            ((two, two, two), (two, one, z), (z, z, z)),
            ((z, z, z), (z, one, two), (two, two, two)),
        )
        assert all(type(v) is F for state in k1 for row in state for v in row)

    def test_recommendations_are_private_private(self):
        problem = rock_paper_scissors_problem()
        kernel, _ = designer_optimum(problem)
        entries = []
        for k in range(2):
            for a1 in range(3):
                for a2 in range(3):
                    p = problem.prior[k] * kernel[k][a1][a2]
                    if p:
                        entries.append((k, (a1, a2), p))
        s = FiniteStructure.from_entries(2, (3, 3), entries, exact=True)
        assert is_private_private(s, 1e-12)
        report = check_superadditivity(s)
        assert report.slack >= -1e-9

    def test_supplied_equilibrium_used(self):
        problem = DesignerProblem(
            game=[[1, -1], [-1, 1]],
            designer_payoffs=([[1, 0], [0, 0]], [[0, 0], [0, 1]]),
            prior=(F(1, 2), F(1, 2)),
            equilibrium=((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
        )
        kernel, payoff = designer_optimum(problem)
        assert payoff == F(1, 2)

    def test_prior_round_off_is_renormalized_exactly(self):
        problem = rock_paper_scissors_problem()
        p = DesignerProblem(
            game=problem.game,
            designer_payoffs=problem.designer_payoffs,
            prior=(0.5, 0.5 + 5e-10),
        )
        assert sum(p.prior) == 1
        assert all(isinstance(v, F) for v in p.prior)

    @pytest.mark.parametrize("prior", [
        (F(3, 2), F(-1, 2)),
        (0.5, 0.49),
        (),
        (float("inf"), 0),
        ("a", "b"),
        1,
    ])
    def test_bad_prior_names_the_field(self, prior):
        problem = rock_paper_scissors_problem()
        with pytest.raises(ValidationError, match="'prior'"):
            DesignerProblem(
                game=problem.game,
                designer_payoffs=problem.designer_payoffs,
                prior=prior,
            )

    def test_validation(self):
        with pytest.raises(ValidationError):
            DesignerProblem(
                game=[[0, 1], [1, 0]],
                designer_payoffs=([[1, 0], [0, 1]],),
                prior=(F(1, 2), F(1, 2)),
            )

    @pytest.mark.parametrize("game, payoffs, field", [
        ([[]], [[[]]], "game"),
        ([], [[]], "game"),
        ([[1, -1], [-1, 1]], [[[]]], "designer_payoffs"),
        ([[1, -1], [-1, 1]], [5], "designer_payoffs"),
        ([[1, -1], [-1, 1]], [[1, 0]], "designer_payoffs"),
        ([[1, -1], [-1, "a"]], [[[1, 0], [0, 1]]], "game"),
        ([[True, -1], [-1, 1]], [[[1, 0], [0, 1]]], "game"),
    ])
    def test_bad_tables_name_the_field(self, game, payoffs, field):
        with pytest.raises(ValidationError, match=f"'{field}'"):
            DesignerProblem(game, payoffs, [1])


@st.composite
def designer_problems(draw):
    """Games with 2-4 actions a side and 1-3 states, zero-prior states included."""
    n1, n2, states = draw(st.integers(2, 4)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    cells = st.integers(-4, 4)
    game = draw(st.lists(st.lists(cells, min_size=n2, max_size=n2), min_size=n1, max_size=n1))
    table = st.lists(st.lists(st.integers(0, 4), min_size=n2, max_size=n2),
                     min_size=n1, max_size=n1)
    payoffs = draw(st.lists(table, min_size=states, max_size=states))
    weights = draw(st.lists(st.integers(0, 4), min_size=states, max_size=states)
                   .filter(any))
    return DesignerProblem(game, payoffs, [F(w, sum(weights)) for w in weights])


@settings(max_examples=60, deadline=None)
@given(designer_problems())
def test_designer_optimum_matches_the_per_coordinate_loop(problem):
    got = designer_optimum(problem)
    with mock.patch.object(games, "solve_lp_lexmax", lexicographic_oracle):
        want = designer_optimum(problem)
    assert got == want
    assert type(got[1]) is type(want[1]) is F
    assert all(type(v) is F for state in got[0] for row in state for v in row)
