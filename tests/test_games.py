"""Zero-sum equilibria and the designer's recommendation LP."""

from fractions import Fraction as F

import numpy as np
import pytest
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
from privsig import FiniteStructure, is_private_private
from privsig.catalog import rock_paper_scissors_problem


class TestZeroSum:
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
