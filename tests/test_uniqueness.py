"""Uniqueness tests: conjugacy, tomography criteria, LP, and oracles."""

from fractions import Fraction as F

import numpy as np
import pytest

from privsig import (
    AtomicDist,
    GridPartition,
    GridSet,
    ResourceBudgetError,
    ValidationError,
    additive_set_test,
    brute_force_marginal_mates,
    conjugate,
    conjugate_partition,
    gale_ryser_unique,
    is_pareto_optimal_2x2,
    lorentz_uniqueness_2d,
    partition_uniqueness_grid,
    partition_uniqueness_witness,
    point_mass,
    switch_uniqueness_matrix,
    uniform_grid,
)
from privsig.catalog import (
    majority_grid,
    quarter_three_quarter_blocks,
    upper_triangle_grid,
)
from conftest import (
    modular_stripe_grid,
    random_atomic,
    staircase_grid,
    striped_three_state_partition,
)

QUARTERS = AtomicDist([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))])


def random_marginal_feasible_matrix(rng, max_side=4):
    n_rows = int(rng.integers(1, max_side + 1))
    n_cols = int(rng.integers(1, max_side + 1))
    density = rng.random()
    return (rng.random((n_rows, n_cols)) < density).astype(int)


class TestParetoOptimal:
    def test_uniform_grid_self_pair(self):
        g = uniform_grid(256)
        assert is_pareto_optimal_2x2(g, g, tol=1 / 256)

    def test_quarters_pair_not_optimal(self):
        assert not is_pareto_optimal_2x2(QUARTERS, QUARTERS)

    def test_point_mass_full_revelation_pair(self):
        full = AtomicDist([(0, F(1, 2)), (1, F(1, 2))])
        assert is_pareto_optimal_2x2(point_mass(F(1, 2)), full)

    def test_unequal_means_rejected(self):
        with pytest.raises(ValidationError):
            is_pareto_optimal_2x2(point_mass(F(1, 4)), point_mass(F(1, 2)))

    def test_exact_conjugate_pairs(self, rng):
        for _ in range(10):
            mu = random_atomic(rng, exact=True)
            assert is_pareto_optimal_2x2(mu, conjugate(mu), tol=0)


class TestConjugatePartition:
    def test_basic(self):
        assert conjugate_partition([3, 2, 1]) == [3, 2, 1]
        assert conjugate_partition([2, 0]) == [1, 1]
        assert conjugate_partition([]) == []

    def test_involution(self, rng):
        for _ in range(20):
            parts = sorted(rng.integers(0, 6, size=5).tolist(), reverse=True)
            twice = conjugate_partition(conjugate_partition(parts))
            assert twice == [p for p in parts if p > 0]


class TestSwitchAndBruteForce:
    def test_canonical_switch(self):
        assert not switch_uniqueness_matrix([[1, 0], [0, 1]])
        assert len(brute_force_marginal_mates([[1, 0], [0, 1]])) == 2

    def test_unique_row_pattern(self):
        assert switch_uniqueness_matrix([[1, 1], [0, 0]])
        assert len(brute_force_marginal_mates([[1, 1], [0, 0]])) == 1

    def test_staircase(self):
        stairs = [[1, 1, 1], [1, 1, 0], [1, 0, 0]]
        assert switch_uniqueness_matrix(stairs)
        assert len(brute_force_marginal_mates(stairs)) == 1

    def test_blocks_have_mates(self):
        mat = quarter_three_quarter_blocks().cells
        assert len(brute_force_marginal_mates(mat)) >= 2

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            brute_force_marginal_mates(np.zeros((6, 6), dtype=int))

    def test_three_oracles_agree(self, rng):
        for _ in range(200):
            mat = random_marginal_feasible_matrix(rng)
            sw = switch_uniqueness_matrix(mat)
            gr = gale_ryser_unique(mat.sum(axis=1), mat.sum(axis=0))
            bf = len(brute_force_marginal_mates(mat)) == 1
            assert sw == gr == bf, f"oracles disagree on {mat.tolist()}"

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (2, 5), (5, 3), (4, 4), (5, 5)])
    def test_switch_agrees_with_enumeration(self, rng, shape):
        # Permuted Ferrers diagrams (unique), one cell toggled (mostly not),
        # and uniform random matrices, checked against full enumeration.
        n_rows, n_cols = shape
        for trial in range(30):
            lengths = rng.integers(0, n_cols + 1, size=n_rows)
            mat = (np.arange(n_cols) < lengths[:, None]).astype(int)
            mat = mat[rng.permutation(n_rows)][:, rng.permutation(n_cols)]
            if trial % 3 == 1:
                mat[rng.integers(n_rows), rng.integers(n_cols)] ^= 1
            elif trial % 3 == 2:
                mat = rng.integers(0, 2, size=shape)
            bf = len(brute_force_marginal_mates(mat)) == 1
            assert switch_uniqueness_matrix(mat) == bf, mat.tolist()


class TestLorentz:
    def test_upper_triangle(self):
        assert lorentz_uniqueness_2d(upper_triangle_grid(8))

    def test_blocks(self):
        assert not lorentz_uniqueness_2d(
            GridSet(quarter_three_quarter_blocks().cells)
        )

    def test_full_grid(self):
        assert lorentz_uniqueness_2d(GridSet(np.ones((5, 5), dtype=bool)))

    def test_needs_two_dimensions(self):
        with pytest.raises(ValidationError):
            lorentz_uniqueness_2d(majority_grid(2))

    def test_conjugate_pair_staircases_unique(self, rng):
        # Frontier pairs realized as staircase grids are sets of uniqueness.
        for _ in range(10):
            mu = random_atomic(rng, max_atoms=5, exact=True)
            assert lorentz_uniqueness_2d(staircase_grid(mu, 64))

    def test_non_conjugate_pairs_not_unique(self):
        # A strict contraction of the conjugate realized by diagonal
        # stripes: margins come from a non-frontier pair, so the set cannot
        # be one of uniqueness.  Blocks of 8 cells, stripes of period 4.
        grid = modular_stripe_grid(
            [8, 8], [8, 8],
            [[0, 2], [2, 4]],  # conditional probabilities 0, 1/2, 1/2, 1
            4,
        )
        assert not lorentz_uniqueness_2d(grid)


class TestAdditive:
    def test_halfspace_default_epsilon(self):
        h = additive_set_test(upper_triangle_grid(8))
        assert h is not None
        self._check_witness(upper_triangle_grid(8), h, 1 / 32)

    def test_blocks_infeasible(self):
        g = GridSet(quarter_three_quarter_blocks().cells)
        assert additive_set_test(g, 1e-3) is None

    def test_majority_3d(self):
        g = majority_grid(2)
        h = additive_set_test(g, 0.1)
        assert h is not None
        self._check_witness(g, h, 0.1)

    def test_epsilon_validation(self):
        with pytest.raises(ValidationError):
            additive_set_test(upper_triangle_grid(4), 0.0)

    def test_additivity_implies_uniqueness(self, rng):
        for _ in range(40):
            r = int(rng.integers(2, 5))
            cells = rng.random((r, r)) < rng.random()
            g = GridSet(cells)
            if additive_set_test(g) is not None:
                assert len(brute_force_marginal_mates(cells.astype(int))) == 1

    def test_lorentz_iff_additive_2d(self, rng):
        for _ in range(40):
            r = int(rng.integers(2, 6))
            g = GridSet(rng.random((r, r)) < rng.random())
            sweep = [1 / (4 * r), 1 / (8 * r)]
            additive = any(
                additive_set_test(g, eps) is not None for eps in sweep
            )
            assert additive == lorentz_uniqueness_2d(g)

    @staticmethod
    def _check_witness(grid, h, epsilon):
        for idx in np.ndindex(*grid.cells.shape):
            total = sum(h[axis][j] for axis, j in enumerate(idx))
            if grid.cells[idx]:
                assert total >= -1e-7
            else:
                assert total <= -epsilon + 1e-7


class TestPartitionUniqueness:
    def test_triangle_binary_partition(self):
        cells = upper_triangle_grid(8).cells.astype(int)
        assert partition_uniqueness_grid(GridPartition(cells))

    def test_striped_partition_all_stripe_heights(self):
        for rows in (0, 2, 5):
            p = striped_three_state_partition(rows, 20)
            assert partition_uniqueness_grid(p)

    def test_standalone_middle_state_not_unique(self):
        p = striped_three_state_partition(5, 20)
        binary = GridPartition((p.cells == 1).astype(int))
        unique, witness = partition_uniqueness_witness(binary)
        assert not unique
        assert witness is not None
        # The witness has the same projections as the indicator but is a
        # genuinely different fuzzy grid.
        from privsig import grid_projections

        for axis in (0, 1):
            want = grid_projections(p.state_set(1), axis)
            got = grid_projections(witness, axis, state=1)
            assert max(abs(a - float(b)) for a, b in zip(got, want)) < 1e-6

    def test_agrees_with_lorentz_on_binary(self, rng):
        for _ in range(12):
            r = int(rng.integers(2, 7))
            cells = (rng.random((r, r)) < rng.random()).astype(int)
            if cells.max() == 0 or cells.min() == 1:
                continue
            assert partition_uniqueness_grid(GridPartition(cells)) == \
                lorentz_uniqueness_2d(GridSet(cells))

    def test_budget_errors(self):
        with pytest.raises(ResourceBudgetError):
            partition_uniqueness_grid(
                GridPartition(np.zeros((40, 40), dtype=int))
            )
        with pytest.raises(ResourceBudgetError):
            partition_uniqueness_grid(
                GridPartition(np.arange(25).reshape(5, 5) % 5)
            )
