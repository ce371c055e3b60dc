"""Uniqueness tests: conjugacy, tomography criteria, LP, and oracles."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    grid_projections,
    is_pareto_optimal_2x2,
    lorentz_uniqueness_2d,
    partition_uniqueness_grid,
    partition_uniqueness_witness,
    point_mass,
    switch_uniqueness_matrix,
    uniform_grid,
)
import privsig
from privsig import uniqueness
from privsig._num import LP_TOL
from privsig.uniqueness import _additive_lp, _label_swap, _partition_lp
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


# ---------------------------------------------------------------------------
# Combinatorial verdicts against the LP formulations
# ---------------------------------------------------------------------------

def naive_label_swap(labels):
    """Loop oracle: is there a 2x2 label swap with two distinct labels?"""
    lab = np.asarray(labels)
    n_rows, n_cols = lab.shape
    for i in range(n_rows):
        for i2 in range(i + 1, n_rows):
            for j in range(n_cols):
                for j2 in range(n_cols):
                    k, l = lab[i, j], lab[i, j2]
                    if k != l and lab[i2, j2] == k and lab[i2, j] == l:
                        return True
    return False


def distinct_steps(cells):
    """Number of distinct row counts below R of a binary grid."""
    counts = np.asarray(cells, dtype=int).sum(axis=1)
    return len({int(c) for c in counts if c < len(cells)})


def ferrers_cells(rng, r):
    lengths = np.sort(rng.integers(0, r + 1, size=r))[::-1]
    cells = np.arange(r) < lengths[:, None]
    return cells[rng.permutation(r)][:, rng.permutation(r)]


@st.composite
def labelings(draw):
    """Label grids with m in 2..4 and R in 2..10, including swap-free kinds
    (row-sorted for two labels, Latin squares, stripes) that reach the LP."""
    m = draw(st.integers(2, 4))
    r = draw(st.integers(2, 10))
    kind = draw(st.sampled_from(["random", "row_sorted", "latin", "striped", "halves"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i, j = np.indices((r, r))
    if kind == "random":
        cells = rng.integers(0, m, size=(r, r))
    elif kind == "row_sorted":
        cells = np.sort(rng.integers(0, m, size=(r, r)), axis=1)
    elif kind == "latin":
        step = int(rng.integers(1, m))
        cells = (i + step * j + int(rng.integers(0, m))) % m
    elif kind == "striped":
        width = int(rng.integers(1, r + 1))
        cells = ((j if rng.random() < 0.5 else i) // width) % m
    else:
        half = r - r % 2 or 2
        cells = np.zeros((r, r), dtype=int)
        p = striped_three_state_partition(int(rng.integers(0, half // 2 + 1)), half)
        cells[:half, :half] = p.cells
    return cells


def one_hot(labels, m):
    return (np.asarray(labels)[..., None] == np.arange(m)).astype(float)


class TestCombinatorialPartitions:
    @settings(max_examples=150, deadline=None)
    @given(labelings())
    def test_verdicts_and_witnesses_match_the_lp(self, cells):
        p = GridPartition(cells)
        unique, witness = partition_uniqueness_witness(p)
        lp_mass, _ = _partition_lp(p)
        assert unique == (lp_mass <= LP_TOL)
        assert partition_uniqueness_grid(p) == unique
        swap = naive_label_swap(cells)
        assert (_label_swap(cells) is not None) == swap
        if unique:
            assert witness is None
            return
        diff = np.abs(np.asarray(witness.cells, dtype=float) - one_hot(cells, p.m))
        assert diff.max() > 1e-6
        exact = swap or len(np.unique(cells)) <= 2
        for k in range(p.m):
            for axis in (0, 1):
                got = grid_projections(witness, axis, state=k)
                want = grid_projections(p, axis, state=k)
                if exact:
                    assert all(type(v) is F for v in got)
                    assert got == want
                else:
                    assert max(abs(a - float(b)) for a, b in zip(got, want)) < 1e-6
        if exact:
            assert set(witness.cells.flat) <= {F(0), F(1)}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 7), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    def test_blocked_search_finds_every_swap(self, n_rows, n_cols, m, seed):
        cells = np.random.default_rng(seed).integers(0, m, size=(n_rows, n_cols))
        expect = naive_label_swap(cells)
        for block in (1, 7, 1 << 20):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(uniqueness, "_SWAP_BLOCK", block)
                mate = _label_swap(cells)
            assert (mate is not None) == expect
            if mate is not None:
                changed = np.argwhere(mate != cells)
                assert len(changed) == 4
                assert len(set(changed[:, 0])) == len(set(changed[:, 1])) == 2
                for k in range(m):
                    assert np.array_equal((mate == k).sum(axis=0), (cells == k).sum(axis=0))
                    assert np.array_equal((mate == k).sum(axis=1), (cells == k).sum(axis=1))

    def test_no_lp_where_combinatorics_decides(self, monkeypatch, rng):
        def refuse(*args):
            raise AssertionError("an LP ran")

        monkeypatch.setattr(uniqueness, "_partition_lp", refuse)
        monkeypatch.setattr(uniqueness, "_additive_lp", refuse)
        for r in (2, 8, 32):
            for m in (2, 3, 4):
                cells = rng.integers(0, m, size=(r, r))
                if m > 2 and _label_swap(cells) is None:
                    continue
                unique, witness = partition_uniqueness_witness(GridPartition(cells))
                assert unique == (witness is None)
            stairs = (np.add.outer(np.arange(r), np.arange(r)) >= r).astype(int)
            assert partition_uniqueness_grid(GridPartition(stairs))
            # Two labels in use out of three: label 1 carries no mass.
            assert partition_uniqueness_grid(GridPartition(2 * stairs))
            for cells in (ferrers_cells(rng, r), rng.random((r, r)) < 0.5):
                additive_set_test(GridSet(cells))
        with pytest.raises(AssertionError, match="an LP ran"):
            partition_uniqueness_grid(striped_three_state_partition(2, 8))

    def test_cyclic_latin_square_reaches_the_lp(self):
        # No 2x2 swap, yet the other cyclic square has the same projections.
        cells = np.add.outer(np.arange(3), np.arange(3)) % 3
        assert _label_swap(cells) is None
        unique, witness = partition_uniqueness_witness(GridPartition(cells))
        assert not unique and witness is not None

    def test_matrix_witness_at_any_size(self, rng):
        cells = ferrers_cells(rng, 12).astype(int)
        cells[0, :] = 0
        cells[1, :] = 1
        cells[0, 0], cells[1, 0] = 1, 0
        mate = _label_swap(cells)
        assert mate is not None and not switch_uniqueness_matrix(cells)
        assert not np.array_equal(mate, cells)
        assert np.array_equal(mate.sum(axis=0), cells.sum(axis=0))
        assert np.array_equal(mate.sum(axis=1), cells.sum(axis=1))


@st.composite
def binary_grids(draw):
    """Binary grids with R in 1..8: permuted Ferrers diagrams, the same with
    one cell toggled, and random grids."""
    r = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["ferrers", "toggled", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return rng.random((r, r)) < rng.random()
    cells = ferrers_cells(rng, r)
    if kind == "toggled":
        cells[rng.integers(r), rng.integers(r)] ^= True
    return cells


def check_scores(cells, h, epsilon, tol=1e-12):
    a, b = (np.asarray(v, dtype=float) for v in h)
    assert all(type(v) is float for axis in h for v in axis)
    assert np.abs(a).max() <= 1 and np.abs(b).max() <= 1
    total = a[:, None] + b[None, :]
    assert (total[cells] >= -tol).all()
    assert (total[~cells] <= -epsilon + tol).all()


class TestCombinatorialAdditive:
    @settings(max_examples=150, deadline=None)
    @given(binary_grids())
    def test_verdicts_match_the_lp(self, cells):
        g = GridSet(cells)
        r = len(cells)
        s = distinct_steps(cells)
        for eps in (1 / (4 * r), 1 / (8 * r), 0.3, 0.7, 1.1, 1.9, 2.5):
            if s and abs(eps - 2 / s) < 1e-6:
                continue
            h = additive_set_test(g, eps)
            assert (h is not None) == (_additive_lp(g, eps) is not None)
            if h is not None:
                assert lorentz_uniqueness_2d(g)
                check_scores(cells, h, eps)
            elif lorentz_uniqueness_2d(g):
                assert eps > 2 / s

    @pytest.mark.parametrize("cells, steps", [
        (np.add.outer(np.arange(4), np.arange(4)) >= 4, 4),   # staircase 0..3
        (np.zeros((3, 3), dtype=bool), 1),                    # empty set
        (np.array([[1, 1, 0], [1, 1, 0], [1, 0, 0]], bool), 2),
        (np.array([[1, 1, 1], [1, 1, 1], [1, 0, 0]], bool), 1),
        (np.array([[0, 1, 1, 1], [0, 1, 0, 1], [0, 0, 0, 0], [0, 1, 0, 1]], bool), 3),
    ])
    def test_exact_boundary_two_over_s(self, cells, steps):
        g = GridSet(cells)
        assert distinct_steps(cells) == steps
        h = additive_set_test(g, F(2, steps))
        assert h is not None
        check_scores(cells, h, 2 / steps)
        assert additive_set_test(g, 2 / steps + 1e-9) is None
        assert additive_set_test(g, F(2, steps) + F(1, 10**30)) is None
        # HiGHS draws the same line, away from its tolerances.
        assert _additive_lp(g, 2 / steps - 1e-3) is not None
        assert _additive_lp(g, 2 / steps + 1e-3) is None

    def test_full_square_any_margin(self):
        g = GridSet(np.ones((3, 3), dtype=bool))
        assert additive_set_test(g, 5.0) == [[0.0] * 3, [0.0] * 3]

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -float("inf"),
                                         np.float64("nan"), "0.5", True, [0.1]])
    def test_epsilon_must_be_a_finite_number(self, epsilon):
        with pytest.raises(ValidationError, match="epsilon"):
            additive_set_test(upper_triangle_grid(4), epsilon)
        with pytest.raises(ValidationError, match="epsilon"):
            additive_set_test(majority_grid(2), epsilon)

    def test_exact_and_numpy_margins(self):
        g = upper_triangle_grid(8)
        assert additive_set_test(g, F(1, 8)) is not None
        assert additive_set_test(g, np.float64(0.125)) is not None
        assert additive_set_test(g, np.int64(1)) is None


def test_verdicts_leave_numpy_ma_unimported():
    # A plain np.unique imports numpy.ma on its first call in a process,
    # which costs more than the call.
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from privsig import GridPartition, GridSet, additive_set_test, partition_uniqueness_grid
        ferrers = (np.arange(6) < np.array([[6], [5], [3], [3], [1], [0]])).astype(int)
        assert additive_set_test(GridSet(ferrers)) is not None
        assert partition_uniqueness_grid(GridPartition(ferrers))
        print("numpy.ma" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(privsig.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"
