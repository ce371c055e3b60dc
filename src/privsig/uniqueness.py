"""Pareto-optimality tests via conjugacy and sets/partitions of uniqueness.

A binary-state two-agent structure is Pareto optimal exactly when the two
belief distributions are conjugates; for grid representations the same
question becomes discrete tomography: is the cell set the only one with its
axis projections?  This module provides the conjugacy test, the discrete
Lorentz/Gale-Ryser rearrangement test, a local switch test, an additive-set
linear feasibility test, the fuzzy-relaxation LP test for labeled partitions,
and a brute-force enumeration oracle that the faster tests are validated
against.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ._num import LP_TOL
from .beliefs import AtomicDist, ORDER_TOL, conjugate, mean, wasserstein1
from .errors import ResourceBudgetError, ValidationError
from .structures import FuzzyGrid, GridPartition, GridSet

#: Documented budget for the partition LP test.
PARTITION_BUDGET = {"max_resolution": 32, "max_states": 4}
#: Cell budget for brute-force enumeration.
BRUTE_FORCE_CELLS = 25


def is_pareto_optimal_2x2(mu1: AtomicDist, mu2: AtomicDist, tol=ORDER_TOL) -> bool:
    """Pareto optimality for two agents and a binary state.

    True iff ``mu2`` equals the conjugate of ``mu1`` within ``tol``
    (earth-mover distance between the two step CDFs).  The two belief
    distributions must have equal means, else no private private structure
    realizes the pair at all and the question is vacuous.

    For R-atom grid discretizations of continuous distributions, pass a
    tolerance of order 1/R: the discretization itself perturbs the conjugate
    by up to 1/(2R).
    """
    if abs(mean(mu1) - mean(mu2)) > tol:
        raise ValidationError("not a feasible pair: the means differ")
    return wasserstein1(mu2, conjugate(mu1)) <= tol


# ---------------------------------------------------------------------------
# Discrete tomography on binary grids and matrices
# ---------------------------------------------------------------------------

def conjugate_partition(parts) -> list:
    """Conjugate of an integer partition: entry k counts parts >= k+1."""
    parts = sorted((int(p) for p in parts), reverse=True)
    if any(p < 0 for p in parts):
        raise ValidationError("partition parts must be nonnegative")
    width = parts[0] if parts else 0
    return [sum(1 for p in parts if p > k) for k in range(width)]


def _strip_zeros(parts):
    return [p for p in parts if p > 0]


def gale_ryser_unique(row_sums, col_sums) -> bool:
    """Is a 0/1 matrix the only one with these (realizable) margins?

    Exact integer criterion: the sorted row-sum vector must be the conjugate
    partition of the sorted column-sum vector.  In that case the matrix is a
    permuted Ferrers diagram and no switch is possible; otherwise a second
    matrix with identical margins exists.
    """
    rows = sorted((int(v) for v in row_sums), reverse=True)
    cols = sorted((int(v) for v in col_sums), reverse=True)
    if sum(rows) != sum(cols):
        raise ValidationError("row and column sums have different totals")
    return _strip_zeros(conjugate_partition(cols)) == _strip_zeros(rows)


def lorentz_uniqueness_2d(grid: GridSet) -> bool:
    """Rearrangement test for a binary grid subset of the unit square.

    Counts cells along both axes and checks, in integer arithmetic, that the
    sorted projections are conjugate partitions of each other, which holds
    exactly when the set is a rearrangement of an upward-closed set, i.e. a
    set of uniqueness.  The test depends only on the projection multisets,
    so ties in the sort are immaterial.
    """
    if grid.n != 2:
        raise ValidationError("the rearrangement test is two-dimensional")
    cells = grid.cells.astype(np.int64)
    axis0_counts = cells.sum(axis=1)  # per index on axis 0
    axis1_counts = cells.sum(axis=0)
    return gale_ryser_unique(axis0_counts.tolist(), axis1_counts.tolist())


def switch_uniqueness_matrix(mat) -> bool:
    """Local test: a 0/1 matrix is unique iff it contains no 2x2 switch.

    A switch is a pair of rows and columns meeting in a checkerboard
    ``[[1, 0], [0, 1]]`` (either orientation); toggling it yields a distinct
    matrix with identical margins.
    """
    arr = np.asarray(mat)
    if arr.ndim != 2:
        raise ValidationError("expected a matrix")
    if not np.isin(arr, (0, 1)).all():
        raise ValidationError("matrix entries must be 0 or 1")
    arr = arr.astype(np.int8)
    n_rows = arr.shape[0]
    for r, s in combinations(range(n_rows), 2):
        diff = arr[r] - arr[s]
        if (diff > 0).any() and (diff < 0).any():
            return False
    return True


def brute_force_marginal_mates(mat) -> list:
    """Every 0/1 matrix with the same row and column sums, by backtracking.

    The enumeration oracle behind the faster tests: the input is unique
    exactly when the returned list has length 1 (the input itself is always
    a member).  Budgeted to 25 cells.
    """
    arr = np.asarray(mat).astype(np.int8)
    if arr.ndim != 2:
        raise ValidationError("expected a matrix")
    if arr.size > BRUTE_FORCE_CELLS:
        raise ResourceBudgetError(
            f"{arr.size} cells exceed the {BRUTE_FORCE_CELLS}-cell enumeration budget"
        )
    if not np.isin(arr, (0, 1)).all():
        raise ValidationError("matrix entries must be 0 or 1")
    n_rows, n_cols = arr.shape
    row_sums = arr.sum(axis=1).tolist()
    col_rem = arr.sum(axis=0).tolist()
    out = []
    current = np.zeros_like(arr)

    def place(r):
        if r == n_rows:
            out.append(current.copy())
            return
        rows_left = n_rows - r - 1
        need = row_sums[r]
        candidates = [c for c in range(n_cols) if col_rem[c] > 0]
        if len(candidates) < need:
            return
        for chosen in combinations(candidates, need):
            for c in chosen:
                col_rem[c] -= 1
            if all(col_rem[c] <= rows_left for c in range(n_cols)):
                current[r, :] = 0
                current[r, list(chosen)] = 1
                place(r + 1)
            for c in chosen:
                col_rem[c] += 1

    place(0)
    return out


# ---------------------------------------------------------------------------
# Additive sets (linear feasibility)
# ---------------------------------------------------------------------------

def additive_set_test(grid: GridSet, epsilon=None):
    """Search for per-axis scores certifying the grid set is additive.

    Solves the linear feasibility problem for bounded values
    ``h_i(cell) in [-1, 1]`` with ``sum_i h_i(x_i) >= 0`` on cells inside the
    set and ``<= -epsilon`` outside.  Success returns the witness as a list
    of per-axis value lists and implies the set is a set of uniqueness; on
    infeasibility returns None.  ``epsilon`` defaults to ``1/(4R)``: the
    complement side of the definition is a strict inequality, and a closed
    LP needs explicit slack to express it.
    """
    from scipy.optimize import linprog

    if grid.n not in (2, 3):
        raise ValidationError("the additive test supports n in {2, 3}")
    r = grid.resolution
    if epsilon is None:
        epsilon = 1.0 / (4 * r)
    epsilon = float(epsilon)
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")

    n = grid.n
    n_vars = n * r
    rows = []
    rhs = []
    for idx in np.ndindex(*grid.cells.shape):
        coeffs = np.zeros(n_vars)
        for axis, j in enumerate(idx):
            coeffs[axis * r + j] = 1.0
        if grid.cells[idx]:
            rows.append(-coeffs)   # sum h >= 0
            rhs.append(0.0)
        else:
            rows.append(coeffs)    # sum h <= -epsilon
            rhs.append(-epsilon)
    res = linprog(
        c=np.zeros(n_vars),
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(-1.0, 1.0)] * n_vars,
        method="highs",
    )
    if not res.success:
        return None
    h = res.x
    return [h[axis * r:(axis + 1) * r].tolist() for axis in range(n)]


# ---------------------------------------------------------------------------
# Partitions of uniqueness (fuzzy-relaxation LP)
# ---------------------------------------------------------------------------

def _partition_lp(partition: GridPartition):
    """Maximize the total fuzzy mass placed off the partition's own labels.

    The fuzzy relaxations with the partition's per-state projections form a
    polytope containing the indicator point.  Every off-label cell value is
    nonnegative and bounded by this single optimum, so the polytope is the
    singleton {indicator} iff the optimum is 0.  Returns (optimum, witness
    FuzzyGrid at the optimum).
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    r = partition.resolution
    m = partition.m
    labels = partition.cells
    n_cells = r * r
    n_vars = m * n_cells

    def var(k, i, j):
        return k * n_cells + i * r + j

    data, row_idx, col_idx, rhs = [], [], [], []
    eq = 0
    # Per-cell simplex constraint.
    for i in range(r):
        for j in range(r):
            for k in range(m):
                data.append(1.0)
                row_idx.append(eq)
                col_idx.append(var(k, i, j))
            rhs.append(1.0)
            eq += 1
    # Projection constraints per (state, axis, slice index).
    for k in range(m):
        indicator = (labels == k)
        for axis in (0, 1):
            counts = indicator.sum(axis=1 - axis)
            for t in range(r):
                for o in range(r):
                    i, j = (t, o) if axis == 0 else (o, t)
                    data.append(1.0)
                    row_idx.append(eq)
                    col_idx.append(var(k, i, j))
                rhs.append(float(counts[t]))
                eq += 1

    a_eq = coo_matrix((data, (row_idx, col_idx)), shape=(eq, n_vars))
    objective = np.zeros(n_vars)
    for k in range(m):
        off = (labels != k).astype(float).ravel()
        objective[k * n_cells:(k + 1) * n_cells] = -off  # linprog minimizes
    res = linprog(
        c=objective,
        A_eq=a_eq.tocsr(),
        b_eq=np.array(rhs),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not res.success:
        raise ArithmeticError(f"projection LP failed: {res.message}")
    cells = res.x.reshape(m, r, r).transpose(1, 2, 0)
    # Tidy tiny negatives before handing the witness back.
    cells = np.clip(cells, 0.0, 1.0)
    cells /= cells.sum(axis=-1, keepdims=True)
    return -res.fun, FuzzyGrid(cells)


def check_partition_budget(partition: GridPartition):
    if partition.n != 2:
        raise ValidationError("the partition LP test is two-dimensional")
    if partition.resolution > PARTITION_BUDGET["max_resolution"]:
        raise ResourceBudgetError(
            f"resolution {partition.resolution} exceeds the LP budget "
            f"R <= {PARTITION_BUDGET['max_resolution']}"
        )
    if partition.m > PARTITION_BUDGET["max_states"]:
        raise ResourceBudgetError(
            f"{partition.m} states exceed the LP budget m <= "
            f"{PARTITION_BUDGET['max_states']}"
        )


def partition_uniqueness_witness(partition: GridPartition):
    """(unique?, witness) where the witness is a distinct fuzzy relaxation.

    The witness is a fuzzy grid with the same per-state projections as the
    partition whenever the partition is not one of uniqueness, else None.
    """
    check_partition_budget(partition)
    off_mass, fuzzy = _partition_lp(partition)
    if off_mass <= LP_TOL:
        return True, None
    return False, fuzzy


def partition_uniqueness_grid(partition: GridPartition) -> bool:
    """Is the labeled grid the only fuzzy relaxation with its projections?

    Implements the extreme-point criterion: the polytope of fuzzy grids
    matching the partition's per-state axis projections must be the
    singleton containing the indicator.  A single LP maximizes the total
    mass off the partition's own labels; the partition is one of uniqueness
    iff that maximum is zero (within ``LP_TOL``).
    """
    unique, _ = partition_uniqueness_witness(partition)
    return unique
