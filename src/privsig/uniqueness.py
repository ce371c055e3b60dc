"""Pareto-optimality tests via conjugacy and sets/partitions of uniqueness.

A binary-state two-agent structure is Pareto optimal exactly when the two
belief distributions are conjugates; for grid representations the same
question becomes discrete tomography: is the cell set the only one with its
axis projections?  This module provides the conjugacy test, the discrete
Lorentz/Gale-Ryser rearrangement test, a local switch test, the additive-set
test, the partition-of-uniqueness test, and a brute-force enumeration oracle
that the faster tests are validated against.

In two dimensions combinatorics decides most verdicts exactly: a 2x2 label
swap is an exact 0/1 mate, a swap-free grid with at most two labels is
unique (Gale-Ryser), and a swap-free set is additive with integer rank
levels (Fishburn, Lagarias, Reeds & Shepp).  HiGHS runs only for the
three-dimensional additive test and for swap-free partitions with three or
more labels (notes/decisions.md, "Uniqueness verdicts by combinatorics").
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from itertools import combinations

import numpy as np

from ._num import LP_TOL, _tol, as_fraction
from .beliefs import AtomicDist, ORDER_TOL, _distance_to_conjugate, mean
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
    tol = _tol(tol)
    if abs(mean(mu1) - mean(mu2)) > tol:
        raise ValidationError("not a feasible pair: the means differ")
    return _distance_to_conjugate(mu2, mu1) <= tol


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


def _distinct(values):
    """The distinct values of an integer array, ascending.

    A sort and a ``diff``: a plain ``np.unique`` imports ``numpy.ma`` on its
    first call in a process, which costs more than the call itself.
    """
    ordered = np.sort(values, axis=None)
    return ordered[np.diff(ordered, prepend=ordered[:1] - 1) != 0]


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
        raise ValidationError("field 'matrix': expected a 2-D array")
    if not np.isin(arr, (0, 1)).all():
        raise ValidationError("field 'matrix': entries must be 0 or 1")
    # No switch means any two rows are nested, i.e. the rows form a chain
    # under inclusion: sorted by size, each row contains the next.
    arr = arr.astype(bool)
    arr = arr[np.argsort(-arr.sum(axis=1), kind="stable")]
    return not (arr[1:] & ~arr[:-1]).any()


#: Entries per block of row pairs in the swap search, which bounds its memory.
_SWAP_BLOCK = 1 << 20


def _label_swap(labels):
    """``labels`` with one 2x2 label swap applied, or None if it has none.

    A swap is a pair of rows ``i != i2`` and of columns ``j != j2`` with
    ``labels[i, j] = labels[i2, j2] = k`` and ``labels[i, j2] =
    labels[i2, j] = l != k``: exchanging ``k`` and ``l`` on those four cells
    keeps every per-label row and column count.  On a 0/1 matrix this is
    Ryser's switch.  For each pair of rows a mask marks which ordered label
    pairs ``(labels[i, c], labels[i2, c])`` occur; a swap is an
    off-diagonal pair whose transpose occurs too.
    """
    lab = np.asarray(labels, dtype=np.int64)
    n_cols = lab.shape[1]
    m = int(lab.max(initial=0)) + 1
    first, second = np.triu_indices(lab.shape[0], 1)
    off_diagonal = ~np.eye(m, dtype=bool)
    step = max(1, _SWAP_BLOCK // (n_cols + m * m))
    for start in range(0, len(first), step):
        rows, rows2 = first[start:start + step], second[start:start + step]
        codes = lab[rows] * m + lab[rows2]
        seen = np.zeros((len(rows), m * m), dtype=bool)
        seen[np.arange(len(rows))[:, None], codes] = True
        seen = seen.reshape(-1, m, m)
        hits = seen & seen.transpose(0, 2, 1) & off_diagonal
        if hits.any():
            p, k, l = np.argwhere(hits)[0]
            j = np.argmax(codes[p] == k * m + l)
            j2 = np.argmax(codes[p] == l * m + k)
            i, i2 = rows[p], rows2[p]
            mate = lab.copy()
            mate[i, j] = mate[i2, j2] = l
            mate[i, j2] = mate[i2, j] = k
            return mate
    return None


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
# Additive sets
# ---------------------------------------------------------------------------

def _check_epsilon(epsilon):
    """Refuse a margin that is not a finite positive real number."""
    if isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real):
        raise ValidationError("field 'epsilon': must be a number")
    if not isinstance(epsilon, numbers.Rational) and not math.isfinite(epsilon):
        raise ValidationError("field 'epsilon': must be finite")
    if epsilon <= 0:
        raise ValidationError("field 'epsilon': must be positive")


def additive_set_test(grid: GridSet, epsilon=None):
    """Per-axis scores certifying that the grid set is additive, or None.

    The scores are bounded values ``h_i(cell) in [-1, 1]`` with
    ``sum_i h_i(x_i) >= 0`` on cells inside the set and ``<= -epsilon``
    outside; they are returned as a list of per-axis float lists, and their
    existence implies the set is a set of uniqueness.  ``epsilon`` defaults
    to ``1/(4R)``: the complement side of the definition is a strict
    inequality, and a closed system needs explicit slack to express it.

    In two dimensions no LP runs.  A set with a 2x2 switch is not additive.
    A switch-free set is a permuted Ferrers diagram; with ``S`` distinct row
    counts below ``R``, the widest margin the bounds allow is exactly
    ``2/S`` (compared exactly with ``epsilon``), and the rank levels
    ``h_0(i) = 2 #{steps < L_i}/S - 1`` and ``h_1(j) = 1 - 2 #{steps <=
    pos_j}/S`` attain it, where ``L_i`` is row ``i``'s count and ``pos_j``
    the rank of column ``j`` by height.  Three-dimensional sets go to a
    HiGHS feasibility LP.
    """
    if grid.n not in (2, 3):
        raise ValidationError("the additive test supports n in {2, 3}")
    r = grid.resolution
    if epsilon is None:
        epsilon = 1.0 / (4 * r)
    _check_epsilon(epsilon)
    if grid.n == 3:
        return _additive_lp(grid, float(epsilon))
    cells = grid.cells
    if not switch_uniqueness_matrix(cells):
        return None
    row_counts = cells.sum(axis=1)
    steps = _distinct(row_counts[row_counts < r])
    s = len(steps)
    if s == 0:
        # The full square: no outside cell to separate.
        return [[0.0] * r, [0.0] * r]
    if as_fraction(epsilon) > Fraction(2, s):
        return None
    pos = np.empty(r, dtype=np.int64)
    pos[np.argsort(-cells.sum(axis=0), kind="stable")] = np.arange(r)
    below = np.searchsorted(steps, row_counts, side="left")
    upto = np.searchsorted(steps, pos, side="right")
    return [((2 * below - s) / s).tolist(), ((s - 2 * upto) / s).tolist()]


def _additive_lp(grid: GridSet, epsilon: float):
    """The additive-set scores from a HiGHS feasibility LP, or None."""
    from scipy.optimize import linprog

    r = grid.resolution
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
# Partitions of uniqueness
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


def _partition_verdict(partition: GridPartition):
    """``(unique?, swapped labels, LP witness)`` from the first path that
    decides."""
    check_partition_budget(partition)
    mate = _label_swap(partition.cells)
    if mate is not None:
        return False, mate, None
    # A label that no cell carries has zero projections, so no relaxation
    # gives it mass: what counts is the number of labels in use.
    if len(_distinct(partition.cells)) <= 2:
        return True, None, None
    off_mass, fuzzy = _partition_lp(partition)
    if off_mass <= LP_TOL:
        return True, None, None
    return False, None, fuzzy


def partition_uniqueness_witness(partition: GridPartition):
    """(unique?, witness) where the witness is a distinct fuzzy relaxation.

    The witness is a fuzzy grid with the same per-state projections as the
    partition whenever the partition is not one of uniqueness, else None.
    After the budget check:

    1. a 2x2 label swap gives ``(False, mate)``, with the swapped labeling
       as an exact one-hot grid of Fractions;
    2. with no swap and at most two labels in use the partition is
       unique: the polytope of [0, 1] matrices with given margins is
       integral, so a fractional mate would imply a 0/1 mate, and a 0/1
       mate a switch;
    3. otherwise (three or more labels, no swap) an LP maximizes the fuzzy
       mass off the partition's own labels; its witness is in floats.
    """
    unique, mate, fuzzy = _partition_verdict(partition)
    if mate is None:
        return unique, fuzzy
    units = np.array([Fraction(0), Fraction(1)], dtype=object)
    one_hot = (mate[..., None] == np.arange(partition.m)).astype(np.int64)
    return False, FuzzyGrid(units[one_hot])


def partition_uniqueness_grid(partition: GridPartition) -> bool:
    """Is the labeled grid the only fuzzy relaxation with its projections?

    Implements the extreme-point criterion: the polytope of fuzzy grids
    matching the partition's per-state axis projections must be the
    singleton containing the indicator.  A 2x2 label swap refutes it and
    Gale-Ryser confirms it for two labels, both exactly; a swap-free
    partition with three or more labels is unique iff the LP's maximum mass
    off its own labels is zero (within ``LP_TOL``).
    """
    unique, _, _ = _partition_verdict(partition)
    return unique
