"""Finite-support belief distributions on [0, 1] and their order structure.

A distribution of posterior beliefs about a binary state is represented by
:class:`AtomicDist`, an immutable list of ``(location, weight)`` atoms.  The
module provides the cumulative distribution function, the quantile function
``F^{-1}(u) = min{y : F(y) >= u}``, the conjugate (the distribution whose CDF
is the reflection of F around the anti-diagonal of the unit square), and the
mean-preserving-contraction / Blackwell order tests built on integrated CDFs.
Those tests and the earth-mover distance walk the two sorted atom lists once,
so each costs O(k) for k atoms in all.

Continuous distributions enter only through grid discretizations: the uniform
distribution on [0, 1] is represented by ``R`` atoms at ``(k - 1/2)/R``, each
of weight ``1/R`` (see :func:`uniform_grid`).  Discretization error on the
order tests is O(1/R).

Numbers may be floats or :class:`fractions.Fraction`; all operations preserve
exactness when fed Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._num import MERGE_TOL, ORDER_TOL, TABLE_TOL, WEIGHT_DROP_TOL, is_exact
from .errors import ValidationError


@dataclass(frozen=True)
class AtomicDist:
    """Finite-support probability distribution on [0, 1].

    Parameters
    ----------
    atoms : sequence of (location, weight) pairs
        Locations must lie in [0, 1]; weights must be positive and sum to 1
        within ``TABLE_TOL``.  Weights at or below ``WEIGHT_DROP_TOL`` are
        dropped and the rest renormalized.  An atom less than ``MERGE_TOL``
        above the first atom of the current cluster joins it, and each
        cluster becomes one atom at its weighted mean location
        (notes/decisions.md, "Posterior clustering").  The stored tuple is
        sorted by location.
    """

    atoms: tuple

    def __init__(self, atoms):
        self._set_atoms(atoms, merge=True)

    @classmethod
    def _of_clusters(cls, atoms):
        """The distribution of atoms that are already clustered.

        Validates, drops and renormalizes as the constructor does, but
        merges no atoms: clustering the means of clusters again can merge
        two of them (notes/decisions.md, "Posterior clustering").
        """
        dist = object.__new__(cls)
        dist._set_atoms(atoms, merge=False)
        return dist

    def _set_atoms(self, atoms, merge):
        pairs = [(x, w) for x, w in atoms]
        if not pairs:
            raise ValidationError("a distribution needs at least one atom")
        for x, w in pairs:
            if not (0 <= x <= 1):
                raise ValidationError(f"atom location {x} outside [0, 1]")
            if w < 0:
                raise ValidationError(f"negative atom weight {w}")
        drop_tol, merge_tol = WEIGHT_DROP_TOL, MERGE_TOL
        if isinstance(pairs[0][1], Fraction):
            # Comparing a Fraction with a float converts the float each time.
            drop_tol, merge_tol = Fraction(drop_tol), Fraction(merge_tol)
        kept = [(x, w) for x, w in pairs if w > drop_tol]
        if not kept:
            raise ValidationError("all atom weights are (near) zero")
        dropped_mass = len(kept) < len(pairs)
        kept.sort(key=lambda p: p[0])

        merged = kept
        if merge:
            # A cluster starts at each atom MERGE_TOL or more above the
            # start (the anchor) of the cluster before it.
            starts, anchor = [0], kept[0][0]
            for i, (x, _) in enumerate(kept):
                if x - anchor >= merge_tol:
                    starts.append(i)
                    anchor = x
            if len(starts) < len(kept):
                ends = [*starts[1:], len(kept)]
                merged = [_weighted_mean(kept[a:b]) for a, b in zip(starts, ends)]

        total = sum(w for _, w in merged)
        if abs(total - 1) > TABLE_TOL:
            raise ValidationError(f"atom weights sum to {total}, expected 1")
        # Renormalize only to compensate dropped mass; leaving sub-1e-12
        # slack alone keeps construction idempotent on the float path.
        if dropped_mass and total != 1:
            merged = [(x, w / total) for x, w in merged]
        object.__setattr__(self, "atoms", tuple(merged))

    @property
    def locations(self):
        return tuple(x for x, _ in self.atoms)

    @property
    def weights(self):
        return tuple(w for _, w in self.atoms)

    @property
    def exact(self) -> bool:
        """True when every location and weight is an int or Fraction."""
        return all(is_exact(x) and is_exact(w) for x, w in self.atoms)

    def __repr__(self):
        inner = ", ".join(f"({x}, {w})" for x, w in self.atoms)
        return f"AtomicDist([{inner}])"


def _weighted_mean(atoms):
    if len(atoms) == 1:
        return atoms[0]
    total = sum(w for _, w in atoms)
    return sum(x * w for x, w in atoms) / total, total


@dataclass(frozen=True)
class StepCDF:
    """Right-continuous step function: ``(x, F(x))`` at its jump points.

    The final value must be 1 at x = 1 and values must be nondecreasing.
    """

    breakpoints: tuple

    def __init__(self, breakpoints):
        pts = tuple((x, v) for x, v in breakpoints)
        if not pts:
            raise ValidationError("a step CDF needs at least one breakpoint")
        last_v = 0
        for x, v in pts:
            if not (0 <= x <= 1) or not (0 <= v <= 1):
                raise ValidationError(f"breakpoint ({x}, {v}) outside the unit square")
            if v < last_v:
                raise ValidationError("CDF values must be nondecreasing")
            last_v = v
        if pts[-1][1] != 1 and abs(pts[-1][1] - 1) > TABLE_TOL:
            raise ValidationError("CDF must reach 1 at its top breakpoint")
        object.__setattr__(self, "breakpoints", pts)

    def __call__(self, x):
        if not (0 <= x <= 1):
            raise ValidationError(f"argument {x} outside [0, 1]")
        value = 0
        for bx, v in self.breakpoints:
            if bx <= x:
                value = v
            else:
                break
        return value


def point_mass(p) -> AtomicDist:
    """Dirac distribution at ``p``."""
    return AtomicDist([(p, 1)])


def uniform_grid(resolution: int = 256, exact: bool = False) -> AtomicDist:
    """Grid discretization of Uniform[0, 1]: atoms at ``(k - 1/2)/R``.

    With ``exact=True`` the atoms are Fractions and all downstream
    arithmetic stays rational.
    """
    if resolution < 1:
        raise ValidationError("resolution must be a positive integer")
    if exact:
        atoms = [(Fraction(2 * k - 1, 2 * resolution), Fraction(1, resolution))
                 for k in range(1, resolution + 1)]
    else:
        atoms = [((2 * k - 1) / (2 * resolution), 1.0 / resolution)
                 for k in range(1, resolution + 1)]
    return AtomicDist(atoms)


def step_cdf(dist: AtomicDist) -> StepCDF:
    """The CDF of ``dist`` as an explicit step function."""
    acc = 0
    pts = []
    for x, w in dist.atoms:
        acc = acc + w
        pts.append((x, acc))
    if pts[-1][0] != 1:
        pts.append((1, acc))
    return StepCDF(pts)


def cdf_eval(dist: AtomicDist, x):
    """F(x): total weight of atoms at locations <= x (right-continuous)."""
    if not (0 <= x <= 1):
        raise ValidationError(f"argument {x} outside [0, 1]")
    acc = 0
    for loc, w in dist.atoms:
        if loc <= x:
            acc = acc + w
        else:
            break
    return acc


def quantile(dist: AtomicDist, u):
    """F^{-1}(u) = min{y : F(y) >= u}.

    ``quantile(dist, 0)`` returns the smallest atom location (the infimum of
    the support), which keeps the quantile's range inside the support.
    """
    if not (0 <= u <= 1):
        raise ValidationError(f"argument {u} outside [0, 1]")
    if u == 0:
        return dist.atoms[0][0]
    acc = 0
    for loc, w in dist.atoms:
        acc = acc + w
        if acc >= u:
            return loc
    return dist.atoms[-1][0]


def mean(dist: AtomicDist):
    """Expectation of the distribution."""
    return sum(x * w for x, w in dist.atoms)


def support_gaps(dist: AtomicDist):
    """Nonempty support gaps of ``dist``: their indices and their atoms.

    Gap ``j`` lies between atoms ``x_j < x_{j+1}`` (``x_0 = 0``,
    ``x_{k+1} = 1``); its atom has location ``1 - C_j``, where ``C_j`` is
    the weight of the first ``j`` atoms, and weight ``x_{j+1} - x_j``.
    Returns the list of indices and the parallel list of atoms.
    """
    zero = dist.weights[0] * 0  # Fraction(0) on the exact path, else 0.0
    one = zero + 1
    xs = list(dist.locations) + [one]
    cums = [zero]
    for w in dist.weights:
        cums.append(cums[-1] + w)
    prev = zero
    indices, atoms = [], []
    for j, x_next in enumerate(xs):
        gap = x_next - prev
        if gap > 0:
            indices.append(j)
            # Float weight sums can overshoot 1 by an ulp; pin the location
            # back into the unit interval.
            atoms.append((min(max(one - cums[j], zero), one), gap))
        prev = x_next
    return indices, atoms


def conjugate(dist: AtomicDist) -> AtomicDist:
    """The distribution whose CDF is the anti-diagonal reflection of F.

    Computed combinatorially, which is exact for rational inputs: each
    support gap of ``dist`` (see :func:`support_gaps`) becomes an atom and
    each atom becomes a gap.  The conjugate has the same mean, and
    conjugating twice returns the original distribution.
    """
    _, atoms = support_gaps(dist)
    atoms.reverse()
    return AtomicDist(atoms)


def _cdf_differences(a: AtomicDist, b: AtomicDist):
    """Merged breakpoints of ``a`` and ``b`` and ``F_a - F_b`` at each.

    One left-to-right sweep over the two sorted atom lists.  The breakpoints
    are the locations of both distributions plus 0 and 1, ascending and
    without repeats (on a tie ``a``'s location is kept).  Each running CDF
    adds the weights in atom order, as :func:`cdf_eval` does, so the values
    equal ``cdf_eval(a, y) - cdf_eval(b, y)`` exactly.  Returns
    ``(breakpoints, differences)``.
    """
    xa, xb = a.atoms, b.atoms
    na, nb = len(xa), len(xb)
    i = j = 0
    fa = fb = 0
    ys, diffs = [], []
    if xa[0][0] != 0 and xb[0][0] != 0:
        ys.append(0)
        diffs.append(0)
    while i < na or j < nb:
        if j == nb or (i < na and xa[i][0] <= xb[j][0]):
            y = xa[i][0]
        else:
            y = xb[j][0]
        while i < na and xa[i][0] <= y:
            fa = fa + xa[i][1]
            i += 1
        while j < nb and xb[j][0] <= y:
            fb = fb + xb[j][1]
            j += 1
        ys.append(y)
        diffs.append(fa - fb)
    if ys[-1] != 1:
        ys.append(1)
        diffs.append(fa - fb)
    return ys, diffs


def _upper_cdf_integrals(a: AtomicDist, b: AtomicDist):
    """At each merged breakpoint y, the value of int_y^1 (F_a - F_b) dx.

    Returns (breakpoints, values).  Both CDFs are constant between merged
    breakpoints, so the integral is piecewise linear and its extrema over y
    lie on the returned grid.
    """
    ys, diffs = _cdf_differences(a, b)
    vals = [0] * len(ys)
    for i in range(len(ys) - 2, -1, -1):
        vals[i] = vals[i + 1] + (ys[i + 1] - ys[i]) * diffs[i]
    return ys, vals


def is_mpc(a: AtomicDist, b: AtomicDist, tol=ORDER_TOL) -> bool:
    """True iff ``a`` is a mean-preserving contraction of ``b``.

    Uses the integrated-CDF characterization: the means agree (within
    ``tol``) and ``int_y^1 F_a(x) dx >= int_y^1 F_b(x) dx - tol`` for every
    y.  The integrals are piecewise linear, so the inequality is checked
    exactly at the union of the two distributions' breakpoints, which one
    O(k) sweep over the two sorted atom lists visits.  The first breakpoint
    is 0, where the integral is ``mean(b) - mean(a)``, so the same sweep
    compares the means.
    """
    _, vals = _upper_cdf_integrals(a, b)
    return abs(vals[0]) <= tol and min(vals) >= -tol


def blackwell_dominates(a: AtomicDist, b: AtomicDist, tol=ORDER_TOL) -> bool:
    """True iff a belief distribution ``a`` Blackwell dominates ``b``.

    Equivalent to ``b`` being a mean-preserving contraction of ``a``: every
    expected-utility maximizer weakly prefers the more dispersed beliefs.
    """
    return is_mpc(b, a, tol)


def wasserstein1(a: AtomicDist, b: AtomicDist):
    """Earth-mover distance ``int |F_a - F_b|``, exact for step CDFs.

    One O(k) sweep over the merged breakpoints of the two distributions.
    """
    ys, diffs = _cdf_differences(a, b)
    total = 0
    for y0, y1, d in zip(ys, ys[1:], diffs):
        total = total + (y1 - y0) * abs(d)
    return total


def dists_close(a, b, tol=ORDER_TOL) -> bool:
    """Atom-wise equality within ``tol`` (locations and weights).

    Takes two :class:`AtomicDist` or two ``SimplexDist``, whose posterior
    vectors are compared in max norm; distributions of different dimensions
    are never close.  Atoms of the two distributions are clustered together
    whenever they lie within ``tol`` of each other, directly or through a
    chain of atoms; the per-cluster weights must then agree within ``tol``.
    Robust to atom splits caused by round-off.
    """
    groups = {}  # location or posterior vector -> [weight in a, weight in b]
    for side, dist in enumerate((a, b)):
        for x, w in dist.atoms:
            pair = groups.setdefault(_vec(x), [0, 0])
            pair[side] = pair[side] + w
    vecs = sorted(groups)
    if len({len(x) for x in vecs}) > 1:
        return False
    if isinstance(vecs[0][0], Fraction):
        # Comparing a Fraction with a float converts the float each time.
        tol = Fraction(tol)
    # Every earlier vector within tol of this one has a first coordinate
    # within tol of its own, so it lies in the run just before it in
    # lexicographic order; that run can also hold far vectors, because one
    # ulp in a first coordinate reorders them.
    root = list(range(len(vecs)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, x in enumerate(vecs):
        j = i - 1
        while j >= 0 and x[0] - vecs[j][0] <= tol:
            if max(abs(p - q) for p, q in zip(x, vecs[j])) <= tol:
                root[find(j)] = find(i)
            j -= 1
    sums = {}
    for i, x in enumerate(vecs):
        total = sums.setdefault(find(i), [0, 0])
        total[0] = total[0] + groups[x][0]
        total[1] = total[1] + groups[x][1]
    return all(abs(wa - wb) <= tol for wa, wb in sums.values())


def _vec(x):
    return x if isinstance(x, tuple) else (x,)
