"""Finite-support belief distributions on [0, 1] and their order structure.

A distribution of posterior beliefs about a binary state is represented by
:class:`AtomicDist`, an immutable list of ``(location, weight)`` atoms.  The
module provides the cumulative distribution function, the quantile function
``F^{-1}(u) = min{y : F(y) >= u}``, the conjugate (the distribution whose CDF
is the reflection of F around the anti-diagonal of the unit square), and the
mean-preserving-contraction / Blackwell order tests built on integrated CDFs.

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
        pairs = [(x, w) for x, w in atoms]
        if not pairs:
            raise ValidationError("a distribution needs at least one atom")
        for x, w in pairs:
            if not (0 <= x <= 1):
                raise ValidationError(f"atom location {x} outside [0, 1]")
            if w < 0:
                raise ValidationError(f"negative atom weight {w}")
        kept = [(x, w) for x, w in pairs if w > WEIGHT_DROP_TOL]
        if not kept:
            raise ValidationError("all atom weights are (near) zero")
        dropped_mass = len(kept) < len(pairs)
        kept.sort(key=lambda p: p[0])

        # A cluster starts at each atom MERGE_TOL or more above the start
        # (the anchor) of the cluster before it.
        starts, anchor = [0], kept[0][0]
        for i, (x, _) in enumerate(kept):
            if x - anchor >= MERGE_TOL:
                starts.append(i)
                anchor = x
        merged = kept
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


def _merged_breakpoints(a: AtomicDist, b: AtomicDist):
    pts = set(a.locations) | set(b.locations) | {0, 1}
    return sorted(pts)


def _upper_cdf_integrals(a: AtomicDist, b: AtomicDist):
    """At each merged breakpoint y, the value of int_y^1 (F_a - F_b) dx.

    Returns (breakpoints, values).  Both CDFs are constant between merged
    breakpoints, so the integral is piecewise linear and its extrema over y
    lie on the returned grid.
    """
    ys = _merged_breakpoints(a, b)
    diffs = [cdf_eval(a, y) - cdf_eval(b, y) for y in ys]
    vals = [0] * len(ys)
    for i in range(len(ys) - 2, -1, -1):
        vals[i] = vals[i + 1] + (ys[i + 1] - ys[i]) * diffs[i]
    return ys, vals


def is_mpc(a: AtomicDist, b: AtomicDist, tol=ORDER_TOL) -> bool:
    """True iff ``a`` is a mean-preserving contraction of ``b``.

    Uses the integrated-CDF characterization: the means agree (within
    ``tol``) and ``int_y^1 F_a(x) dx >= int_y^1 F_b(x) dx - tol`` for every
    y.  The integrals are piecewise linear, so the inequality is checked
    exactly at the union of the two distributions' breakpoints.
    """
    if abs(mean(a) - mean(b)) > tol:
        return False
    _, vals = _upper_cdf_integrals(a, b)
    return min(vals) >= -tol


def blackwell_dominates(a: AtomicDist, b: AtomicDist, tol=ORDER_TOL) -> bool:
    """True iff a belief distribution ``a`` Blackwell dominates ``b``.

    Equivalent to ``b`` being a mean-preserving contraction of ``a``: every
    expected-utility maximizer weakly prefers the more dispersed beliefs.
    """
    return is_mpc(b, a, tol)


def wasserstein1(a: AtomicDist, b: AtomicDist):
    """Earth-mover distance ``int |F_a - F_b|``, exact for step CDFs."""
    ys = _merged_breakpoints(a, b)
    total = 0
    for y0, y1 in zip(ys, ys[1:]):
        total = total + (y1 - y0) * abs(cdf_eval(a, y0) - cdf_eval(b, y0))
    return total


def dists_close(a, b, tol=ORDER_TOL) -> bool:
    """Atom-wise equality within ``tol`` (locations and weights).

    Takes two :class:`AtomicDist` or two ``SimplexDist``, whose posterior
    vectors are compared in max norm; distributions of different dimensions
    are never close.  Atoms of the two distributions are clustered together
    whenever consecutive locations in the merged sorted list are within
    ``tol``; the per-cluster weights must then agree within ``tol``.
    Robust to atom splits caused by round-off.
    """
    events = sorted(
        [(_vec(x), w, 0) for x, w in a.atoms] + [(_vec(x), w, 1) for x, w in b.atoms]
    )
    if len({len(x) for x, _, _ in events}) > 1:
        return False
    wa = wb = 0
    prev_x = None
    for x, w, side in events:
        if prev_x is not None and max(abs(p - q) for p, q in zip(x, prev_x)) > tol:
            if abs(wa - wb) > tol:
                return False
            wa = wb = 0
        if side == 0:
            wa = wa + w
        else:
            wb = wb + w
        prev_x = x
    return abs(wa - wb) <= tol


def _vec(x):
    return x if isinstance(x, tuple) else (x,)
