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
exactness when fed Fractions.  Every distribution holds one view of its
atoms as arrays, read by every belief operation (notes/decisions.md, "Exact
beliefs on one common denominator").  An exact distribution, one whose
locations and weights are all ints and Fractions, views them on integer
numerators: the locations over one common denominator and the weights over
another.  A float or mixed one views them as float64 arrays.  The support
gaps, the conjugate, the mean, the order tests and the earth-mover distance
run one sweep on either view; integers then build a Fraction only for a
value they return, of the type the Fraction arithmetic gives it, and floats
read their values directly.  A pair of an exact and a float distribution
runs on the float views of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from ._num import (
    MERGE_TOL,
    ORDER_TOL,
    TABLE_TOL,
    WEIGHT_DROP_TOL,
    _common_denominator,
    _exact_tol,
    _int_dtype,
    _tol,
    is_exact,
)
from .errors import ValidationError


class _View(NamedTuple):
    """A distribution's atoms as arrays.

    Location ``i`` is ``x[i] / X`` and its weight ``w[i] / W``; the
    locations ascend.  An exact distribution holds integer numerators, each
    array ``int64`` while its entries and running sums fit (the weights add
    up to less than 2), else Python ints, and ``xf`` and ``wf`` mark the
    values that are Fractions rather than ints.  A float or mixed one holds
    float64 arrays over ``X = W = 1`` and no flags (:func:`_floats`).
    """

    x: np.ndarray
    X: int
    w: np.ndarray
    W: int
    xf: np.ndarray
    wf: np.ndarray


@dataclass(frozen=True)
class AtomicDist:
    """Finite-support probability distribution on [0, 1].

    Parameters
    ----------
    atoms : sequence of (location, weight) pairs
        Locations and weights are numbers, not booleans.  Locations must
        lie in [0, 1]; weights must be positive and sum to 1 within
        ``TABLE_TOL``.  Weights at or below ``WEIGHT_DROP_TOL`` are
        dropped and the rest renormalized.  An atom less than ``MERGE_TOL``
        above the first atom of the current cluster joins it, and each
        cluster becomes one atom at its weighted mean location
        (notes/decisions.md, "Posterior clustering").  The stored tuple is
        sorted by location.
    """

    atoms: tuple

    def __init__(self, atoms):
        self._set_atoms(atoms)

    @classmethod
    def _of_clusters(cls, atoms):
        """The distribution of the posteriors that the library clustered.

        Drops and renormalizes as the constructor does, but merges no
        atoms: clustering the means of clusters again can merge two of them
        (notes/decisions.md, "Posterior clustering").  The posteriors lie
        in [0, 1] with positive weights by construction, float or exact,
        so they are not validated again.
        """
        dist = object.__new__(cls)
        dist._set_atoms(atoms, clustered=True)
        return dist

    @classmethod
    def _of_view(cls, view):
        """The distribution of a clean view: no atoms to drop or merge."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "atoms", tuple(_atoms(view)))
        object.__setattr__(dist, "_view", view)
        return dist

    def _set_atoms(self, atoms, clustered=False):
        not_pairs = "field 'atoms': expected (location, weight) pairs of numbers"
        try:
            # A caller's own tuples are kept, not copied.
            pairs = [p if p.__class__ is tuple else tuple(p) for p in atoms]
        except TypeError:
            raise ValidationError(not_pairs) from None
        if not pairs:
            raise ValidationError("a distribution needs at least one atom")
        if not clustered:
            try:
                for x, w in pairs:
                    if x.__class__ is bool or w.__class__ is bool:
                        raise ValidationError("field 'atoms': booleans are not numbers")
                    if not (0 <= x <= 1):
                        raise ValidationError(f"atom location {x} outside [0, 1]")
                    # NaN fails both comparisons; a Fraction is finite.
                    if w < 0 or (w.__class__ is not Fraction and not w < math.inf):
                        raise ValidationError(
                            f"field 'atoms': atom weight {w} is negative or not finite")
            except ValidationError:
                raise
            except (TypeError, ValueError):
                raise ValidationError(not_pairs) from None
        drop_tol, merge_tol = WEIGHT_DROP_TOL, MERGE_TOL
        if isinstance(pairs[0][1], Fraction):
            drop_tol, merge_tol = _exact_tol(drop_tol), _exact_tol(merge_tol)
        kept = [p for p in pairs if p[1] > drop_tol]
        if not kept:
            raise ValidationError("all atom weights are (near) zero")
        dropped_mass = len(kept) < len(pairs)
        kept.sort(key=itemgetter(0))

        merged = kept
        if not clustered:
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

    @cached_property
    def _view(self):
        """The atoms as arrays (:class:`_View`): integer numerators when
        the distribution is exact, else floats.  Computed on first use."""
        if not self.exact:
            return _floats(self.atoms)
        xs, ws = self.locations, self.weights
        x, X = _common_denominator(xs)
        w, W = _common_denominator(ws)
        return _View(
            x.astype(_int_dtype(X)), X, w.astype(_int_dtype(2 * W)), W,
            np.array([isinstance(v, Fraction) for v in xs]),
            np.array([isinstance(v, Fraction) for v in ws]),
        )

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


# ---------------------------------------------------------------------------
# Views of distributions
# ---------------------------------------------------------------------------
#
# Each function below runs on either kind of view.  On integers it mirrors
# the Fraction arithmetic of the generic code: a value is a Fraction exactly
# when a Fraction took part in computing it, and an int otherwise, which the
# boolean flag arrays track.  A float view has no flags; ``np.cumsum`` adds
# in array order, as a Python loop over the atoms does, so each float value
# is that loop's, bit for bit.


def _floats(atoms):
    """The view of ``atoms``, each value rounded once to float64."""
    values = np.array(atoms, dtype=float)
    return _View(values[:, 0], 1, values[:, 1], 1, None, None)


def _number(num, den, frac):
    """The value ``num / den``: a float if ``frac`` is None (a float view,
    over 1), else a Fraction if ``frac``, else an int."""
    if frac is None:
        return float(num)
    return Fraction(int(num), den) if frac else int(num) // den


def _numbers(nums, den, fracs):
    """The values ``nums / den``: floats if ``fracs`` is None, else
    Fractions where ``fracs`` is set and ints elsewhere."""
    if fracs is None:
        return nums.tolist()
    return [Fraction(n, den) if f else n // den
            for n, f in zip(nums.tolist(), fracs.tolist())]


def _atoms(view):
    """The ``(location, weight)`` pairs of ``view`` as Python numbers."""
    return list(zip(_numbers(view.x, view.X, view.xf), _numbers(view.w, view.W, view.wf)))


def _scaled(nums, factor, bound):
    """``nums * factor``, in ``int64`` when ``bound`` fits, else Python
    ints; floats, whose factor is 1, as they are."""
    if nums.dtype.kind == "f":
        return nums
    out = nums.astype(_int_dtype(bound), copy=False)
    return out if factor == 1 else out * factor


def _cumulative(e, D):
    """Running weights over ``D``, from 0 before the first atom."""
    w = _scaled(e.w, D // e.W, 2 * D)
    return np.concatenate((np.zeros(1, w.dtype), w.cumsum()))


def _gaps(e):
    """The nonempty support gaps of the distribution that ``e`` views, from
    the last to the first: their indices ``j`` and their atoms as a view,
    the locations ascending over ``W`` and the lengths over ``X``.

    Gap ``j``'s atom lies at ``1 - C_j``, pinned to 0 when the weights add
    up to more than 1, and weighs ``x_{j+1} - x_j``.  Each ``C_j`` adds the
    weights in atom order, so float gaps are those of the sums in order.
    """
    ends = np.concatenate((np.zeros(1, e.x.dtype), e.x, np.full(1, e.X, e.x.dtype)))
    gap = ends[1:] - ends[:-1]
    loc = e.W - np.concatenate((np.zeros(1, e.w.dtype), e.w.cumsum()))
    low = loc < 0
    loc[low] = 0
    keep = np.flatnonzero(gap > 0)[::-1]
    if e.wf is None:
        return keep, _View(loc[keep], e.W, gap[keep], e.X, None, None)
    # 0 and 1 take the type of the first weight, as the Fraction code's do.
    first = e.wf[:1]
    loc_f = np.logical_or.accumulate(np.concatenate((first, e.wf)))
    loc_f[low] = first[0]
    gap_f = np.concatenate((first, e.xf)) | np.concatenate((e.xf, first))
    return keep, _View(loc[keep], e.W, gap[keep], e.X, loc_f[keep], gap_f[keep])


def _clean_conjugate(e):
    """The view of the conjugate of the distribution that ``e`` views: its
    nonempty gaps, the locations over ``W`` and the weights over ``X``.
    None when the constructor would drop, merge or refuse atoms of it."""
    _, g = _gaps(e)
    if g.wf is None:
        # The constructor adds the weights in this order; exact gaps add up
        # to X.
        if abs(g.w.cumsum()[-1] - 1) > TABLE_TOL:
            return None
        drop, merge = WEIGHT_DROP_TOL, MERGE_TOL
    else:
        # w / X > WEIGHT_DROP_TOL and steps / W >= MERGE_TOL, on the integers.
        drop = math.floor(_exact_tol(WEIGHT_DROP_TOL) * e.X)
        merge = math.ceil(_exact_tol(MERGE_TOL) * e.W)
    if g.w.min() <= drop or (len(g.x) > 1 and (g.x[1:] - g.x[:-1]).min() < merge):
        return None
    return g


class _Sweep(NamedTuple):
    """Merged breakpoints ``y / Y`` of two distributions and
    ``F_a - F_b = d / D`` at each, with their type flags (None on floats)."""

    y: np.ndarray
    Y: int
    d: np.ndarray
    D: int
    yf: np.ndarray
    df: np.ndarray


def _sweep(ea, eb):
    """One pass over the atoms of two views of one kind.

    The breakpoints are the locations of both plus 0 and 1, ascending and
    without repeats; integers take the locations on ``lcm(X_a, X_b)`` and
    the weights on ``lcm(W_a, W_b)``.  Each running CDF adds the weights in
    atom order, as :func:`cdf_eval` does.
    """
    Y, D = math.lcm(ea.X, eb.X), math.lcm(ea.W, eb.W)
    xa, xb = _scaled(ea.x, Y // ea.X, Y), _scaled(eb.x, Y // eb.X, Y)
    y = np.sort(np.concatenate((np.zeros(1, xa.dtype), xa, xb, np.full(1, Y, xa.dtype))))
    y = y[np.concatenate(([True], y[1:] != y[:-1]))]
    ia, ib = xa.searchsorted(y, side="right"), xb.searchsorted(y, side="right")
    d = _cumulative(ea, D)[ia] - _cumulative(eb, D)[ib]
    if ea.wf is None:
        return _Sweep(y, Y, d, D, None, None)
    # A breakpoint has its atom's type, a's on a tie; the added 0 and 1
    # are ints.  An index of -1 reads the largest atom, never equal to y.
    on_a = xa[ia - 1] == y
    yf = np.where(on_a, ea.xf[ia - 1], (xb[ib - 1] == y) & eb.xf[ib - 1])
    fa = np.concatenate(([False], np.logical_or.accumulate(ea.wf)))
    fb = np.concatenate(([False], np.logical_or.accumulate(eb.wf)))
    return _Sweep(y, Y, d, D, yf, fa[ia] | fb[ib])


def _integral_terms(s):
    """``y_{i+1} - y_i`` and ``(F_a - F_b)(y_i)``, whose products are over
    ``Y D``; every partial sum of them stays under ``2 Y D``."""
    bound = 2 * s.Y * s.D
    y = _scaled(s.y, 1, bound)
    return y[1:] - y[:-1], _scaled(s.d[:-1], 1, bound)


def _upper_integrals(ea, eb):
    """The sweep of two views of one kind and, at each of its breakpoints
    ``y``, ``int_y^1 (F_a - F_b) dx`` over ``Y D``.

    Both CDFs are constant between breakpoints, so the integral is
    piecewise linear and its extrema lie on the breakpoints.  The sums run
    from 1 down, one breakpoint at a time.
    """
    s = _sweep(ea, eb)
    widths, diffs = _integral_terms(s)
    vals = np.zeros(len(s.y), widths.dtype)
    vals[:-1] = (widths * diffs)[::-1].cumsum()[::-1]
    return s, vals


def _is_mpc(ea, eb, tol) -> bool:
    """:func:`is_mpc` on two views of one kind.  An exact integral is
    compared with ``tol`` as a Fraction, as the Fraction code compares it."""
    s, vals = _upper_integrals(ea, eb)
    frac = None if s.df is None else True
    first, low = (_number(v, s.Y * s.D, frac) for v in (vals[0], vals.min()))
    return abs(first) <= tol and low >= -tol


def _w1(ea, eb):
    """:func:`wasserstein1` on two views of one kind."""
    s = _sweep(ea, eb)
    widths, diffs = _integral_terms(s)
    total = (widths * np.abs(diffs)).cumsum()[-1]
    frac = None if s.yf is None else (s.yf[:-1] | s.yf[1:] | s.df[:-1]).any()
    return _number(total, s.Y * s.D, frac)


def _pair(a: AtomicDist, b: AtomicDist):
    """The distributions that a pair runs on: ``a`` and ``b`` when both are
    exact or neither is, else the float copies of both, each value of the
    exact one rounded once to float."""
    if (a._view.wf is None) is (b._view.wf is None):
        return a, b
    return tuple(d if d._view.wf is None else AtomicDist._of_view(_floats(d.atoms))
                 for d in (a, b))


def _conjugate_view(dist):
    """The view of ``conjugate(dist)``, without its Python values unless
    the constructor has to build it."""
    view = _clean_conjugate(dist._view)
    return conjugate(dist)._view if view is None else view


# ---------------------------------------------------------------------------
# Conjugate, order tests and distance
# ---------------------------------------------------------------------------

def mean(dist: AtomicDist):
    """Expectation of the distribution."""
    e = dist._view
    bound = 2 * e.X * e.W
    total = (_scaled(e.x, 1, bound) * _scaled(e.w, 1, bound)).cumsum()[-1]
    frac = None if e.xf is None else e.xf.any() or e.wf.any()
    return _number(total, e.X * e.W, frac)


def support_gaps(dist: AtomicDist):
    """Nonempty support gaps of ``dist``: their indices and their atoms.

    Gap ``j`` lies between atoms ``x_j < x_{j+1}`` (``x_0 = 0``,
    ``x_{k+1} = 1``); its atom has location ``1 - C_j``, where ``C_j`` is
    the weight of the first ``j`` atoms, and weight ``x_{j+1} - x_j``.
    Returns the list of indices and the parallel list of atoms: floats for
    a float or mixed ``dist``.
    """
    keep, g = _gaps(dist._view)
    return keep[::-1].tolist(), _atoms(g)[::-1]


def conjugate(dist: AtomicDist) -> AtomicDist:
    """The distribution whose CDF is the anti-diagonal reflection of F.

    Computed combinatorially, which is exact for rational inputs: each
    support gap of ``dist`` (see :func:`support_gaps`) becomes an atom and
    each atom becomes a gap.  The conjugate has the same mean, and
    conjugating twice returns the original distribution.  On integer
    numerators the two denominators swap.
    """
    e = dist._view
    view = _clean_conjugate(e)
    if view is not None:
        return AtomicDist._of_view(view)
    return AtomicDist(_atoms(_gaps(e)[1]))


def is_mpc(a: AtomicDist, b: AtomicDist, tol=ORDER_TOL) -> bool:
    """True iff ``a`` is a mean-preserving contraction of ``b``.

    Uses the integrated-CDF characterization: the means agree (within
    ``tol``) and ``int_y^1 F_a(x) dx >= int_y^1 F_b(x) dx - tol`` for every
    y.  The integrals are piecewise linear, so the inequality is checked
    exactly at the union of the two distributions' breakpoints, which one
    O(k) sweep over the two sorted atom lists visits.  The first breakpoint
    is 0, where the integral is ``mean(b) - mean(a)``, so the same sweep
    compares the means.  An exact distribution paired with a float one is
    rounded to floats.
    """
    tol = _tol(tol)
    a, b = _pair(a, b)
    return _is_mpc(a._view, b._view, tol)


def blackwell_dominates(a: AtomicDist, b: AtomicDist, tol=ORDER_TOL) -> bool:
    """True iff a belief distribution ``a`` Blackwell dominates ``b``.

    Equivalent to ``b`` being a mean-preserving contraction of ``a``: every
    expected-utility maximizer weakly prefers the more dispersed beliefs.
    """
    return is_mpc(b, a, _tol(tol))


def wasserstein1(a: AtomicDist, b: AtomicDist):
    """Earth-mover distance ``int |F_a - F_b|``, exact for step CDFs.

    One O(k) sweep over the merged breakpoints of the two distributions.
    An exact distribution paired with a float one is rounded to floats.
    """
    a, b = _pair(a, b)
    return _w1(a._view, b._view)


def _is_mpc_of_conjugate(a: AtomicDist, b: AtomicDist, tol) -> bool:
    """``is_mpc(a, conjugate(b), tol)`` for a pair of one kind."""
    return _is_mpc(a._view, _conjugate_view(b), tol)


def _distance_to_conjugate(a: AtomicDist, b: AtomicDist):
    """``wasserstein1(a, conjugate(b))`` for a pair of one kind."""
    return _w1(a._view, _conjugate_view(b))


def dists_close(a, b, tol=ORDER_TOL) -> bool:
    """Atom-wise equality within ``tol`` (locations and weights).

    Takes two :class:`AtomicDist` or two ``SimplexDist``, whose posterior
    vectors are compared in max norm; distributions of different dimensions
    are never close.  Atoms of the two distributions are clustered together
    whenever they lie within ``tol`` of each other, directly or through a
    chain of atoms; the per-cluster weights must then agree within ``tol``.
    Robust to atom splits caused by round-off.  Two distributions of one
    type with equal atoms are close for every ``tol``.
    """
    tol = _tol(tol)
    if type(a) is type(b) and a.atoms == b.atoms:
        return True
    groups = {}  # location or posterior vector -> [weight in a, weight in b]
    for side, dist in enumerate((a, b)):
        for x, w in dist.atoms:
            pair = groups.setdefault(_vec(x), [0, 0])
            pair[side] = pair[side] + w
    vecs = sorted(groups)
    if len({len(x) for x in vecs}) > 1:
        return False
    if isinstance(vecs[0][0], Fraction):
        tol = _exact_tol(tol)
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
