"""Finite information structures and their unit-square representations.

The central object is :class:`FiniteStructure`, a dense joint probability
table over ``(state, signal_1, ..., signal_n)``.  The module computes Bayes
posteriors, tests signal independence ("private private"), perfection, and
Blackwell equivalence, and converts between tables and unit-square
representations: exact :class:`RegionSet` descriptions (axis-aligned
rectangles carrying diagonal fractional bands), and resolution-R grids
(:class:`GridSet` / :class:`GridPartition` / :class:`FuzzyGrid`).

Tables may hold floats or Fractions; rectangle and band geometry is always
exact rational arithmetic.  Rasterized areas come from one closed form per
band, the second antiderivative of its diagonal profile, evaluated on
integer numerators (notes/decisions.md, "Rasterize by a second
antiderivative").
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._num import (
    ORDER_TOL,
    POSTERIOR_MERGE_TOL,
    PROBABILITY_TOL,
    TABLE_TOL,
    WEIGHT_DROP_TOL,
    _common_denominator,
    _exact_tol,
    _float_array,
    _int_dtype,
    _is_rational,
    _product_operands,
    _tol,
    as_fraction,
)
from .beliefs import AtomicDist, dists_close
from .errors import PrivacyError, ValidationError


# ---------------------------------------------------------------------------
# Posterior-belief distributions on the simplex (m >= 3 states)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplexDist:
    """Finite-support distribution of posterior vectors on the m-simplex.

    Atoms are ``(posterior_vector, weight)`` pairs, sorted lexicographically
    by vector.  Vectors must lie on the simplex within ``PROBABILITY_TOL``
    and weights must sum to 1 within ``TABLE_TOL``.  Vectors within
    ``POSTERIOR_MERGE_TOL`` are clustered by the rule of notes/decisions.md,
    "Posterior clustering".
    """

    atoms: tuple

    def __init__(self, atoms):
        self._set_atoms(atoms)

    @classmethod
    def _of_clusters(cls, atoms):
        """The distribution of the posterior vectors that the library
        clustered.

        Drops and renormalizes as the constructor does, but merges no
        atoms: clustering the means of clusters again can merge two of them
        (notes/decisions.md, "Posterior clustering").  The posteriors lie on
        the simplex with positive weights by construction, float or exact,
        so they are not validated again.
        """
        dist = object.__new__(cls)
        dist._set_atoms(atoms, clustered=True)
        return dist

    def _set_atoms(self, atoms, clustered=False):
        pairs = [(tuple(v), w) for v, w in atoms]
        if not pairs:
            raise ValidationError("a simplex distribution needs at least one atom")
        m = len(pairs[0][0])
        tols = (TABLE_TOL, PROBABILITY_TOL, WEIGHT_DROP_TOL)
        if m and isinstance(pairs[0][0][0], Fraction):
            tols = tuple(map(_exact_tol, tols))
        table_tol, probability_tol, drop_tol = tols
        if not clustered:
            for vec, w in pairs:
                if len(vec) != m:
                    raise ValidationError("posterior vectors have mixed lengths")
                # A NaN or an infinity in vec makes its sum one too; NaN
                # would pass the sign and simplex tests below.
                total = sum(vec)
                if not (_finite(total) and _finite(w)):
                    raise ValidationError(f"field 'atoms': atom {(vec, w)} is not finite")
                if any(c < -table_tol for c in vec):
                    raise ValidationError(f"posterior {vec} has a negative entry")
                if abs(total - 1) > probability_tol:
                    raise ValidationError(f"posterior {vec} is off the simplex")
                if w < 0:
                    raise ValidationError(f"negative weight {w}")
        pairs = [(v, w) for v, w in pairs if w > drop_tol]
        if not clustered:
            merged, _ = _cluster([v for v, _ in pairs], [w for _, w in pairs])
        else:
            merged = sorted(pairs, key=lambda p: p[0])
        total = sum(w for _, w in merged)
        if abs(total - 1) > table_tol:
            raise ValidationError(f"weights sum to {total}, expected 1")
        if total != 1:
            merged = [(v, w / total) for v, w in merged]
        object.__setattr__(self, "atoms", tuple(merged))

    @property
    def m(self) -> int:
        return len(self.atoms[0][0])

    def mean_posterior(self):
        """Barycenter of the atoms; equals the prior for Bayes posteriors."""
        m = self.m
        out = [0] * m
        for vec, w in self.atoms:
            for k in range(m):
                out[k] = out[k] + vec[k] * w
        return tuple(out)


def _finite(value) -> bool:
    """False for a float NaN or infinity; ints and Fractions are finite."""
    return not isinstance(value, (float, np.floating)) or math.isfinite(value)


def _cluster(vecs, weights):
    """Cluster posterior vectors by the anchor rule.

    Vectors are visited in lexicographic order.  Each joins the earliest
    cluster whose first member (its anchor) is within
    ``POSTERIOR_MERGE_TOL`` in max norm, else it anchors a new cluster;
    only anchors whose first coordinate is that close to its own can
    qualify.  The result depends neither on the order of the inputs nor on
    their weights (notes/decisions.md, "Posterior clustering").

    Returns ``(atoms, label)``: the ``(weighted mean vector, total weight)``
    of each cluster, sorted by vector, and the atom index of each input.
    """
    tol = POSTERIOR_MERGE_TOL
    if vecs and isinstance(vecs[0][0], Fraction):
        tol = _exact_tol(tol)
    anchors, members = [], []
    for i in sorted(range(len(vecs)), key=vecs.__getitem__):
        x = vecs[i]
        lo = x[0] - tol
        home = k = len(anchors)
        while k and anchors[k - 1][0] >= lo:
            k -= 1
            if all(abs(a - b) <= tol for a, b in zip(anchors[k], x)):
                home = k
        if home == len(anchors):
            anchors.append(x)
            members.append([])
        members[home].append(i)
    atoms = [_mean(vecs, weights, group) for group in members]
    # Anchors come in lexicographic order; a merged mean may not.
    if len(atoms) < len(vecs):
        order = sorted(range(len(atoms)), key=lambda k: atoms[k][0])
        atoms = [atoms[k] for k in order]
        members = [members[k] for k in order]
    label = [0] * len(vecs)
    for rank, group in enumerate(members):
        for i in group:
            label[i] = rank
    return atoms, label


def _mean(vecs, weights, group):
    """(Weighted mean vector, total weight) of the vectors in ``group``."""
    if len(group) == 1:
        return vecs[group[0]], weights[group[0]]
    total = sum(weights[i] for i in group)
    mean = tuple(
        sum(vecs[i][c] * weights[i] for i in group) / total
        for c in range(len(vecs[group[0]]))
    )
    return mean, total


# ---------------------------------------------------------------------------
# FiniteStructure
# ---------------------------------------------------------------------------

def _entry_index(entries, sizes):
    """The index arrays ``(states, *signals)`` of ``entries`` for
    ``np.add.at``, checked against ``sizes`` with one NumPy pass per field."""
    states = [e[0] for e in entries]
    signals = [e[1] for e in entries]
    try:
        widths = set(map(len, signals))
    except TypeError:
        raise ValidationError("field 'signals': expected a list of indices per entry") from None
    if widths - {len(sizes) - 1}:
        raise ValidationError(f"field 'signals': expected {len(sizes) - 1} indices per entry")
    flat = list(itertools.chain.from_iterable(signals))
    columns = []
    for field, values, bound in (("state", states, sizes[:1]), ("signals", flat, sizes[1:])):
        kinds = set(map(type, values))
        if not all(issubclass(t, (int, np.integer)) and t is not bool for t in kinds):
            raise ValidationError(f"field '{field}': expected integer indices")
        # int64, or Python ints in an object array when some are too large.
        index = np.array(values, dtype=None if values else int).reshape(len(entries), len(bound))
        if ((index < 0) | (index >= np.array(bound))).any():
            raise ValidationError(f"field '{field}': expected indices below {list(bound)}")
        columns.extend(index.T)
    return tuple(columns)


@dataclass(frozen=True)
class FiniteStructure:
    """Joint probability table over (state, signal_1, ..., signal_n).

    ``pmf[k, v_1, ..., v_n]`` is the probability that the state equals ``k``
    and each agent ``i`` observes signal value ``v_i``.  Entries are
    nonnegative and sum to 1 within 1e-12; every state must have positive
    marginal probability (common full-support prior).  The table is frozen
    after construction.  An object array whose entries are all ints and
    Fractions is exact, and its ``pmf`` holds Fractions; any other table,
    numeric arrays included, is converted to float64.

    An exact table is kept as integer numerators over one common
    denominator (notes/decisions.md, "Exact tables on one common
    denominator"); its ``pmf`` is built from them at construction, one
    Fraction per distinct numerator.
    """

    pmf: np.ndarray

    def __init__(self, pmf):
        arr = np.asarray(pmf)
        if arr.dtype == object and _is_rational(arr):
            self._set(*_common_denominator(arr))
        else:
            self._set(_float_array(arr, "pmf"), None)

    @classmethod
    def _of(cls, num, den):
        """The structure of numerators ``num`` over ``den``; floats when ``den`` is None."""
        s = object.__new__(cls)
        s._set(num, den)
        return s

    def _set(self, num, den):
        if num.ndim < 2:
            raise ValidationError("pmf needs a state axis and at least one signal axis")
        if num.size and not num.min() >= 0:
            raise ValidationError("field 'pmf': entries must be finite and nonnegative")
        if den is None:
            num = np.ascontiguousarray(num, dtype=float)
            total = num.sum()
        else:
            # An int64 total wraps only if the entries could add up past 2**63.
            if num.dtype != object and num.size * int(num.max(initial=0)) >= 2**63:
                num = num.astype(object)
            total = Fraction(int(num.sum()), den)
        if abs(total - 1) > TABLE_TOL:
            raise ValidationError(
                f"field 'pmf': entries must be finite and sum to 1, got {total}"
            )
        if not (num.reshape(num.shape[0], -1).sum(axis=1) > 0).all():
            raise ValidationError("every state needs positive prior probability")
        if den is None:
            pmf = num
        else:
            g = math.gcd(den, int(np.gcd.reduce(num, axis=None)))
            # Entries and partial sums stay below the total, under 2 * den.
            num = np.ascontiguousarray(num // g, dtype=_int_dtype(2 * den // g))
            den //= g
            pmf = _fractions(num, den)
            pmf.setflags(write=False)
        num.setflags(write=False)
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def from_entries(cls, m, alphabet_sizes, entries, exact=False):
        """Build from a sparse list of ``(state, signals, p)`` entries.

        The state and every signal must be an int (not a bool) in
        ``[0, m)`` and ``[0, alphabet_size)``; entries at the same cell add.
        """
        values = [as_fraction(p) if exact else float(p) for _, _, p in entries]
        den = None
        if exact:
            values, den = _common_denominator(values)
            values = values.tolist()
        sizes = (m, *alphabet_sizes)
        index = _entry_index(entries, sizes)
        dtype = _int_dtype(sum(map(abs, values))) if exact else float
        arr = np.zeros(sizes, dtype=dtype)
        np.add.at(arr, index, np.array(values, dtype=dtype))
        return cls._of(arr, den)

    @property
    def m(self) -> int:
        return self._num.shape[0]

    @property
    def n(self) -> int:
        return self._num.ndim - 1

    @property
    def alphabet_sizes(self) -> tuple:
        return self._num.shape[1:]

    @property
    def exact(self) -> bool:
        return self._den is not None

    def _values(self, num):
        """The probabilities that numerators ``num`` stand for, as a list."""
        if self._den is None:
            return num.tolist()
        return [Fraction(v, self._den) for v in num.tolist()]

    @property
    def prior(self) -> tuple:
        return tuple(self._values(self._num.reshape(self.m, -1).sum(axis=1)))

    def signal_marginal(self, agent: int) -> tuple:
        """Unconditional distribution of agent ``agent``'s signal value."""
        agent = _agent(self, agent)
        axes = tuple(ax for ax in range(self._num.ndim) if ax != 1 + agent)
        return tuple(self._values(self._num.sum(axis=axes)))


def _fractions(num, den):
    """The Fractions of nonnegative numerators ``num`` over ``den`` as an
    object array: one Fraction per distinct nonzero numerator, shared by
    its cells, and one zero shared by the zero cells.

    Each cell indexes a table that holds the zero, then the distinct
    numerators in ascending order.  Numerators below four times the cell
    count find their index in a table of all values up to the largest; any
    others sort the nonzero numerators and search them.
    """
    flat = num.ravel()
    top = int(flat.max())
    if num.dtype != object and top < 4 * flat.size:
        seen = np.zeros(top + 1, dtype=bool)
        seen[flat] = True
        seen[0] = False
        distinct = np.flatnonzero(seen)
        index = np.cumsum(seen)[flat]
    else:
        nonzero = np.flatnonzero(flat)
        values = flat[nonzero]
        distinct = np.sort(values)
        distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
        index = np.zeros(flat.size, dtype=np.intp)
        index[nonzero] = np.searchsorted(distinct, values) + 1
    # Assigning a list to an object array would look into each Fraction
    # for a sequence first; np.fromiter takes the entries as they are.
    table = np.fromiter([Fraction(0), *(Fraction(v, den) for v in distinct.tolist())],
                        dtype=object)
    return table[index].reshape(num.shape)


def _agent(s: FiniteStructure, agent) -> int:
    """``agent`` as an int when it names one of the agents of ``s``.

    A bool, a negative index or one past the last agent would otherwise
    select another axis of the table, or the state axis, silently.
    """
    if isinstance(agent, bool) or not isinstance(agent, (int, np.integer)) \
            or not 0 <= agent < s.n:
        raise ValidationError(f"field 'agent': expected an int in [0, {s.n}), got {agent!r}")
    return int(agent)


def _group_rows(rows):
    """Index of the first row of each group of equal rows, and each row's group.

    One stable sort; rows compare by value, as tuples of their entries do.
    """
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group_of = np.empty(len(order), dtype=np.intp)
    group_of[order] = np.cumsum(new) - 1
    return order[new], group_of


def _separated_order(rows, exact):
    """The indices of ``rows`` in the lexicographic order of their
    posteriors when no two lie within ``POSTERIOR_MERGE_TOL``, else None.

    ``rows`` are the distinct rows of :func:`_group_rows`, in its order:
    float posteriors, or gcd-reduced integer columns whose posterior is the
    row over its sum.  A None leaves the decision to :func:`_cluster`
    (notes/decisions.md, "When nothing can merge").
    """
    if exact:
        sums = rows.sum(axis=1)
        # Two distinct posteriors c / s differ by 1 / s**2 or more somewhere.
        if int(sums.max()) ** 2 * _exact_tol(POSTERIOR_MERGE_TOL) >= 1:
            return None
        # Rows and sums are below 10**5, so the quotients sort exactly.
        quotients = rows.astype(np.int64) / sums.astype(np.int64)[:, None]
        return np.lexsort(quotients.T[::-1])
    # In lexicographic order, any two rows differ at least as much as some
    # step between them does where they first differ.
    steps = np.diff(rows, axis=0)
    first = (steps != 0).argmax(axis=1)
    if not (steps[np.arange(len(steps)), first] > POSTERIOR_MERGE_TOL).all():
        return None
    return np.arange(len(rows))


def _posteriors(joint, den=None):
    """Clustered Bayes posteriors of a ``(states, values)`` joint table.

    ``joint`` holds floats, or integer numerators over ``den``.  The one
    place where signal values are grouped by the posterior they induce.
    Exact-duplicate posterior vectors are grouped first, in one sort: an
    integer column's posterior is its gcd-reduced column up to scale, so a
    Fraction is built once per distinct posterior.  Group weights are
    summed in column order.  The groups are then clustered by
    :func:`_cluster`, unless :func:`_separated_order` shows that it would
    merge none of them.  Returns ``(atoms, value_map)``: the ``(posterior
    vector, weight)`` atoms sorted by vector, and an integer array giving
    each value's atom index, or -1 for values of probability zero.
    """
    probs = joint.sum(axis=0)
    live = np.flatnonzero(probs > 0)
    cols, weights = joint[:, live].T, probs[live]
    if den is None:
        cols = cols / weights[:, None]
    else:
        cols = cols // np.gcd.reduce(cols, axis=1)[:, None]
    first, group_of = _group_rows(cols)
    totals = np.zeros(len(first), dtype=weights.dtype)
    np.add.at(totals, group_of, weights)
    rows = cols[first]
    if den is None:
        vecs = [tuple(v) for v in rows.tolist()]
        totals = totals.tolist()
    else:
        vecs = [tuple(Fraction(c, sum(v)) for c in v) for v in rows.tolist()]
        totals = [Fraction(w, den) for w in totals.tolist()]
    order = _separated_order(rows, den is not None)
    if order is None:
        atoms, label = _cluster(vecs, totals)
        label = np.asarray(label, dtype=int)
    else:
        atoms = [(vecs[i], totals[i]) for i in order.tolist()]
        label = np.argsort(order)
    value_map = np.full(joint.shape[1], -1)
    value_map[live] = label[group_of]
    return atoms, value_map


def _agent_joint(s: FiniteStructure, agent: int):
    """The ``(states, values)`` joint numerators of one agent's signal."""
    agent = _agent(s, agent)
    axes = tuple(ax for ax in range(1, s._num.ndim) if ax != 1 + agent)
    return s._num.sum(axis=axes) if axes else s._num


def _belief_dist(atoms):
    """The belief distribution of the posteriors :func:`_posteriors`
    built, valid by construction: neither clustered nor validated again."""
    if len(atoms[0][0]) == 2:
        return AtomicDist._of_clusters([(vec[1], w) for vec, w in atoms])
    return SimplexDist._of_clusters(atoms)


def posterior_dist(s: FiniteStructure, agent: int):
    """Distribution of the Bayes posterior induced by one agent's signal.

    Signal values with zero probability are skipped; values whose posteriors
    agree within ``POSTERIOR_MERGE_TOL`` are aggregated into a single belief
    atom (notes/decisions.md, "Posterior clustering").  Returns an
    :class:`~privsig.beliefs.AtomicDist` over P(state = 1 | signal) when the
    state is binary, and a :class:`SimplexDist` otherwise.
    """
    return _belief_dist(_posteriors(_agent_joint(s, agent), s._den)[0])


def joint_posterior_dist(s: FiniteStructure):
    """Posterior distribution when the whole signal profile is observed."""
    return _belief_dist(_posteriors(s._num.reshape(s.m, -1), s._den)[0])


def is_private_private(s: FiniteStructure, tol=ORDER_TOL) -> bool:
    """True iff the signals are mutually independent random variables.

    Checks that the joint signal marginal (state summed out) factors as the
    product of the per-agent signal marginals, within ``tol`` in total
    variation.  An exact table compares ``joint * D**(n-1)`` with the
    product of the marginal numerators, both over ``D**n``.
    """
    tol = _tol(tol)
    num, den = s._num, s._den
    scale = 1
    if den is not None:
        scale = den ** (s.n - 1)
        # Both sides stay within den**n, and so does half the TV sum.
        num = num.astype(_int_dtype(2 * den ** s.n), copy=False)
    joint = num.sum(axis=0)
    prod = np.ones((), dtype=joint.dtype)
    for agent in range(s.n):
        axes = tuple(ax for ax in range(num.ndim) if ax != 1 + agent)
        shape = [1] * s.n
        shape[agent] = -1
        prod = prod * num.sum(axis=axes).reshape(shape)
    diff = (joint * scale - prod).ravel()
    if den is None:
        # A running sum adds in order, as Python's sum of floats did up to
        # 3.11; np.sum adds pairwise, with other round-off.
        tv = float(np.cumsum(np.abs(diff))[-1]) / 2
    else:
        tv = Fraction(int(np.abs(diff).sum()), 2 * scale * den)
    return tv <= tol


def require_private_private(s: FiniteStructure, tol=ORDER_TOL):
    if not is_private_private(s, _tol(tol)):
        raise PrivacyError("signals are not mutually independent")


def is_perfect(s: FiniteStructure) -> bool:
    """True iff every positive-probability signal profile pins down the state."""
    positive = s._num.reshape(s.m, -1) > 0
    return bool((positive.sum(axis=0) <= 1).all())


def equivalent(a: FiniteStructure, b: FiniteStructure, tol=ORDER_TOL) -> bool:
    """Blackwell equivalence: identical per-agent posterior distributions."""
    tol = _tol(tol)
    if a.m != b.m or a.n != b.n:
        raise ValidationError("structures must share state and agent counts")
    return all(
        dists_close(posterior_dist(a, agent), posterior_dist(b, agent), tol)
        for agent in range(a.n)
    )


def direct_revelation(s: FiniteStructure) -> FiniteStructure:
    """Relabel every signal value by the posterior it induces.

    Values are grouped by the posterior clusters of :func:`posterior_dist`
    (so alphabets can only shrink); zero-probability values are dropped.
    The result is
    equivalent to the input, and its k-th signal value induces the k-th
    smallest posterior vector (notes/decisions.md, "Posterior clustering").
    """
    out = s._num
    for agent in range(s.n):
        _, value_map = _posteriors(_agent_joint(s, agent), s._den)
        order = np.argsort(value_map, kind="stable")
        order = order[value_map[order] >= 0]
        starts = np.flatnonzero(np.diff(value_map[order], prepend=-1))
        grouped = np.take(out, order, axis=1 + agent)
        out = np.add.reduceat(grouped, starts, axis=1 + agent)
    return FiniteStructure._of(out, s._den)


def garble(s: FiniteStructure, agent: int, kernel) -> FiniteStructure:
    """Post-process one agent's signal through a stochastic kernel.

    ``kernel[v_old, v_new]`` is a row-stochastic matrix applied independently
    of the state and of the other signals, so privacy and the other agents'
    posteriors are untouched while agent ``agent`` is Blackwell-weakened.
    The result is exact when the table is exact and the kernel is an
    object array of ints and Fractions; otherwise it is a float table.
    """
    agent = _agent(s, agent)
    kern = np.asarray(kernel)
    exact = s.exact and kern.dtype == object and _is_rational(kern)
    if exact:
        table, kern, den = _product_operands(s._num, s._den, kern)
        kden = den // s._den
    else:
        table, kern, den = np.asarray(s.pmf, dtype=float), _float_array(kern, "kernel"), None
    if kern.ndim != 2 or kern.shape[0] != s.alphabet_sizes[agent]:
        raise ValidationError("field 'kernel': shape does not match the agent's alphabet")
    for row in kern.tolist():
        total = Fraction(sum(row), kden) if exact else sum(row)
        if any(v < 0 for v in row) or abs(total - 1) > PROBABILITY_TOL:
            raise ValidationError("field 'kernel': rows must be probability vectors")
    new = np.dot(np.moveaxis(table, 1 + agent, -1), kern)
    return FiniteStructure._of(np.moveaxis(new, -1, 1 + agent), den)


# ---------------------------------------------------------------------------
# Secret splitting on the circle
# ---------------------------------------------------------------------------

def split_secret(t, u):
    """Split ``t`` in [0, 1) into two independent uniform shares.

    ``u`` is the exogenous uniform draw used as the first share; the second
    share is ``frac(u + t)``.  Each share alone is uniform and independent of
    ``t``; together they reconstruct it via :func:`reconstruct_secret`.
    """
    if not (0 <= t < 1) or not (0 <= u < 1):
        raise ValidationError("secret and draw must lie in [0, 1)")
    return u, (u + t) % 1


def reconstruct_secret(r1, r2):
    """Recover the secret from its two shares: ``frac(r2 - r1)``."""
    if not (0 <= r1 < 1) or not (0 <= r2 < 1):
        raise ValidationError("shares must lie in [0, 1)")
    return (r2 - r1) % 1


# ---------------------------------------------------------------------------
# Exact region representation: rectangles with diagonal fractional bands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Band:
    """One rectangle of [0,1]^2 carrying a diagonal fractional band.

    A point ``(x1, x2)`` of the rectangle belongs to the region iff
    ``frac(x1' + x2')`` lies in the band set Y, where ``(x1', x2')`` are the
    rectangle-normalized coordinates.  Because ``frac`` is translation
    invariant, every axis-parallel cross-section of the band has measure
    ``|Y|``.  All endpoints are exact rationals.
    """

    rect: tuple       # ((a1, b1), (a2, b2))
    y_set: tuple      # disjoint intervals ((lo, hi), ...), within [0, 1]

    def __init__(self, rect, y_set):
        (a1, b1), (a2, b2) = rect
        a1, b1, a2, b2 = (as_fraction(v) for v in (a1, b1, a2, b2))
        if not (0 <= a1 < b1 <= 1) or not (0 <= a2 < b2 <= 1):
            raise ValidationError(f"degenerate or out-of-range rectangle {rect}")
        ys = tuple((as_fraction(lo), as_fraction(hi)) for lo, hi in y_set)
        prev_hi = Fraction(0)
        for lo, hi in ys:
            if not (0 <= lo <= hi <= 1):
                raise ValidationError(f"band interval ({lo}, {hi}) outside [0, 1]")
            if lo < prev_hi:
                raise ValidationError("band intervals must be disjoint and sorted")
            prev_hi = hi
        object.__setattr__(self, "rect", ((a1, b1), (a2, b2)))
        object.__setattr__(self, "y_set", ys)

    @property
    def y_measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.y_set), Fraction(0))

    @property
    def rect_area(self) -> Fraction:
        (a1, b1), (a2, b2) = self.rect
        return (b1 - a1) * (b2 - a2)


@dataclass(frozen=True)
class RegionSet:
    """A subset of [0,1]^2 as a disjoint union of banded rectangles."""

    bands: tuple

    def __init__(self, bands):
        bands = tuple(bands)
        for band in bands:
            if not isinstance(band, Band):
                raise ValidationError("RegionSet takes Band records")
        for i in range(len(bands)):
            for j in range(i + 1, len(bands)):
                if _rects_overlap(bands[i].rect, bands[j].rect):
                    raise ValidationError("band rectangles overlap beyond boundaries")
        object.__setattr__(self, "bands", bands)

    @property
    def measure(self) -> Fraction:
        return sum((b.y_measure * b.rect_area for b in self.bands), Fraction(0))


def _rects_overlap(r, s):
    (ra1, rb1), (ra2, rb2) = r
    (sa1, sb1), (sa2, sb2) = s
    return (min(rb1, sb1) > max(ra1, sa1)) and (min(rb2, sb2) > max(ra2, sa2))


def build_uninformative_set(p, y_set) -> RegionSet:
    """The banded square whose every axis projection is constantly ``p``.

    ``y_set`` must be a union of rational intervals with total length exactly
    ``p``; the region is ``{(x1, x2) : frac(x1 + x2) in Y}``.
    """
    p = as_fraction(p)
    band = Band(((0, 1), (0, 1)), y_set)
    if band.y_measure != p:
        raise ValidationError(
            f"band set has measure {band.y_measure}, expected exactly {p}"
        )
    return RegionSet((band,))


def build_associated_set(s: FiniteStructure) -> RegionSet:
    """Unit-square representation of a binary-state two-agent structure.

    Partitions each axis into intervals whose lengths are the signal-value
    probabilities and fills rectangle ``(v1, v2)`` with a diagonal band of
    measure ``P(state = 1 | v1, v2)``.  Every vertical line through rectangle
    column ``v1`` then cuts the region in measure ``P(state = 1 | v1)`` (and
    symmetrically for rows), so the associated grid structure is equivalent
    to ``s``.  Requires mutually independent signals: the pasting argument
    needs the product form of the signal marginal.
    """
    if s.m != 2 or s.n != 2:
        raise ValidationError("the set representation needs m = 2 states, n = 2 agents")
    require_private_private(s)
    marg1 = [as_fraction(v) for v in s.signal_marginal(0)]
    marg2 = [as_fraction(v) for v in s.signal_marginal(1)]
    edges1 = _cum_edges(marg1)
    edges2 = _cum_edges(marg2)
    # P(state = 1 | v1, v2) is a ratio of numerators, whatever their scale.
    joint1 = s._num[1].tolist()
    joint = s._num.sum(axis=0).tolist()
    bands = []
    for v1 in range(len(marg1)):
        if marg1[v1] == 0:
            continue
        for v2 in range(len(marg2)):
            if marg2[v2] == 0:
                continue
            p12 = as_fraction(joint[v1][v2])
            if p12 == 0:
                continue
            q = as_fraction(joint1[v1][v2]) / p12
            q = min(max(q, Fraction(0)), Fraction(1))
            if q == 0:
                continue
            rect = ((edges1[v1], edges1[v1 + 1]), (edges2[v2], edges2[v2 + 1]))
            bands.append(Band(rect, ((Fraction(0), q),)))
    return RegionSet(tuple(bands))


def _cum_edges(weights):
    edges = [Fraction(0)]
    for w in weights:
        edges.append(edges[-1] + w)
    if edges[-1] != 1:
        # Tolerate float-derived totals that are off by < 1e-12.
        if abs(edges[-1] - 1) > TABLE_TOL:
            raise ValidationError("marginal does not sum to 1")
        edges[-1] = Fraction(1)
    return edges


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def _check_grid_cells(cells, n_allowed=(2, 3)):
    if cells.ndim not in n_allowed:
        raise ValidationError(f"grids support n in {n_allowed}, got {cells.ndim}")
    if len(set(cells.shape)) != 1:
        raise ValidationError("grid must have the same resolution on every axis")


@dataclass(frozen=True)
class GridSet:
    """Resolution-R binary subset of [0,1]^n (n in {2, 3})."""

    cells: np.ndarray

    def __init__(self, cells):
        arr = np.asarray(cells).astype(bool).copy()
        _check_grid_cells(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

    @property
    def n(self) -> int:
        return self.cells.ndim

    @property
    def resolution(self) -> int:
        return self.cells.shape[0]


@dataclass(frozen=True)
class GridPartition:
    """Resolution-R labeling of [0,1]^n cells by states 0..m-1."""

    cells: np.ndarray

    def __init__(self, cells):
        arr = np.asarray(cells)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValidationError("partition cells must be integer state labels")
        arr = arr.astype(np.int64).copy()
        _check_grid_cells(arr)
        if arr.min() < 0:
            raise ValidationError("state labels must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

    @property
    def n(self) -> int:
        return self.cells.ndim

    @property
    def resolution(self) -> int:
        return self.cells.shape[0]

    @property
    def m(self) -> int:
        return int(self.cells.max()) + 1

    def state_set(self, state: int) -> GridSet:
        """The binary grid of cells carrying one label."""
        return GridSet(self.cells == state)


def _exact_cells_invalid(flat):
    """For each cell vector of ints and Fractions in ``flat``: whether an
    entry is below ``-TABLE_TOL``, and whether the total misses 1 by more
    than ``PROBABILITY_TOL``.

    Both tests read integer numerators over one common denominator ``D``,
    with each tolerance taken exactly, as comparing a Fraction with a float
    does: a numerator ``v`` passes iff ``v >= -floor(TABLE_TOL * D)``, a
    total ``t`` iff ``|t - D| <= floor(PROBABILITY_TOL * D)``.
    """
    num, den = _common_denominator(flat)
    # Row totals and their distance to den stay below this bound.
    bound = (flat.shape[-1] + 1) * max(den, int(abs(num).max(initial=0)))
    num = num.astype(_int_dtype(bound), copy=False)
    table_tol = math.floor(_exact_tol(TABLE_TOL) * den)
    probability_tol = math.floor(_exact_tol(PROBABILITY_TOL) * den)
    return (num < -table_tol).any(axis=1), abs(num.sum(axis=1) - den) > probability_tol


@dataclass(frozen=True)
class FuzzyGrid:
    """Resolution-R grid whose cells hold probability vectors over states.

    Entries may fall below 0 by ``TABLE_TOL`` and a cell's total may miss 1
    by ``PROBABILITY_TOL``.  A grid of ints and Fractions is checked on its
    integer numerators over one common denominator, with the same verdicts
    as comparing each value with the float tolerances.
    """

    cells: np.ndarray

    def __init__(self, cells):
        arr = np.asarray(cells)
        if arr.dtype != object:
            arr = arr.astype(float)
        arr = arr.copy()
        if arr.ndim not in (3, 4):
            raise ValidationError("fuzzy grids support n in {2, 3}")
        if len(set(arr.shape[:-1])) != 1:
            raise ValidationError("grid must have the same resolution on every axis")
        flat = arr.reshape(-1, arr.shape[-1])
        if arr.dtype == object and _is_rational(flat):
            negative, off = _exact_cells_invalid(flat)
        else:
            rows = flat.tolist()
            # NaN fails every comparison; +inf passes this one but not the sum.
            negative = [not all(v >= -TABLE_TOL for v in row) for row in rows]
            off = [abs(sum(row) - 1) > PROBABILITY_TOL for row in rows]
        bad = np.logical_or(negative, off)
        if bad.any():
            # The first bad cell names the fault, its sign test first.
            if negative[int(np.argmax(bad))]:
                raise ValidationError("field 'cells': values must be finite and nonnegative")
            raise ValidationError("field 'cells': vectors must be finite and sum to 1")
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

    @property
    def n(self) -> int:
        return self.cells.ndim - 1

    @property
    def resolution(self) -> int:
        return self.cells.shape[0]

    @property
    def m(self) -> int:
        return self.cells.shape[-1]


def grid_projections(grid, axis: int, state=None):
    """Axis projection of a grid object: R slice averages in [0, 1].

    Entry ``j`` is the average over the slice ``x_axis in cell j`` of the
    cell indicator (GridSet), the state-``state`` indicator (GridPartition),
    or the state-``state`` fuzzy value (FuzzyGrid).  In the structure
    associated with the grid this is exactly the posterior of agent ``axis``
    at signals in cell ``j``.  Counting grids and fuzzy grids of ints and
    Fractions return Fractions; float fuzzy grids return floats.
    """
    if isinstance(grid, GridSet):
        if state is not None:
            raise ValidationError("a binary grid set has no state argument")
        values = grid.cells.astype(np.int64)
    elif isinstance(grid, GridPartition):
        if state is None:
            raise ValidationError("partition projections need a state label")
        values = (grid.cells == state).astype(np.int64)
    elif isinstance(grid, FuzzyGrid):
        if state is None:
            raise ValidationError("fuzzy projections need a state label")
        values = grid.cells[..., state]
    else:
        raise ValidationError(f"unsupported grid type {type(grid).__name__}")
    n = values.ndim
    if not (0 <= axis < n):
        raise ValidationError(f"axis {axis} out of range")
    other = tuple(ax for ax in range(n) if ax != axis)
    sums = values.sum(axis=other)
    denom = grid.resolution ** (n - 1)
    if values.dtype == object:
        if _is_rational(values):
            return [Fraction(v, denom) for v in sums.tolist()]
        return [v / denom for v in sums.tolist()]
    if np.issubdtype(values.dtype, np.integer):
        return [Fraction(int(v), denom) for v in sums.tolist()]
    return [float(v) / denom for v in sums.tolist()]


def structure_from_grid(grid, exact=False) -> FiniteStructure:
    """Information structure associated with a grid of [0,1]^n.

    Signals are uniform on the R cells of each axis (product marginal, so the
    result is private private by construction); the state is the cell label
    (deterministic, hence perfect, for GridSet/GridPartition) or drawn from
    the cell vector (FuzzyGrid).  States that never occur are dropped, so the
    prior always has full support.
    """
    if isinstance(grid, GridSet):
        labels = grid.cells.astype(np.int64)
        vectors = None
    elif isinstance(grid, GridPartition):
        labels = grid.cells
        vectors = None
    elif isinstance(grid, FuzzyGrid):
        labels = None
        vectors = grid.cells
    else:
        raise ValidationError(f"unsupported grid type {type(grid).__name__}")

    n_cells = grid.resolution ** grid.n
    if labels is not None:
        occupied = sorted(set(labels.ravel().tolist()))
        cells = np.stack([labels == lab for lab in occupied])
        if exact:
            return FiniteStructure._of(cells.astype(np.int64), n_cells)
        return FiniteStructure._of(cells * (1.0 / n_cells), None)

    pmf = np.moveaxis(vectors, -1, 0)
    if exact or vectors.dtype == object:
        pmf = np.vectorize(as_fraction, otypes=[object])(pmf)
        pmf, den = _common_denominator(pmf)
        den *= n_cells
    else:
        pmf, den = pmf / n_cells, None
    keep = pmf.reshape(len(pmf), -1).sum(axis=1) > 0
    return FiniteStructure._of(pmf[keep], den)


# ---------------------------------------------------------------------------
# Exact rasterization of banded regions
# ---------------------------------------------------------------------------

def _band_window_areas(band: Band, u_edges, v_edges):
    """Areas of ``band`` in the windows between consecutive edges.

    ``u_edges`` and ``v_edges`` are increasing Fractions within the band's
    rectangle.  Returns ``(areas, scale)``: the window between ``u_edges[t]``,
    ``u_edges[t + 1]`` and ``v_edges[k]``, ``v_edges[k + 1]`` holds area
    ``areas[t, k] * scale``, with ``areas`` integers.

    In the rectangle's normalized coordinates the band is where ``g(x + y)``
    is 1, ``g`` the indicator of ``Y`` and ``Y + 1`` on [0, 2].  With ``G2``
    the second antiderivative of ``g`` from 0, the area in the window
    [p0,p1]x[q0,q1] is ``G2(p1+q1) - G2(p0+q1) - G2(p1+q0) + G2(p0+q0)``
    times the rectangle's area.  ``G2`` is piecewise quadratic, so on edges
    and ends of ``Y`` over one common denominator ``N`` it takes integer
    values over ``2 N**2``, one per lattice sum (notes/decisions.md,
    "Rasterize by a second antiderivative").
    """
    (a1, b1), (a2, b2) = band.rect
    w1, w2 = b1 - a1, b2 - a2
    p = [(u - a1) / w1 for u in u_edges]
    q = [(v - a2) / w2 for v in v_edges]
    ends = [e + shift for lo, hi in band.y_set if lo < hi
            for shift in (0, 1) for e in (lo, hi)]
    num, n = _common_denominator(p + q + ends)
    # Lattice sums are at most 2N; G2 and its four-term differences stay
    # below 8 N**2 in magnitude.
    num = num.astype(_int_dtype(8 * n * n), copy=False)
    h = len(p)
    sums = num[:h, None] + num[None, h:h + len(q)]
    g2 = np.zeros_like(sums)
    for c, d in num[h + len(q):].reshape(-1, 2).tolist():
        inside = np.minimum(np.maximum(sums, c), d) - c
        g2 += inside * inside + 2 * (d - c) * np.maximum(sums - d, 0)
    areas = g2[1:, 1:] - g2[:-1, 1:] - g2[1:, :-1] + g2[:-1, :-1]
    return areas, w1 * w2 / (2 * n * n)


def region_area_in_window(region: RegionSet, u0, u1, v0, v1) -> Fraction:
    """Exact area of the region inside an axis-aligned window.

    A window that is inverted or misses the region has area 0.
    """
    u0, u1, v0, v1 = (as_fraction(v) for v in (u0, u1, v0, v1))
    area = Fraction(0)
    for band in region.bands:
        (a1, b1), (a2, b2) = band.rect
        lo1, hi1 = max(u0, a1), min(u1, b1)
        lo2, hi2 = max(v0, a2), min(v1, b2)
        if lo1 < hi1 and lo2 < hi2:
            areas, scale = _band_window_areas(band, [lo1, hi1], [lo2, hi2])
            area += int(areas[0, 0]) * scale
    return area


def rasterize(region: RegionSet, resolution: int) -> FuzzyGrid:
    """Exact resolution-R fuzzy grid of a banded region (binary state).

    Each cell holds the exact area fraction of the region within the cell,
    as a Fraction; the state-1 mass of the grid equals the region measure
    exactly.  Each band evaluates its second antiderivative once per
    corner of the cells it meets (:func:`_band_window_areas`); the cells of
    all bands add up as integers over one common denominator, and each
    distinct cell value becomes one Fraction at the end.
    """
    if (isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer))
            or resolution < 1):
        raise ValidationError(
            f"field 'resolution': must be a positive integer, got {resolution!r}"
        )
    r = int(resolution)
    parts = []
    for band in region.bands:
        (a1, b1), (a2, b2) = band.rect
        i_lo, i_hi = math.floor(a1 * r), math.ceil(b1 * r)
        j_lo, j_hi = math.floor(a2 * r), math.ceil(b2 * r)
        u = [a1, *(Fraction(i, r) for i in range(i_lo + 1, i_hi)), b1]
        v = [a2, *(Fraction(j, r) for j in range(j_lo + 1, j_hi)), b2]
        areas, scale = _band_window_areas(band, u, v)
        parts.append((i_lo, j_lo, areas, scale * r * r))
    den = math.lcm(*(scale.denominator for *_, scale in parts))
    factors = [scale.numerator * (den // scale.denominator) for *_, scale in parts]
    # A band fills at most a whole cell and the bands are disjoint, so every
    # product and sum of numerators is at most den.
    dtype = _int_dtype(max([den, *factors]))
    if any(areas.dtype == object for _, _, areas, _ in parts):
        dtype = object
    total = np.zeros((r, r), dtype=dtype)
    for (i_lo, j_lo, areas, _), factor in zip(parts, factors):
        h, k = areas.shape
        total[i_lo:i_lo + h, j_lo:j_lo + k] += areas.astype(dtype, copy=False) * factor
    return FuzzyGrid(np.stack((_fractions(den - total, den), _fractions(total, den)), axis=-1))
