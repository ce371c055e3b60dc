"""Small numeric helpers shared by the value types.

Quantities in this package are plain Python numbers: ``float`` for the
approximate path and :class:`fractions.Fraction` for the exact path.  All
algorithms are written polymorphically, so a structure built from Fractions
stays exact end to end.

Every float tolerance of the package is defined once, in the table below.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ValidationError

# ---------------------------------------------------------------------------
# Tolerances
# ---------------------------------------------------------------------------

#: Default of order and equality tests: integrated CDFs (mean-preserving
#: contraction, Blackwell order, feasibility), closeness of distributions,
#: independence of signals and Blackwell equivalence of structures.
ORDER_TOL = 1e-9
#: Belief locations on [0, 1] closer than this are one atom of an AtomicDist.
MERGE_TOL = 1e-12
#: Atom weights at or below this are dropped when a distribution is built.
WEIGHT_DROP_TOL = 1e-15
#: Posterior vectors within this in max norm are one belief atom; see
#: notes/decisions.md, "Posterior clustering".
POSTERIOR_MERGE_TOL = 1e-10
#: Round-off allowed in a probability table or weight vector: its total may
#: miss 1, and an entry may fall below 0, by this much.
TABLE_TOL = 1e-12
#: A probability vector (a posterior, a prior, a kernel row, a cell vector)
#: may miss total mass 1 by this much.
PROBABILITY_TOL = 1e-9
#: Information-bound slack below this is a violation, not round-off.
SLACK_TOL = -1e-9
#: LP optima within this of the indicator value count as equal.
LP_TOL = 1e-7


def _zeros(shape, exact):
    """A table of zeros: Fraction objects when ``exact``, floats otherwise."""
    if exact:
        return np.full(shape, Fraction(0), dtype=object)
    return np.zeros(shape)


def _table_sum(table, axis=None):
    """``table.sum(axis)``, adding a table of Fractions on one denominator.

    The numerators are scaled to the least common multiple of the
    denominators, summed as Python ints and divided once per output entry.
    That gives the same Fractions as adding entry by entry, without a gcd
    per addition.  Any other table is summed by numpy unchanged.
    """
    if table.dtype != object or not table.size or set(map(type, table.flat)) != {Fraction}:
        return table.sum(axis=axis)
    scale = {v.denominator for v in table.flat}
    den = math.lcm(*scale)
    scale = {d: den // d for d in scale}
    summed = range(table.ndim) if axis is None else np.atleast_1d(axis) % table.ndim
    kept = [ax for ax in range(table.ndim) if ax not in summed]
    # One row per output entry, holding the entries that add up to it.
    rows = table.transpose([*kept, *summed]).reshape(-1, math.prod(
        table.shape[ax] for ax in summed))
    sums = [
        Fraction(sum(v.numerator * scale[v.denominator] for v in row), den)
        for row in rows
    ]
    if not kept:
        return sums[0]
    return np.array(sums, dtype=object).reshape([table.shape[ax] for ax in kept])


def as_fraction(value) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts int, Fraction, strings like ``"3/4"``, and floats.  Floats are
    converted exactly (every float is a dyadic rational), so round-tripping
    through this helper never introduces error.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"cannot coerce {value} to a rational")
        return Fraction(value)
    raise ValidationError(f"cannot coerce {type(value).__name__} to a rational")


def is_exact(value) -> bool:
    """True when ``value`` carries exact (int/Fraction) arithmetic."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def number_to_json(value):
    """JSON form of a number: Fractions as "p/q" strings, floats as-is."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool):
        raise ValidationError("booleans are not numeric payloads")
    if isinstance(value, int):
        return value
    return float(value)


def number_from_json(value):
    """Inverse of :func:`number_to_json` (strings become Fractions)."""
    if isinstance(value, str):
        return as_fraction(value)
    if isinstance(value, (int, float)):
        return value
    raise ValidationError(f"expected a number or rational string, got {value!r}")
