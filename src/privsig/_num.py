"""Small numeric helpers shared by the value types.

Quantities in this package are plain Python numbers: ``float`` for the
approximate path and :class:`fractions.Fraction` for the exact path, so a
structure built from Fractions stays exact end to end.  Inside the library
the exact path mostly runs on integer numerators over common denominators,
``int64`` while every entry and partial sum fits and Python ints beyond
that, and shows them as Fractions only in public values: a
``FiniteStructure`` keeps its table on one denominator, an exact
``AtomicDist`` its locations on one and its weights on another, and the
exact simplex one per tableau row (notes/decisions.md, "Exact tables on one
common denominator", "Exact beliefs on one common denominator" and "Exact
simplex on integer rows").  The helpers below convert to that form.

Every float tolerance of the package is defined once, in the table below,
and its exact value once, next to it.
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

#: The exact value of each tolerance above.  Comparing a Fraction with a
#: float converts the float each time, so exact code compares with these.
_EXACT_TOLS = {tol: Fraction(tol) for tol in (
    ORDER_TOL, MERGE_TOL, WEIGHT_DROP_TOL, POSTERIOR_MERGE_TOL, TABLE_TOL,
    PROBABILITY_TOL, SLACK_TOL, LP_TOL,
)}


def _exact_tol(tol):
    """The exact value of ``tol``, made once for the tolerances above."""
    exact = _EXACT_TOLS.get(tol)
    return Fraction(tol) if exact is None else exact


def _tol(tol):
    """``tol`` when it is a finite non-negative number, a NumPy number as
    the Python ``float`` or ``int`` of its value.

    Every public test that takes a tolerance calls this once; NaN, an
    infinity, a negative value, a boolean or a non-number would otherwise
    give wrong verdicts silently or fail deep inside a comparison.  Exact
    code takes ``Fraction(tol)``, which refuses NumPy floats.
    """
    if isinstance(tol, bool) or not isinstance(tol, (int, float, Fraction, np.integer, np.floating)):
        raise ValidationError(f"field 'tol': expected a number, got {type(tol).__name__}")
    if (isinstance(tol, (float, np.floating)) and not math.isfinite(tol)) or tol < 0:
        raise ValidationError(f"field 'tol': expected a finite non-negative number, got {tol}")
    if isinstance(tol, np.floating):
        return float(tol)
    return int(tol) if isinstance(tol, np.integer) else tol


def _int_dtype(bound):
    """``int64`` when integers of magnitude up to ``bound`` fit, else Python ints."""
    return np.int64 if bound < 2**63 else object


def _entries_are(table, kinds) -> bool:
    """True when every entry of an object array is an instance of ``kinds``."""
    return all(issubclass(t, kinds) for t in set(map(type, table.flat)))


def _is_rational(table) -> bool:
    """True when every entry of an object array is an int or a Fraction."""
    return _entries_are(table, (int, Fraction))


def _common_denominator(values):
    """``(numerators, D)`` of ints and Fractions over their least common
    denominator ``D``.

    The numerators keep the shape of ``values``; they are ``int64`` when
    they fit, else Python ints in an object array.
    """
    arr = np.asarray(values, dtype=object)
    flat = arr.ravel().tolist()
    dens = [v.denominator for v in flat]
    distinct = set(dens)
    den = math.lcm(*distinct)
    scale = {d: den // d for d in distinct}
    nums = [v.numerator * scale[d] for v, d in zip(flat, dens)]
    dtype = _int_dtype(max(map(abs, nums), default=0))
    return np.array(nums, dtype=dtype).reshape(arr.shape), den


def _product_operands(num, den, values):
    """Numerators ``num`` over ``den`` and the Fractions ``values``, ready
    to multiply: ``(num, values_num, den * D)`` with ``D`` the common
    denominator of ``values``.

    The products the callers form are probabilities, a table cell times a
    probability or sums of such over cells of one table, so every product
    and partial sum of numerators stays under ``2 * den * D``.  Both arrays
    are ``int64`` only when that bound fits, else Python ints; values too
    large for ``int64`` (an invalid kernel, say) stay Python ints as well.
    """
    values_num, values_den = _common_denominator(values)
    dtype = _int_dtype(2 * den * values_den)
    if values_num.dtype == object:
        dtype = object
    return num.astype(dtype, copy=False), values_num.astype(dtype), den * values_den


def _float_array(values, field):
    """``values`` as a float64 array whose entries are all finite numbers.

    An object array may hold ints, floats, Fractions and NumPy numbers;
    anything else, a numeric string say, is refused rather than parsed.
    """
    try:
        arr = np.asarray(values)
        if arr.dtype == object and not _entries_are(arr, (int, float, Fraction, np.number)):
            raise TypeError(f"field '{field}' holds a non-numeric object")
        arr = arr.astype(float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"field '{field}': entries must be numbers") from exc
    if not np.isfinite(arr).all():
        raise ValidationError(f"field '{field}': entries must be finite")
    return arr


def as_fraction(value) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts int, Fraction, NumPy integers, strings like ``"3/4"``, and
    floats.  Floats are converted exactly (every float is a dyadic
    rational), so round-tripping through this helper never introduces
    error.  A NumPy integer becomes a Python int first, so no ``int64``
    ends up inside the Fraction.  Booleans are not numbers here.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError("booleans are not numeric payloads")
    if isinstance(value, np.integer):
        return Fraction(int(value))
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
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise ValidationError(f"expected a number or rational string, got {value!r}")
