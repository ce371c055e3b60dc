"""Small numeric helpers shared by the value types.

Quantities in this package are plain Python numbers: ``float`` for the
approximate path and :class:`fractions.Fraction` for the exact path.  All
algorithms are written polymorphically, so a structure built from Fractions
stays exact end to end.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError


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
