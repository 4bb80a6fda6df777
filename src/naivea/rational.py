"""Exact rational parsing and formatting for the JSON boundary.

Numbers travel as strings ("7", "-3/4") or plain ints; they never become
floats anywhere in the package. Inside the pipeline, distances are ints in
units of 1/D; floor_units turns a rational threshold into that scale.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import MalformedInputError


def parse_rational(value) -> Fraction:
    """Parse an int or an "a/b" / "a" string into a Fraction."""
    if isinstance(value, bool):
        raise MalformedInputError(f"expected a rational, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"bad rational literal {value!r}: {exc}") from None
    raise MalformedInputError(f"expected a rational, got {type(value).__name__}")


def format_rational(q) -> str:
    """Render a Fraction (or int) canonically: "5" or "a/b" in lowest terms."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def floor_units(q, unit: int) -> int:
    """floor(q * unit), exactly.

    For an int distance d in units of 1/unit, d <= q holds exactly when
    d <= floor_units(q, unit), and d > q exactly when d > floor_units(q, unit).
    """
    q = Fraction(q)
    return q.numerator * unit // q.denominator
