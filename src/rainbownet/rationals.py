"""Exact rational parsing and formatting for the rate layer.

Capacities, rates and interval endpoints stay `fractions.Fraction` so that
capacity comparisons and spectrum measures are exact; floating point enters
only when distortion values are evaluated.
"""

from __future__ import annotations

from fractions import Fraction

# Largest decimal exponent magnitude a string may carry, the digit limit
# Python puts on int literals. Exact arithmetic grows quadratically in the
# digits: "1e10000000" alone takes seconds to parse.
MAX_DECIMAL_EXPONENT = 4300
# The least whole number whose numeral has more digits than that.
_UNPRINTABLE = 10**MAX_DECIMAL_EXPONENT


def parse_rational(value, *, what: str = "number") -> Fraction:
    """Parse a scalar from a JSON document ("0.5", "3/4", 2, 0.25) exactly.

    Floats are interpreted through their shortest decimal representation so
    that a literal ``0.1`` in a document means one tenth, not the nearest
    binary double. A string whose decimal exponent exceeds
    MAX_DECIMAL_EXPONENT in magnitude is refused.
    """
    if isinstance(value, bool):
        raise ValueError(f"{what}: expected a number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        text = value.strip()
        # a rational string holds an "e" only as its exponent marker
        _, marker, exponent = text.lower().partition("e")
        try:
            if not marker or abs(int(exponent)) <= MAX_DECIMAL_EXPONENT:
                return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{what}: cannot parse {value!r} as a rational") from exc
        raise ValueError(
            f"{what}: the exponent of {value!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude"
        )
    raise ValueError(f"{what}: unsupported type {type(value).__name__}")


def _whole_number(value, what: str, *, numerals: bool = False) -> int:
    """`value` as an int when it equals one: an int, a float or Fraction with
    no fractional part, or, with `numerals`, a numeral string.

    Anything else, a boolean included, raises ValueError naming `what`.
    """
    try:
        whole = int(value) if numerals or not isinstance(value, str) else None
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or isinstance(value, bool) or not isinstance(value, str) and whole != value:
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return whole


def _digits(whole: int) -> str:
    """str(whole), refused when it would take more than MAX_DECIMAL_EXPONENT digits."""
    if abs(whole) >= _UNPRINTABLE:
        raise ValueError(
            f"a result of more than {MAX_DECIMAL_EXPONENT} digits is too large to print"
        )
    return str(whole)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as a terminating decimal when one exists, else p/q.

    Raises ValueError when a numeral would take more than
    MAX_DECIMAL_EXPONENT digits, the most Python renders by default.
    """
    value = Fraction(value)
    num, den = value.numerator, value.denominator
    if den == 1:
        return _digits(num)
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{_digits(num)}/{_digits(den)}"
    places = max(twos, fives)
    scaled = abs(num) * 10**places // den
    digits = _digits(scaled).rjust(places + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"
