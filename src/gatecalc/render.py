"""Turn a computed float back into answer text."""

from __future__ import annotations

import math

INTEGER_SNAP = 1e-9
MAX_SIG_DIGITS = 12


class NonFinite(ValueError):
    pass


def render(x: float) -> str:
    """Shortest clean decimal text for a finite result.

    An integer-valued float prints as its integer at once, and any other
    value within 1e-9 (absolute) of an integer prints as that integer, so
    float error never leaks a stray fraction into an answer. Everything
    else prints positionally, rounded to 12 significant digits, with no
    trailing zeros, so a large value keeps its fraction up to the 12th
    digit; scientific notation never appears.
    """
    x = float(x)
    if x.is_integer():
        return str(int(x))
    if not math.isfinite(x):
        raise NonFinite(f"cannot render {x!r}")
    nearest = round(x)
    if abs(x - nearest) <= INTEGER_SNAP:
        return str(int(nearest))
    text = f"{x:.{MAX_SIG_DIGITS}g}"
    if "e" in text:
        # Only exponent-form values need decimal, so serving loads it late.
        import decimal

        text = format(decimal.Decimal(text), "f")
    return text
