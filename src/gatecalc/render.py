"""Turn a computed float back into answer text."""

from __future__ import annotations

import math

INTEGER_SNAP_REL = 1e-9
MAX_SIG_DIGITS = 12


class NonFinite(ValueError):
    pass


def render(x: float) -> str:
    """Shortest clean decimal text for a finite result.

    An integer-valued float prints as its integer at once, and any other
    value within relative 1e-9 of an integer prints as that integer, so
    accumulated float error never leaks a stray fraction into an answer.
    Everything else prints positionally with at most 12 significant
    digits and no trailing zeros; scientific notation never appears.
    """
    x = float(x)
    if x.is_integer():
        return str(int(x))
    if not math.isfinite(x):
        raise NonFinite(f"cannot render {x!r}")
    nearest = round(x)
    if abs(x - nearest) <= INTEGER_SNAP_REL * max(1.0, abs(x)):
        return str(int(nearest))
    text = f"{x:.{MAX_SIG_DIGITS}g}"
    if "e" in text or "E" in text:
        # Only exponent-form values need decimal, so serving loads it late.
        import decimal

        text = format(decimal.Decimal(text), "f")
    return text
