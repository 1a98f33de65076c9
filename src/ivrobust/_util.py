"""Small shared helpers."""
from __future__ import annotations

import math

import numpy as np

# float64 elements of one stacked rows x J array: a lockstep group of S-stages, a
# chunk of an M-scale solve, of the IRLS steps or of the prune's test, and a block
# of bootstrap draws stay under it (8 MB); the bootstrap's draws depend on it once
# draws x J exceeds it
_ELEMENT_BUDGET = 1 << 20


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce ``None | int | SeedSequence`` to a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is None:
        return np.random.SeedSequence()
    return np.random.SeedSequence(seed)


def _cell(value, width: int, spec: str = ".4f") -> str:
    """A table cell: ``value`` right-aligned in ``width`` characters, NA when absent.

    A value that is None or not finite is NA. A value whose ``spec`` text is
    wider than the column gets the most significant digits of a ``g`` form
    that fits; with one digit any float takes at most 7 characters, so every
    column of 7 or more holds one.
    """
    if value is None or not math.isfinite(value):
        return f"{'NA':>{width}}"
    text = f"{value:{width}{spec}}"
    precision = width
    while len(text) > width:
        precision -= 1
        text = f"{value:{width}.{precision}g}"
    return text


def _row_chunks(rows: int, j: int) -> list[slice]:
    """Slices of ``rows`` rows of J elements, each within _ELEMENT_BUDGET or one row."""
    step = max(1, _ELEMENT_BUDGET // j)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]
