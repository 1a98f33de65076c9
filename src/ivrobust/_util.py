"""Small shared helpers."""
from __future__ import annotations

import numpy as np

# float64 elements of one stacked rows x J array: a lockstep group of S-stages, a
# chunk of an M-scale solve and a chunk of bootstrap rows stay under it (8 MB)
_ELEMENT_BUDGET = 1 << 20


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce ``None | int | SeedSequence`` to a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is None:
        return np.random.SeedSequence()
    return np.random.SeedSequence(seed)


def _row_chunks(rows: int, j: int) -> list[slice]:
    """Slices of ``rows`` rows of J elements, each within _ELEMENT_BUDGET or one row."""
    step = max(1, _ELEMENT_BUDGET // j)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]
