"""Shared builders for test fixtures."""
from __future__ import annotations

import numpy as np

from ivrobust.summary_data import SummarySet


def make_set(beta_x, se_x, beta_y, se_y, harmonized=False):
    return SummarySet(beta_x, se_x, beta_y, se_y, harmonized=harmonized)


def random_set(rng, j=12):
    beta_x = rng.normal(0.0, 0.08, size=j)
    beta_x[np.abs(beta_x) < 1e-4] = 0.05
    return make_set(
        beta_x,
        rng.uniform(0.005, 0.02, size=j),
        rng.normal(0.0, 0.05, size=j),
        rng.uniform(0.01, 0.06, size=j),
    )


def random_summary(rng, j=10, positive=False):
    beta_x = rng.uniform(0.05, 0.3, size=j)
    if not positive:
        beta_x *= rng.choice([-1.0, 1.0], size=j)
    return make_set(
        beta_x,
        rng.uniform(0.005, 0.02, size=j),
        rng.normal(0.0, 0.05, size=j),
        rng.uniform(0.02, 0.08, size=j),
    )
