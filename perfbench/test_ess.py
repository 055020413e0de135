"""Geyer ESS against an AR(1) series, whose ESS is known in closed form.

For x_t = phi x_{t-1} + e_t the integrated autocorrelation time is
(1 + phi) / (1 - phi), so a stationary series of length n has an effective
sample size of n (1 - phi) / (1 + phi).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ess import chain_ess, geyer_ess  # noqa: E402


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_ar1_ess_matches_closed_form(phi):
    n = 200_000
    expected = n * (1.0 - phi) / (1.0 + phi)
    assert geyer_ess(ar1(phi, n, seed=3)) == pytest.approx(expected, rel=0.05)


def test_ess_repeats_exactly_for_a_seed():
    first = chain_ess(np.column_stack([ar1(0.7, 5000, seed=11), ar1(0.2, 5000, seed=12)]))
    again = chain_ess(np.column_stack([ar1(0.7, 5000, seed=11), ar1(0.2, 5000, seed=12)]))
    assert first == again


def test_constant_chain_has_no_effective_samples():
    assert geyer_ess(np.full(100, 0.9)) == 0.0
