"""Effective sample size by Geyer's initial monotone sequence estimator.

Geyer (1992), "Practical Markov chain Monte Carlo", Statistical Science 7.
With autocovariances g_k of a chain of length n, the sums of adjacent pairs
G_m = g_2m + g_2m+1 of a reversible chain are positive and decreasing. The
estimator keeps the initial run of positive G_m, clips it to be monotone,
and reads the asymptotic variance as -g_0 + 2 sum G_m; the effective sample
size is n g_0 over that variance.
"""

from __future__ import annotations

import numpy as np


def autocovariance(x) -> np.ndarray:
    """Biased (divide-by-n) autocovariances at lags 0..n-1, by FFT."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    centred = x - x.mean()
    spectrum = np.fft.rfft(centred, 2 * n)
    return np.fft.irfft(spectrum * np.conj(spectrum), 2 * n)[:n] / n


def geyer_ess(x) -> float:
    """Effective sample size of one chain component.

    A constant chain carries no variance information and returns 0.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 2:
        return float(n)
    if np.all(x == x[0]):
        return 0.0
    acov = autocovariance(x)
    g0 = acov[0]
    total = 0.0
    previous = np.inf
    for m in range(n // 2):
        pair = acov[2 * m] + acov[2 * m + 1]
        if pair <= 0.0:
            break
        previous = min(previous, pair)
        total += previous
    return float(n * g0 / (2.0 * total - g0))


def chain_ess(samples) -> list[float]:
    """Per-column effective sample sizes of an (n, k) sample array."""
    samples = np.asarray(samples, dtype=float)
    return [geyer_ess(samples[:, j]) for j in range(samples.shape[1])]
