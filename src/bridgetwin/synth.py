"""Synthetic ground truth and noisy recordings for closed-loop studies.

The generator shares the mismatch model of the inference side: true gauge
strain at instant k is rho_true * P u_k plus a draw of the load-scaled
mismatch field, and recordings add iid gauge noise. Draw streams are keyed
as "seed:0:instant" for the mismatch and "seed:1:instant" for noise, so the
two sources never alias and any instant can be regenerated alone. Each key
seeds the standard library's ``random.Random``, whose 64-bit words become
uniforms in (0, 1] and, by the Box-Muller transform, standard normals;
numpy's generators are never loaded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .fem import chol_psd, sq_exp_correlation
from .statfem import ObservationSet, SensorLayout


@dataclass(frozen=True)
class DiscrepancySpec:
    """True data-generating parameters: scaling, mismatch amplitude (strain),
    mismatch length (m) and the master seed."""

    rho: float
    sigma: float
    length_scale: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError(f"true rho must be positive, got {self.rho}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"mismatch amplitude must be nonnegative, got {self.sigma}")
        if not (math.isfinite(self.length_scale) and self.length_scale > 0.0):
            raise ValueError(f"mismatch length must be positive, got {self.length_scale}")


def _standard_normals(seed: int, stream: int, instants, n: int) -> np.ndarray:
    """Standard normals (n, len(instants)); column j depends only on the key
    f"{seed}:{stream}:{instants[j]}". The key's ``random.Random`` gives one
    little-endian 64-bit word per uniform, ((bits >> 11) + 1) 2^-53 in
    (0, 1], and the Box-Muller transform turns the first half of an even
    count of uniforms, as radii, and the second half, as angles, into
    cosine then sine normals, of which the first n are kept."""
    half = (n + 1) // 2
    words = b"".join(random.Random(f"{seed}:{stream}:{k}").randbytes(16 * half) for k in instants)
    bits = np.frombuffer(words, dtype="<u8").reshape(-1, 2 * half)
    uniform = ((bits >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(uniform[:, :half]))
    angle = (2.0 * math.pi) * uniform[:, half:]
    return np.hstack([radius * np.cos(angle), radius * np.sin(angle)])[:, :n].T


def draw_discrepancy(layout: SensorLayout, spec: DiscrepancySpec, gamma: np.ndarray) -> np.ndarray:
    """Sample the mismatch field at every instant, scaled by gamma_k.

    One Cholesky factor of the unit-amplitude kernel serves all instants in
    one product; the per-instant amplitude gamma_k * sigma multiplies the
    draw. Quiescent instants draw nothing and get exactly zero.
    """
    gamma = np.asarray(gamma, dtype=float)
    n_y = len(layout)
    out = np.zeros((n_y, gamma.shape[0]))
    if spec.sigma == 0.0:
        return out
    unit = sq_exp_correlation(layout.squared_distances, spec.length_scale)
    lower, _ = chol_psd(unit)
    loaded = np.flatnonzero(gamma)
    out[:, loaded] = (gamma[loaded] * spec.sigma) * (lower @ _standard_normals(spec.seed, 0, loaded.tolist(), n_y))
    return out


def generate_truth(
    prior_strain_means: np.ndarray,
    gamma: np.ndarray,
    layout: SensorLayout,
    spec: DiscrepancySpec,
) -> np.ndarray:
    """True gauge strains: rho_true * (P u_k) plus the mismatch draw.

    ``prior_strain_means`` is the deterministic model strain P u_k per
    instant, shape (n_sensors, n_instants).
    """
    means = np.asarray(prior_strain_means, dtype=float)
    if means.shape[0] != len(layout):
        raise ValueError(f"{means.shape[0]} strain rows but {len(layout)} sensors")
    if means.shape[1] != np.asarray(gamma).shape[0]:
        raise ValueError("gamma must have one entry per instant")
    return spec.rho * means + draw_discrepancy(layout, spec, gamma)


def generate_observations(
    truth: np.ndarray,
    timestamps: np.ndarray,
    gamma: np.ndarray,
    layout: SensorLayout,
    sigma_e: float,
    seed: int,
) -> ObservationSet:
    """Add iid gauge noise to true strains; sigma_e = 0 returns the truth."""
    truth = np.asarray(truth, dtype=float)
    if sigma_e < 0.0:
        raise ValueError(f"noise level must be nonnegative, got {sigma_e}")
    noisy = truth.copy()
    if sigma_e > 0.0:
        noisy += sigma_e * _standard_normals(seed, 1, range(truth.shape[1]), truth.shape[0])
    return ObservationSet(noisy, timestamps, sigma_e, gamma, layout)


def estimate_noise_std(strains: np.ndarray) -> float:
    """Gauge noise level from the strains (n_sensors, n_instants) of a
    quiescent stretch of the recording, at least two instants.

    Takes the unbiased per-sensor variance over the instants and returns
    the square root of their mean, pooling all sensors equally.
    """
    return float(np.sqrt(np.mean(np.var(strains, axis=1, ddof=1))))
