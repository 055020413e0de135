"""Statistical fusion of gauge recordings with the grillage prior.

A recording is explained as scaled model strain plus a structured model
mismatch plus white gauge noise: each instant's data y_k is read against
rho * P u_k + d_k + e_k, where P maps free dofs to gauge strains, d_k is a
zero-mean Gaussian field over the gauge plan positions with a squared
exponential kernel whose amplitude follows the instantaneous load level
gamma_k, and e_k is iid gauge noise. Everything stays linear Gaussian, so
conditioning and evidence evaluation are exact given the hyperparameters
(rho, sigma_d, ell_d).

The recording evidence (:func:`log_marginal`) factors the covariance shared
by all instants and solves one generalized eigenproblem per hyperparameter
point; each instant then costs O(n_y).

Strains are dimensionless here; file formats convert to microstrain at the
I/O boundary only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fem import FactorizationError, GaussianBelief, operator_matrix, sq_exp_correlation, squared_distances
from .loading import select_window
from .model import ConfigError, GrillageModel, readonly

LOG_2PI = math.log(2.0 * math.pi)

# instants whose load level falls below this fraction of the peak carry no
# usable signal and are dropped from inference by default
DEFAULT_GAMMA_MIN = 0.05


@dataclass(frozen=True)
class Hyperparameters:
    """Mismatch model parameters: scaling rho, amplitude sigma_d (strain),
    correlation length ell_d (m)."""

    rho: float
    sigma_d: float
    ell_d: float

    def __post_init__(self) -> None:
        for name, v in (("rho", self.rho), ("sigma_d", self.sigma_d), ("ell_d", self.ell_d)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")

    @classmethod
    def from_array(cls, values) -> "Hyperparameters":
        rho, sigma_d, ell_d = (float(v) for v in values)
        return cls(rho, sigma_d, ell_d)


@dataclass(frozen=True)
class Sensor:
    """One resolved strain gauge: plan position, fiber face and the element
    carrying it at local coordinate t."""

    id: str
    x: float
    y: float
    fiber: str
    element: int
    t: float
    line: str | None = None

    def __post_init__(self) -> None:
        if self.fiber not in ("top", "bottom"):
            raise ConfigError(f"sensor {self.id!r} has unknown fiber {self.fiber!r}")


@dataclass(frozen=True)
class SensorLayout:
    """An ordered set of gauges; row order fixes the data row order.

    Gauges may share plan coordinates (top and bottom fibers of one
    station); the mismatch field then treats them as perfectly correlated,
    which is intended, and the gauge noise keeps observation covariances
    invertible.
    """

    sensors: tuple[Sensor, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sensors", tuple(self.sensors))
        if not self.sensors:
            raise ConfigError("sensor layout is empty")
        ids = [s.id for s in self.sensors]
        if len(set(ids)) != len(ids):
            raise ConfigError("sensor ids must be unique")

    def __len__(self) -> int:
        return len(self.sensors)

    @property
    def ids(self) -> list[str]:
        return [s.id for s in self.sensors]

    @property
    def points(self) -> np.ndarray:
        return np.array([[s.x, s.y] for s in self.sensors])

    @cached_property
    def squared_distances(self) -> np.ndarray:
        """Pairwise squared plan distances of the gauges, computed once per layout."""
        return readonly(squared_distances(self.points))

    def subset(self, ids) -> "SensorLayout":
        wanted = list(ids)
        by_id = {s.id: s for s in self.sensors}
        missing = [i for i in wanted if i not in by_id]
        if missing:
            raise ConfigError(f"layout has no sensors named {missing}")
        return SensorLayout(tuple(by_id[i] for i in wanted))

    @classmethod
    def resolve(cls, model: GrillageModel, entries) -> "SensorLayout":
        """Bind gauge descriptions (id, x, y, fiber[, line]) to elements.

        When a line is named the search is restricted to its members, which
        disambiguates stations at girder/crossbeam junctions. The gauges of
        each line are located in one call, against one candidate list.
        """
        entries = list(entries)
        lines = [str(entry["line"]) if entry.get("line") else None for entry in entries]
        xy = np.array([(float(entry["x"]), float(entry["y"])) for entry in entries]).reshape(-1, 2)
        elements, ts = np.zeros(len(entries), dtype=int), np.zeros(len(entries))
        for line in dict.fromkeys(lines):
            rows = [i for i, name in enumerate(lines) if name == line]
            elements[rows], ts[rows] = model.locate_point(xy[rows, 0], xy[rows, 1], line=line)
        return cls(tuple(Sensor(str(entry["id"]), x, y, str(entry["fiber"]), int(k), float(t), line)
                         for entry, (x, y), k, t, line in zip(entries, xy.tolist(), elements, ts, lines)))


def sq_exp_covariance(points, sigma: float, ell: float) -> np.ndarray:
    """Squared exponential kernel matrix over plan positions.

    k(x, x') = sigma^2 exp(-|x - x'|^2 / (2 ell^2)); symmetric with exact
    sigma^2 diagonal, and zero distance gives full correlation. ``points``
    is an (n, 2) array of plan positions.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"kernel amplitude must be positive, got {sigma}")
    if not (math.isfinite(ell) and ell > 0.0):
        raise ValueError(f"kernel length scale must be positive, got {ell}")
    return sigma * sigma * sq_exp_correlation(squared_distances(points), ell)


def mismatch_covariance(layout: SensorLayout, w: Hyperparameters, gamma_k: float) -> np.ndarray:
    """Mismatch covariance over the gauges of ``layout`` at one instant:
    amplitude gamma_k * sigma_d, from the layout's cached distances.

    gamma_k = 0 (quiescent instant) gives the zero matrix.
    """
    if not 0.0 <= gamma_k <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma_k}")
    amp = gamma_k * w.sigma_d
    return amp * amp * sq_exp_correlation(layout.squared_distances, w.ell_d)


def noise_covariance(n_sensors: int, sigma_e: float) -> np.ndarray:
    """White gauge noise covariance sigma_e^2 I; never load-scaled."""
    if sigma_e < 0.0:
        raise ValueError(f"noise level must be nonnegative, got {sigma_e}")
    return sigma_e * sigma_e * np.eye(n_sensors)


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Gauge strain recordings over a set of instants.

    ``strains`` is (n_sensors, n_instants) in dimensionless strain, rows
    ordered like the layout; ``gamma`` carries the per-instant relative
    load level used to scale the mismatch amplitude.
    """

    strains: np.ndarray
    timestamps: np.ndarray
    sigma_e: float
    gamma: np.ndarray
    layout: SensorLayout

    def __post_init__(self) -> None:
        for name in ("strains", "timestamps", "gamma"):
            object.__setattr__(self, name, readonly(getattr(self, name)))
        if self.strains.ndim != 2:
            raise ValueError("strains must be (n_sensors, n_instants)")
        n_y, n_o = self.strains.shape
        if len(self.layout) != n_y:
            raise ValueError(f"{n_y} data rows but {len(self.layout)} sensors in the layout")
        if self.timestamps.shape != (n_o,) or self.gamma.shape != (n_o,):
            raise ValueError("timestamps and gamma must have one entry per instant")
        if not np.all(np.isfinite(self.strains)):
            raise ValueError("strains contain non-finite values")
        if not (math.isfinite(self.sigma_e) and self.sigma_e >= 0.0):
            raise ValueError(f"sigma_e must be nonnegative, got {self.sigma_e}")
        if np.any(self.gamma < 0.0) or np.any(self.gamma > 1.0):
            raise ValueError("gamma values must lie in [0, 1]")

    @property
    def n_sensors(self) -> int:
        return self.strains.shape[0]

    @property
    def n_instants(self) -> int:
        return self.strains.shape[1]

    def select(self, indices) -> "ObservationSet":
        indices = np.asarray(indices)
        return ObservationSet(
            self.strains[:, indices], self.timestamps[indices], self.sigma_e,
            self.gamma[indices], self.layout,
        )

    def window(
        self,
        t0: float | None = None,
        t1: float | None = None,
        stride: int = 1,
        gamma_min: float = DEFAULT_GAMMA_MIN,
    ) -> "ObservationSet":
        """Restrict to [t0, t1], thin by stride, drop quiescent instants."""
        return self.select(window_indices(self.timestamps, self.gamma, t0, t1, stride, gamma_min))


def window_indices(
    timestamps: np.ndarray,
    gamma: np.ndarray,
    t0: float | None = None,
    t1: float | None = None,
    stride: int = 1,
    gamma_min: float = DEFAULT_GAMMA_MIN,
) -> np.ndarray:
    """Indices of the instants inside [t0, t1], thinned by stride, whose
    load level ``gamma`` is at least ``gamma_min``: the one window rule of
    :meth:`ObservationSet.window` and of a recording's rows before they are
    parsed. An empty window raises ValueError."""
    idx = select_window(timestamps, t0, t1, stride)
    idx = idx[np.asarray(gamma)[idx] >= gamma_min]
    if idx.size == 0:
        raise ValueError("empty effective observation window")
    return idx


def displacement_posterior(
    y: np.ndarray,
    w: Hyperparameters,
    prior: GaussianBelief,
    strain_op,
    mismatch_cov: np.ndarray,
    noise_cov: np.ndarray,
) -> GaussianBelief:
    """Condition the dof prior on one instant of gauge data.

    Uses the residual form

        mean = u_bar + rho C_u P^T S^-1 (y - rho P u_bar)
        cov  = C_u - rho^2 C_u P^T S^-1 P C_u,   S = rho^2 P C_u P^T + C_d + C_e

    which is algebraically the standard linear-Gaussian update but never
    inverts C_u, so it accepts the singular dof covariances produced by
    loads that excite only part of the structure. S^-1 comes from the
    factors the evidence uses: with B = rho^2 P C_u P^T + C_e and
    W^T B W = I, W^T C_d W = diag(lam), S^-1 = W diag(1/(lam + 1)) W^T.
    Raises :class:`FactorizationError` naming sigma_e when B is not positive
    definite, as at sigma_e = 0 with mirrored gauges, where the conditioned
    covariance would be rounding noise; nothing is jittered here, and the
    returned belief carries the prior's jitter.
    """
    p = operator_matrix(strain_op)
    y = np.asarray(y, dtype=float).reshape(-1)
    n_y, n_u = p.shape
    if y.shape[0] != n_y:
        raise ValueError(f"data has {y.shape[0]} rows, operator has {n_y}")
    if prior.mean.shape[0] != n_u:
        raise ValueError(f"prior dimension {prior.mean.shape[0]} does not match operator columns {n_u}")

    rho = w.rho
    gain = prior.cov @ p.T  # C_u P^T
    b = rho * rho * (p @ gain) + noise_cov
    sigma_e = math.sqrt(max(float(np.min(np.diagonal(noise_cov))), 0.0))
    _, lam, whiten = _whiten(0.5 * (b + b.T), mismatch_cov, sigma_e)
    half = whiten / np.sqrt(lam + 1.0)  # S^-1 = half half^T
    weighted = half.T @ gain.T
    resid = y - rho * (p @ prior.mean)
    mean = prior.mean + rho * (weighted.T @ (half.T @ resid))
    cov = prior.cov - rho * rho * (weighted.T @ weighted)
    cov = 0.5 * (cov + cov.T)
    return GaussianBelief(mean, cov, jitter=prior.jitter)


def true_strain_posterior(
    posterior: GaussianBelief, w: Hyperparameters, strain_op, mismatch_cov: np.ndarray
) -> GaussianBelief:
    """Belief over the latent true gauge strains rho P u + d given data:
    N(rho P m, rho^2 P C P^T + C_d) for the dof posterior N(m, C).

    The bands add the prior mismatch covariance C_d and leave out the update
    of d by the data y, so they are conservative: wider than the joint
    posterior of rho P u + d. ``oracles.latent_strain_belief`` in the tests
    encodes the same formula.
    """
    fe = posterior.project(strain_op)
    return GaussianBelief(w.rho * fe.mean, w.rho * w.rho * fe.cov + mismatch_cov,
                          jitter=fe.jitter)


def strain_predictive(
    posterior: GaussianBelief, w: Hyperparameters, strain_op, mismatch_cov: np.ndarray,
    noise_cov: np.ndarray,
) -> GaussianBelief:
    """Predictive belief over noisy gauge readings, possibly at new gauges.

    Identical to the true-strain belief plus the gauge noise covariance,
    evaluated through whatever operator and kernel matrices are supplied,
    so held-out locations just need their own operator rows.
    """
    z = true_strain_posterior(posterior, w, strain_op, mismatch_cov)
    return GaussianBelief(z.mean, z.cov + noise_cov, jitter=z.jitter)


# numpy only: scipy would load a second OpenBLAS with its own thread pool, and
# handing 40 x 40 calls between two pools costs more than the arithmetic. The
# triangular solves are products with the explicit inverse of the 40 x 40
# factor, which numpy has and which costs less than the solves it replaces.
def _whiten(b: np.ndarray, kernel: np.ndarray, sigma_e: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(log det B, lam, W) with B = L L^T, L^-1 K L^-T = Q diag(lam) Q^T and
    W = L^-T Q, so W^T (a K + B) W = diag(a lam + 1) for every a >= 0; lam
    is clipped at 0. Raises :class:`FactorizationError` naming sigma_e, the
    noise level in B, when B is not positive definite."""
    try:
        lower = np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"rho^2 P C_u P^T + sigma_e^2 I is not positive definite at sigma_e = {sigma_e:.6g}; "
            f"mirrored or coincident gauges make P C_u P^T singular, so sigma_e must be positive"
        ) from exc
    inverse_factor = np.linalg.inv(lower)
    lam, q = np.linalg.eigh(inverse_factor @ kernel @ inverse_factor.T)
    logdet_b = 2.0 * float(np.sum(np.log(np.diagonal(lower))))
    return logdet_b, np.maximum(lam, 0.0), inverse_factor.T @ q


def log_marginal(
    obs: ObservationSet, w: Hyperparameters, strain_means: np.ndarray, strain_cov: np.ndarray
) -> float:
    """Log evidence of a whole recording under instant independence.

    ``strain_means`` (n_y, n_instants) and ``strain_cov`` (n_y, n_y) are the
    strain-space prior P u_k and P C_u P^T, as ``PriorEnsemble.projected``
    gives them. Each column y_k is scored under N(rho P u_k, S_k = a_k K + B),
    with K the unit mismatch kernel, a_k = (gamma_k sigma_d)^2 and
    B = rho^2 P C_u P^T + sigma_e^2 I shared by all instants. With
    W^T B W = I and W^T K W = diag(lam) from :func:`_whiten`,
    W^T S_k W = diag(a_k lam + 1), so log det S_k = log det B +
    sum_j log(a_k lam_j + 1) and the quadratic form is
    sum_j z_jk^2 / (a_k lam_j + 1) with z_k = W^T (y_k - rho P u_k). lam is
    clipped at 0, so gamma_k = 0 gives exactly the B-only density.

    One call costs one Cholesky factor of B, one eigensolve of the whitened
    mismatch kernel and one (n_y x n_y)(n_y x n_instants) product; each
    instant then adds O(n_y). Raises :class:`FactorizationError` when B is
    singular, as it is at sigma_e = 0. Sums with compensated summation so
    the result is independent of instant order.
    """
    n_y, n_o = obs.strains.shape
    if strain_means.shape[1] != n_o:
        raise ValueError(f"{n_o} instants but {strain_means.shape[1]} priors")
    b = (w.rho * w.rho) * strain_cov + (obs.sigma_e * obs.sigma_e) * np.eye(n_y)
    kernel = sq_exp_correlation(obs.layout.squared_distances, w.ell_d)
    logdet_b, lam, whiten = _whiten(b, kernel, obs.sigma_e)
    # Z^T = R^T W with the residual R = Y - rho M
    z_t = (obs.strains - w.rho * strain_means).T @ whiten
    scale = (obs.gamma * w.sigma_d)[:, None] ** 2 * lam[None, :] + 1.0
    quad = np.sum(z_t * z_t / scale, axis=1)
    terms = -0.5 * (n_y * LOG_2PI + logdet_b + np.sum(np.log(scale), axis=1) + quad)
    return math.fsum(terms.tolist())
