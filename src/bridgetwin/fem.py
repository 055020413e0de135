"""Assembly and solution of the grillage system.

Each member contributes Hermite beam bending in its deflection/slope dofs
and a two-node St-Venant torsion bar in its twist dofs. Local element dofs
are ordered (w1, theta1, phi1, w2, theta2, phi2) with theta the bending
slope dw/ds along the member axis and phi the twist about it; the per-node
map to global (w, rx, ry) for a member with direction cosines (c, s) is

    theta =  s * rx - c * ry
    phi   =  c * rx + s * ry

so a member along x has theta = -ry, phi = rx. Besides the deterministic
solve, this module carries the strain extraction operator, the jitter
policy for nearly singular covariances, the squared exponential kernel,
Gaussian beliefs over the free dofs, and the push of a load covariance
through the inverse stiffness. The jitter added is returned, never logged.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .model import DOF_NAMES, GrillageModel, readonly

# relative jitter ladder: eps * mean(diag) added to the diagonal, escalating
JITTER_LADDER = (1e-12, 1e-11, 1e-10, 1e-9, 1e-8)


class FactorizationError(RuntimeError):
    """A matrix that must be positive definite failed to factor."""


def hermite_shape(t, length) -> np.ndarray:
    """Cubic Hermite shape functions on (w1, theta1, w2, theta2), t in [0, 1]; arrays stack on axis 0."""
    t2, t3 = t * t, t * t * t
    return np.array([
        1.0 - 3.0 * t2 + 2.0 * t3,
        length * (t - 2.0 * t2 + t3),
        3.0 * t2 - 2.0 * t3,
        length * (t3 - t2),
    ])


def hermite_curvature(t, length) -> np.ndarray:
    """Second arc-length derivatives of the Hermite shapes at t in [0, 1], stacked likewise."""
    l2 = length * length
    return np.array([
        (12.0 * t - 6.0) / l2,
        (6.0 * t - 4.0) / length,
        (6.0 - 12.0 * t) / l2,
        (6.0 * t - 2.0) / length,
    ])


def _local_stiffness(ei, gj, lengths) -> np.ndarray:
    """Local stiffnesses (n, 6, 6) of n elements from their bending and
    torsion stiffnesses and lengths, each of length n."""
    l = np.asarray(lengths, dtype=float)
    # Python's pow: numpy's vectorised power may differ from it in the last bit
    cube = np.array([x**3 for x in l.tolist()])
    twelve, six, four, two = np.full_like(l, 12.0), 6.0 * l, 4.0 * l * l, 2.0 * l * l
    b = np.stack([
        twelve, six, -twelve, six,
        six, four, -six, two,
        -twelve, -six, twelve, -six,
        six, two, -six, four,
    ], axis=-1).reshape(-1, 4, 4) * (np.asarray(ei, dtype=float) / cube)[:, None, None]
    g = np.asarray(gj, dtype=float) / l
    k = np.zeros((l.size, 6, 6))
    k[:, [[0], [1], [3], [4]], [0, 1, 3, 4]] = b
    k[:, [[2], [5]], [2, 5]] = np.stack([g, -g, -g, g], axis=-1).reshape(-1, 2, 2)
    return k


def element_transform(c, s) -> np.ndarray:
    """6x6 map from global (w, rx, ry) pairs to local element dofs; arrays of
    direction cosines give a stack of maps, shape (..., 6, 6)."""
    c, s = np.asarray(c, dtype=float), np.asarray(s, dtype=float)
    n = np.zeros(c.shape + (3, 3))
    n[..., 0, 0] = 1.0
    n[..., 1, 1], n[..., 1, 2], n[..., 2, 1], n[..., 2, 2] = s, -c, c, s
    out = np.zeros(c.shape + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = n
    return out


def element_geometry(model: GrillageModel, elements) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lengths (n,), direction cosines (n, 2) and global dof slots ``3 node + dof``
    (n, 6: node_i then node_j) of the listed elements, from the model's element tables."""
    lengths = model.lengths[elements]
    slots = 3 * np.repeat(model.ends[elements], 3, axis=1) + np.tile(np.arange(3), 2)
    return lengths, model.vectors[elements] / lengths[:, None], slots


def element_columns(model: GrillageModel, dof_map: DofMap, elements, local, columns, n_columns) -> np.ndarray:
    """The one element-to-dof scatter, into an (n_free, n_columns) array: row k
    of ``local`` (n, 6), on (w1, theta1, phi1, w2, theta2, phi2) of element
    ``elements[k]``, is rotated to global (w, rx, ry) pairs and added into
    column ``columns[k]`` by one indexed add, in listed order; constrained
    dofs drop out."""
    _, cosines, slots = element_geometry(model, elements)
    values = np.einsum("ki,kij->kj", local, element_transform(cosines[:, 0], cosines[:, 1]))
    pos = dof_map.index.reshape(-1)[slots]
    k, slot = np.nonzero(pos >= 0)
    out = np.zeros((dof_map.n_free, n_columns))
    np.add.at(out, (pos[k, slot], columns[k]), values[k, slot])
    return out


@dataclass(frozen=True, eq=False)
class DofMap:
    """Numbering of free dofs: ``index`` (n_nodes, 3), in DOF_NAMES order,
    numbers the free dofs 0, 1, ... in row-major order; constrained entries
    hold -1."""

    index: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", readonly(self.index, int))

    @property
    def n_free(self) -> int:
        return int(np.count_nonzero(self.index >= 0))


def build_dof_map(model: GrillageModel) -> DofMap:
    free = np.ones((model.n_nodes, 3), dtype=bool)
    for sup in model.supports:
        for name in sup.dofs:
            free[sup.node, DOF_NAMES.index(name)] = False
    index = np.full((model.n_nodes, 3), -1, dtype=int)
    index[free] = np.arange(np.count_nonzero(free))
    return DofMap(index)


def assemble(model: GrillageModel) -> tuple[np.ndarray, DofMap]:
    """Assemble the global stiffness and prove it positive definite: the
    read-only matrix K of the constrained system on the free dofs, and their
    numbering.

    Raises :class:`FactorizationError` when the supports leave rigid body
    modes, detected by a trial Cholesky factorization.
    """
    dof_map = build_dof_map(model)
    n_full = 3 * model.n_nodes
    k_full = np.zeros((n_full, n_full))
    lengths, cosines, slots = element_geometry(model, range(len(model.elements)))
    local = _local_stiffness([e.section.bending_stiffness for e in model.elements],
                             [e.section.torsion_stiffness for e in model.elements], lengths)
    t = element_transform(cosines[:, 0], cosines[:, 1])
    # one stacked t^T k t, then every element's block added in element order
    np.add.at(k_full, (slots[:, :, None], slots[:, None, :]), np.swapaxes(t, 1, 2) @ local @ t)
    k_full = 0.5 * (k_full + k_full.T)

    keep = np.flatnonzero(dof_map.index >= 0)
    k_free = k_full[np.ix_(keep, keep)]
    try:
        np.linalg.cholesky(k_free)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            "stiffness matrix is not positive definite: unconstrained rigid body modes"
        ) from exc
    return readonly(k_free), dof_map


def solve(stiffness: np.ndarray, forces: np.ndarray) -> np.ndarray:
    """Solve K u = f for one or many right-hand sides on the free dofs.

    LU with partial pivoting (``np.linalg.solve``) is backward stable like a
    Cholesky solve; products with an explicit inverse factor lose about a
    digit more in the strain projection of the prior covariance. K was
    proven positive definite at assembly.
    """
    forces = np.asarray(forces, dtype=float)
    n = stiffness.shape[0]
    if forces.shape[0] != n:
        raise ValueError(f"force vector has {forces.shape[0]} rows, system has {n}")
    return np.linalg.solve(stiffness, forces)


@dataclass(frozen=True, eq=False)
class StrainOperator:
    """Linear map from free dofs to axial strains at gauge locations, one
    row per gauge in layout order."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", readonly(self.matrix))


def operator_matrix(strain_op) -> np.ndarray:
    """The matrix of a :class:`StrainOperator`; a bare array passes through."""
    if isinstance(strain_op, StrainOperator):
        return strain_op.matrix
    return np.asarray(strain_op, dtype=float)


def build_strain_operator(model: GrillageModel, dof_map: DofMap, sensors) -> StrainOperator:
    """Assemble the gauge strain operator.

    ``sensors`` is an iterable of resolved gauge descriptions carrying
    ``id``, ``element``, ``t`` and ``fiber`` attributes (see the sensor
    layout type). Axial strain at a fiber offset z from the neutral axis is
    -z * w'' along the member, so each row is the fiber-signed curvature
    row of the carrying element mapped to global dofs; rows at mirrored
    fibers differ only in sign.
    """
    sensors = list(sensors)
    if not sensors:
        raise ValueError("strain operator needs at least one sensor")
    elements = np.array([sensor.element for sensor in sensors], dtype=int)
    fiber = np.array([model.elements[sensor.element].section.fiber_distance for sensor in sensors])
    z = np.where([sensor.fiber == "top" for sensor in sensors], fiber, -fiber)
    curv = hermite_curvature(np.array([sensor.t for sensor in sensors], dtype=float), model.lengths[elements])
    local = np.zeros((len(sensors), 6))
    local[:, [0, 1, 3, 4]] = (-z * curv).T
    rows = element_columns(model, dof_map, elements, local, np.arange(len(sensors)), len(sensors)).T
    return StrainOperator(np.ascontiguousarray(rows))


def chol_psd(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a (possibly semidefinite) covariance.

    Escalates diagonal jitter eps * mean(diag) through JITTER_LADDER, each
    rung set on the diagonal of one copy of ``cov``, and returns the factor
    together with the jitter actually added. A matrix of exact zeros factors
    to zeros. Raises :class:`FactorizationError` when the ladder is exhausted.
    """
    cov = np.asarray(cov, dtype=float)
    scale = float(np.mean(np.diagonal(cov)))
    if scale == 0.0 and not np.any(cov):
        return np.zeros_like(cov), 0.0
    with suppress(np.linalg.LinAlgError):
        return np.linalg.cholesky(cov), 0.0
    shifted, diag = cov.copy(), np.diagonal(cov)
    for eps in JITTER_LADDER:
        np.fill_diagonal(shifted, diag + eps * scale)
        with suppress(np.linalg.LinAlgError):
            return np.linalg.cholesky(shifted), eps * scale
    raise FactorizationError(
        f"covariance cannot be factored even with jitter up to {JITTER_LADDER[-1]:.0e} * mean diagonal"
    )


def squared_distances(points, others=None) -> np.ndarray:
    """Squared plan distances (n, m) from the rows of an (n, 2) array to those
    of an (m, 2) array, the same rows by default: dx^2 + dy^2 from the two
    coordinate columns, in place, with one (n, m) temporary."""
    p = np.asarray(points, dtype=float)
    q = p if others is None else np.asarray(others, dtype=float)
    d2 = np.subtract.outer(p[:, 0], q[:, 0])
    d2 *= d2
    dy = np.subtract.outer(p[:, 1], q[:, 1])
    dy *= dy
    d2 += dy
    return d2


def sq_exp_correlation(d2: np.ndarray, ell: float) -> np.ndarray:
    """Unit-amplitude squared exponential kernel exp(-d2 / (2 ell^2)) from
    squared plan distances, in one new array; the one builder of the
    mismatch and deck-load kernels."""
    out = np.negative(d2)
    out /= 2.0 * ell * ell
    return np.exp(out, out=out)


def _project_covariance(p: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """P C P^T, symmetrised as 0.5 (X + X^T): rounding leaves the product
    asymmetric, by more than the symmetry check allows once conditioning has
    cancelled C down to rounding noise. The diagonal is bit-exact, since
    0.5 (x + x) == x."""
    projected = p @ cov @ p.T
    return 0.5 * (projected + projected.T)


def _check_symmetric(cov: np.ndarray, what: str) -> None:
    """Refuse ``cov`` unless np.allclose(cov, cov.T, atol=1e-10 max |cov|,
    rtol=0), tested with one n x n float temporary where that makes three."""
    scale = np.max(np.abs(cov)) if cov.size else 0.0
    with np.errstate(invalid="ignore"):
        diff = cov - cov.T
        close = np.abs(diff, out=diff) <= 1e-10 * scale + 1e-300
    if not np.all((close & np.isfinite(cov.T)) | (cov == cov.T)):
        raise ValueError(f"{what} must be symmetric")


@dataclass(frozen=True, eq=False)
class GaussianBelief:
    """Multivariate normal over a vector of physical quantities.

    ``jitter`` records any diagonal inflation applied upstream while
    factoring the covariance it was derived from.
    """

    mean: np.ndarray
    cov: np.ndarray
    jitter: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", readonly(np.asarray(self.mean, dtype=float).reshape(-1)))
        object.__setattr__(self, "cov", readonly(self.cov))
        n = self.mean.shape[0]
        if self.cov.shape != (n, n):
            raise ValueError(f"covariance shape {self.cov.shape} does not match mean length {n}")
        _check_symmetric(self.cov, "covariance")

    def std(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diagonal(self.cov), 0.0, None))

    def project(self, strain_op) -> "GaussianBelief":
        """The belief pushed through a linear map: N(P m, P C P^T), keeping
        the jitter."""
        p = operator_matrix(strain_op)
        return GaussianBelief(p @ self.mean, _project_covariance(p, self.cov), jitter=self.jitter)


def propagate_prior(
    stiffness: np.ndarray, mean_force: np.ndarray, force_cov: np.ndarray
) -> GaussianBelief:
    """Push a Gaussian load through the linear system: :func:`propagate_prior_series`
    on one column, so u ~ N(K^-1 mean, K^-1 C_f K^-T)."""
    mean_forces = np.asarray(mean_force, dtype=float)[:, None]
    return propagate_prior_series(stiffness, mean_forces, force_cov).instant(0)


@dataclass(frozen=True, eq=False)
class PriorEnsemble:
    """Per-instant prior means sharing one covariance, over the free dofs or,
    from :func:`propagate_strain_prior`, over the gauges.

    The load covariance of a passing train model is time invariant, so the
    solved covariance is computed once; only the means vary with time.
    """

    means: np.ndarray  # (n, n_instants)
    cov: np.ndarray
    jitter: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", readonly(self.means))
        object.__setattr__(self, "cov", readonly(self.cov))

    def instant(self, k: int) -> GaussianBelief:
        return GaussianBelief(self.means[:, k], self.cov, jitter=self.jitter)

    def projected(self, strain_op) -> tuple[np.ndarray, np.ndarray]:
        """(strain means P M (n_y, n_instants), strain covariance P C P^T (n_y, n_y))."""
        p = operator_matrix(strain_op)
        return p @ self.means, _project_covariance(p, self.cov)


def _load_inputs(force_cov) -> tuple[np.ndarray, float]:
    """The load covariance C_f, proven PSD by the jitter policy, with the
    jitter added to its diagonal, and that jitter."""
    force_cov = np.asarray(force_cov, dtype=float)
    _check_symmetric(force_cov, "load covariance")
    jitter = chol_psd(force_cov)[1]  # the factor is dropped before the copy is made
    if jitter > 0.0:
        force_cov = force_cov.copy()
        np.fill_diagonal(force_cov, np.diagonal(force_cov) + jitter)
    return force_cov, jitter


def propagate_prior_series(
    stiffness: np.ndarray, mean_forces: np.ndarray, force_cov: np.ndarray
) -> PriorEnsemble:
    """Push loads f_k ~ N(m_k, C_f), one column of ``mean_forces`` each, through
    the linear system: u_k ~ N(K^-1 m_k, K^-1 C_f K^-T), through :func:`solve`
    and never forming K^-1. The covariance is solved once and shared by every
    column; C_f is proven PSD by the jitter policy first and any jitter used
    is recorded on the returned ensemble."""
    mean_forces = np.asarray(mean_forces, dtype=float)
    if mean_forces.ndim != 2:
        raise ValueError("mean_forces must be (n_free, n_instants)")
    force_cov, jitter = _load_inputs(force_cov)
    means = solve(stiffness, mean_forces)
    half = solve(stiffness, force_cov)
    cov = solve(stiffness, half.T)
    cov = 0.5 * (cov + cov.T)
    return PriorEnsemble(means, cov, jitter=jitter)


def propagate_strain_prior(
    stiffness: np.ndarray, strain_op, force_blocks, force_cov: np.ndarray
) -> PriorEnsemble:
    """The prior of :func:`propagate_prior_series` as the gauges read it:
    strain means P K^-1 m_k (n_y, n_instants) and covariance P K^-1 C_f K^-1 P^T.
    K is symmetric, so one adjoint solve K X = P^T with n_y right-hand sides
    gives both, as X^T m_k and X^T C_f X; no dof-space mean or covariance is
    formed. The mean loads come as ``force_blocks``, an iterable of
    (n_free, b) blocks of consecutive instants, and X^T m_k is formed one
    block at a time, so the loads of every instant are never held at once.
    The jitter policy and its record are those of the dof route."""
    force_cov, jitter = _load_inputs(force_cov)
    adjoint_t = solve(stiffness, operator_matrix(strain_op).T).T
    means = np.concatenate([np.empty((len(adjoint_t), 0)), *(adjoint_t @ block for block in force_blocks)], axis=1)
    return PriorEnsemble(means, _project_covariance(adjoint_t, force_cov), jitter=jitter)
