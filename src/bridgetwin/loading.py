"""Traffic loading: a deterministic axle train plus a random deck load.

A crossing train is idealized as point loads that enter the named track
line at ``arrival_time`` and travel at constant speed; wheels of one axle
straddle the rail seats but land on the same girder line, so an axle
contributes its full load at one arc position. On top of the train, slowly
varying deck traffic is modelled as a zero-mean Gaussian random field with
a squared exponential kernel, discretized onto the grillage through the
beam shape functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fem import DofMap, element_columns, hermite_shape, sq_exp_correlation, squared_distances
from .model import ConfigError, GrillageModel, read_document, readonly

_TIME_EPS = 1e-9
# Gauss-Legendre nodes and weights on [-1, 1] of the deck-load integrals,
# QUAD_ORDER points per member: numpy.polynomial.legendre.leggauss(QUAD_ORDER)
# to the bit, written out so that no command imports numpy.polynomial
QUAD_NODES = (-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526)
QUAD_WEIGHTS = (0.34785484513745357, 0.6521451548625464, 0.6521451548625464, 0.34785484513745357)
QUAD_ORDER = len(QUAD_NODES)
# deck-load kernel columns built at a time: bounds the kernel's temporaries
QUAD_BLOCK = 64
# instants whose train forces are formed at a time: bounds the force temporaries
FORCE_BLOCK = 64


@dataclass(frozen=True)
class TrainScenario:
    """A train crossing plus the recording cadence.

    ``axle_offsets`` are distances of each axle behind the leading axle
    (first entry normally 0); ``axle_load`` is the full per-axle force in N
    (both wheels). ``length`` is the overall vehicle length used for the
    crossing time; it defaults to the last axle offset.
    """

    axle_offsets: tuple[float, ...]
    axle_load: float
    speed: float
    track_line: str
    time_step: float
    time_window: tuple[float, float]
    arrival_time: float = 0.0
    length: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "axle_offsets", tuple(float(a) for a in self.axle_offsets))
        if not self.axle_offsets:
            raise ConfigError("a train needs at least one axle")
        if any(a < 0.0 or not math.isfinite(a) for a in self.axle_offsets):
            raise ConfigError("axle offsets must be finite and nonnegative")
        if not (math.isfinite(self.axle_load) and self.axle_load > 0.0):
            raise ConfigError(f"axle load must be positive, got {self.axle_load}")
        if not (math.isfinite(self.speed) and self.speed > 0.0):
            raise ConfigError(f"speed must be positive, got {self.speed}")
        t0, t1 = self.time_window
        finite = {"time_step": self.time_step, "time_window[0]": t0, "time_window[1]": t1,
                  "arrival_time": self.arrival_time, "length": self.length}
        for name, value in finite.items():
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.time_step <= 0.0:
            raise ConfigError(f"time step must be positive, got {self.time_step}")
        if not t1 > t0:
            raise ConfigError(f"time window must be increasing, got {self.time_window}")
        if self.length is not None and self.length < max(self.axle_offsets):
            raise ConfigError("train length cannot be shorter than the axle layout")

    @property
    def overall_length(self) -> float:
        return max(self.axle_offsets) if self.length is None else self.length

    def crossing_time(self, span: float) -> float:
        """Time from the first axle entering to the last axle leaving."""
        return (span + self.overall_length) / self.speed

    def timestamps(self) -> np.ndarray:
        t0, t1 = self.time_window
        n = int(round((t1 - t0) / self.time_step)) + 1
        return t0 + np.arange(n) * self.time_step


def _axle_grid(scenario: TrainScenario, times, span: float) -> tuple[np.ndarray, np.ndarray]:
    """Arc positions of every axle at every time, (n_times, n_axles), and
    the mask of those on the span."""
    head = scenario.speed * (np.asarray(times, dtype=float) - scenario.arrival_time)
    pos = head[:, None] - np.asarray(scenario.axle_offsets)
    return pos, (pos >= 0.0) & (pos <= span)


def _train_forces(model: GrillageModel, dof_map: DofMap, scenario: TrainScenario, times) -> np.ndarray:
    """Consistent free-dof forces of the train, one column per time.

    Every axle of every instant is placed in one broadcast over times x
    axles; the axles on the span are located on the track line in one call,
    instant by instant in axle order, and their load-scaled shape vectors
    are scattered into their instants' columns in one more, which sums each
    instant's axles in that order.
    """
    span = model.line_length(scenario.track_line)
    pos, on_span = _axle_grid(scenario, times, span)
    elements, local_t = model.locate_on_line(scenario.track_line, pos[on_span])
    local = np.zeros((elements.size, 6))
    shape = hermite_shape(local_t, model.lengths[elements])
    local[:, [0, 1, 3, 4]] = (scenario.axle_load * shape).T
    columns = np.nonzero(on_span)[0]
    return element_columns(model, dof_map, elements, local, columns, len(pos))


@dataclass(frozen=True, eq=False)
class LoadSeries:
    """The train forcing over the recording window, formed on demand.

    Only the inputs are held: no force matrix is kept. ``norms`` are the
    per-instant force norms and ``gamma`` the relative intensities, the
    norms scaled by their maximum: quiescent instants have gamma 0 and the
    loudest instant has gamma 1. The norms are derived in one pass over
    :meth:`force_blocks`.
    """

    model: GrillageModel
    scenario: TrainScenario

    def __len__(self) -> int:
        return self.timestamps.shape[0]

    @cached_property
    def timestamps(self) -> np.ndarray:
        return readonly(self.scenario.timestamps())

    def forces(self, indices=None) -> np.ndarray:
        """Free-dof forces (n_free, n) of the selected instants (all by
        default), one column per instant, formed on each call."""
        times = self.timestamps if indices is None else self.timestamps[np.asarray(indices)]
        return _train_forces(self.model, self.model.assembled[1], self.scenario, times)

    def force_blocks(self, indices=None):
        """The forces of the selected instants (all by default), FORCE_BLOCK
        instants at a time, in order."""
        indices = np.arange(len(self)) if indices is None else np.asarray(indices)
        for lo in range(0, indices.size, FORCE_BLOCK):
            yield self.forces(indices[lo:lo + FORCE_BLOCK])

    @cached_property
    def norms(self) -> np.ndarray:
        return readonly(np.concatenate([np.linalg.norm(block, axis=0) for block in self.force_blocks()]))

    @cached_property
    def gamma(self) -> np.ndarray:
        return readonly(self.norms / self.norms.max())


def load_series(model: GrillageModel, scenario: TrainScenario) -> LoadSeries:
    """The train forcing at every recording instant, its norms derived.

    Raises :class:`ValueError` when the train never touches the span inside
    the window, which would leave an empty effective observation window.
    """
    series = LoadSeries(model, scenario)
    if series.norms.max() == 0.0:
        raise ValueError("empty effective observation window: train never loads the span")
    return series


def select_window(
    timestamps: np.ndarray, t0: float | None = None, t1: float | None = None, stride: int = 1
) -> np.ndarray:
    """Indices of the instants inside [t0, t1], thinned by ``stride``."""
    timestamps = np.asarray(timestamps)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    mask = np.ones(timestamps.shape[0], dtype=bool)
    if t0 is not None:
        mask &= timestamps >= t0 - _TIME_EPS
    if t1 is not None:
        mask &= timestamps <= t1 + _TIME_EPS
    return np.nonzero(mask)[0][::stride]


@dataclass(frozen=True)
class RandomLoadSpec:
    """Zero-mean squared exponential random deck load.

    ``sigma`` is the pressure amplitude in Pa, ``length_scale`` the kernel
    length in m, and ``tributary_width`` the deck strip width carried per
    unit member length; when None the model's deck spacing is used.
    """

    sigma: float
    length_scale: float
    tributary_width: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ConfigError(f"random load amplitude must be positive, got {self.sigma}")
        if not (math.isfinite(self.length_scale) and self.length_scale > 0.0):
            raise ConfigError(f"random load length scale must be positive, got {self.length_scale}")


def force_covariance(model: GrillageModel, dof_map: DofMap, spec: RandomLoadSpec) -> np.ndarray:
    """Free-dof covariance of the random deck load.

    Every member carries a tributary deck strip; the pressure field with
    kernel sigma^2 exp(-|x - x'|^2 / (2 l^2)) over plan distance is pushed
    through QUAD_ORDER-point Gauss-Legendre line integrals of the
    translational beam shapes (deflection terms only, rotational loads are
    not excited). The result is B K B^T and therefore positive semidefinite
    by construction; it is supported on the deflection dofs alone. B K is
    formed QUAD_BLOCK columns of K at a time, by the same sums as the whole
    product, so no array of all pairs of quadrature points is made.
    """
    width = spec.tributary_width if spec.tributary_width is not None else model.deck_spacing
    if width is None or width <= 0.0:
        raise ConfigError("random load needs a positive tributary width or model deck spacing")
    xi = 0.5 * (np.array(QUAD_NODES) + 1.0)
    wq = 0.5 * np.array(QUAD_WEIGHTS)

    n_elements = len(model.elements)
    elements = np.repeat(np.arange(n_elements), QUAD_ORDER)
    lengths = model.lengths[elements]
    shape = hermite_shape(np.tile(xi, n_elements), lengths)
    weight = np.tile(wq, n_elements) * lengths * width
    local = np.zeros((elements.size, 6))
    local[:, [0, 3]] = (weight * shape[[0, 2]]).T
    basis = element_columns(model, dof_map, elements, local, np.arange(elements.size), elements.size)
    starts = model.nodes[model.ends[:, 0]][:, None]  # (n_elements, 1, 2) against (QUAD_ORDER, 1)
    points = (starts + xi[:, None] * model.vectors[:, None]).reshape(-1, 2)
    weighted = np.empty_like(basis)
    for lo in range(0, len(points), QUAD_BLOCK):
        kernel = sq_exp_correlation(squared_distances(points, points[lo:lo + QUAD_BLOCK]), spec.length_scale)
        kernel *= spec.sigma**2
        weighted[:, lo:lo + QUAD_BLOCK] = basis @ kernel
    cov = weighted @ basis.T
    cov += cov.T
    cov *= 0.5
    return cov


def load_scenario_config(path: str) -> tuple[TrainScenario, RandomLoadSpec | None]:
    """Read a YAML crossing scenario: train, recording cadence, random load."""
    doc = read_document(path)
    train, recording = doc.mapping("train"), doc.mapping("recording")
    if "speed_kmh" in train and "speed" not in train:
        speed = train.number("speed_kmh") / 3.6
    else:
        speed = train.number("speed")
    window = recording.numbers("time_window")
    if len(window) != 2:
        raise ConfigError(f"recording.time_window must be [start, end], got {list(window)}")
    scenario = TrainScenario(
        axle_offsets=train.numbers("axle_offsets"),
        axle_load=train.number("axle_load"),
        speed=speed,
        track_line=str(train.get("track_line")),
        time_step=recording.number("time_step"),
        time_window=window,
        arrival_time=train.number("arrival_time", 0.0),
        length=train.number("length", None),
    )
    deck = doc.mapping("random_load", None)
    if deck is None:
        return scenario, None
    return scenario, RandomLoadSpec(deck.number("sigma"), deck.number("length_scale"),
                                    deck.number("tributary_width", None))
