"""End-to-end wiring shared by the command line and the studies.

A :class:`TwinContext` holds one bridge model, one crossing scenario, one
random deck load and one list of gauge descriptions. Only these inputs are
settable: the gauge layout, strain operator and load series are built from
them and the model's one assembly when the context is made, the
propagated dof priors on first use, and the prior as the gauges read it on
each request. Commands and tests build the context once
and pull windows, priors and observation sets from it. The context and all
it holds or hands out are read-only, so no input can change underneath
what it derived; ``dataclasses.replace`` with new inputs rebuilds the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from types import MappingProxyType

import numpy as np

from . import dataio
from .fem import (PriorEnsemble, StrainOperator, build_strain_operator, propagate_prior_series,
                  propagate_strain_prior)
from .loading import (LoadSeries, RandomLoadSpec, TrainScenario, force_covariance, load_scenario_config,
                      load_series, select_window)
from .model import ConfigError, GrillageModel, load_model_config, readonly
from .statfem import ObservationSet, SensorLayout
from .synth import estimate_noise_std

_MATCH_TOL = 1e-9
# the head of a recording, in s, whose unloaded rows the gauge noise is estimated from when not given
_QUIET_HEAD = 0.5


@dataclass(frozen=True, eq=False)
class TwinContext:
    model: GrillageModel
    scenario: TrainScenario
    random_load: RandomLoadSpec
    sensor_entries: tuple[MappingProxyType, ...]
    layout: SensorLayout = field(init=False)
    strain_op: StrainOperator = field(init=False)
    series: LoadSeries = field(init=False)

    def __post_init__(self) -> None:
        derive = partial(object.__setattr__, self)
        derive("sensor_entries", tuple(MappingProxyType(dict(entry)) for entry in self.sensor_entries))
        _, dof_map = self.model.assembled
        derive("layout", SensorLayout.resolve(self.model, self.sensor_entries))
        derive("strain_op", build_strain_operator(self.model, dof_map, self.layout.sensors))
        derive("series", load_series(self.model, dof_map, self.scenario))

    @classmethod
    def from_files(cls, model_path: str, scenario_path: str, sensors_path: str) -> "TwinContext":
        model = load_model_config(model_path)
        scenario, random_load = load_scenario_config(scenario_path)
        if random_load is None:
            raise ConfigError(f"{scenario_path} declares no random_load section")
        entries = dataio.read_layout_entries(sensors_path)
        return cls(model, scenario, random_load, entries)

    @cached_property
    def force_cov(self) -> np.ndarray:
        """Covariance of the random deck load on the free dofs, computed on first use."""
        _, dof_map = self.model.assembled
        return readonly(force_covariance(self.model, dof_map, self.random_load))

    @cached_property
    def _prior(self) -> PriorEnsemble:
        stiffness, _ = self.model.assembled
        return propagate_prior_series(stiffness, self.series.forces, self.force_cov)

    def prior_series(self, indices=None) -> PriorEnsemble:
        """Propagated dof priors at the selected instants (all by default).

        Every instant is solved once, on first use, and the selections share
        that one covariance.
        """
        full = self._prior
        return full if indices is None else replace(full, means=full.means[:, np.asarray(indices)])

    def strain_prior(self, indices=None) -> PriorEnsemble:
        """The prior as the gauges read it at the selected instants (all by
        default): strain means P u_k and covariance P C_u P^T, from one
        adjoint solve with a right-hand side per gauge, never the dof
        ensemble of :meth:`prior_series`. The jitter is that ensemble's."""
        stiffness, _ = self.model.assembled
        forces = self.series.forces if indices is None else self.series.forces[:, np.asarray(indices)]
        return propagate_strain_prior(stiffness, self.strain_op, forces, self.force_cov)

    def strain_means(self) -> np.ndarray:
        """Deterministic model strains P u_k at every instant of the series."""
        return self.strain_prior().means

    def operator_for(self, layout: SensorLayout) -> StrainOperator:
        """Strain operator rows for an alternative gauge layout."""
        _, dof_map = self.model.assembled
        return build_strain_operator(self.model, dof_map, layout.sensors)

    def match_instants(self, timestamps: np.ndarray) -> np.ndarray:
        """Series indices of externally supplied timestamps.

        The recording must sit on the scenario cadence; anything else is a
        configuration mismatch.
        """
        timestamps = np.asarray(timestamps, dtype=float)
        t0 = float(self.series.timestamps[0])
        dt = self.scenario.time_step
        steps = np.round((timestamps - t0) / dt)
        if not np.all((steps >= 0) & (steps < len(self.series))):
            raise ConfigError("recording timestamps fall outside the scenario window")
        idx = steps.astype(int)
        if np.max(np.abs(self.series.timestamps[idx] - timestamps)) > _MATCH_TOL:
            raise ConfigError("recording timestamps do not sit on the scenario cadence")
        return idx

    def observations_from_csv(self, path: str, sigma_e: float | None = None, rows=None) -> ObservationSet:
        """Ingest a recording CSV against this context.

        Column order must match the layout ids exactly; the per-instant
        load levels are reconstructed from the scenario. ``rows``, when
        given, is called with the timestamps and load levels of every row
        and returns the indices of the rows to keep; every row is kept by
        default. Every row's cell count and time cell are checked and
        every timestamp is matched to the scenario cadence first; then only
        the kept rows' strain cells are parsed. When ``sigma_e`` is not
        given it is estimated from the quiet head: the rows of the
        recording's first half second whose load level is exactly 0, which
        are parsed as well. Fewer than two such rows raise ConfigError.
        """
        recording = dataio.read_recording(path)
        ids, timestamps = list(recording.ids), recording.timestamps
        if ids != self.layout.ids:
            raise ConfigError(
                f"{path} columns {ids[:4]}... do not match the sensor layout {self.layout.ids[:4]}..."
            )
        gamma = self.series.gamma[self.match_instants(timestamps)]
        kept = np.arange(timestamps.size) if rows is None else np.asarray(rows(timestamps, gamma))
        if sigma_e is None:
            t0 = float(timestamps[0])
            head = select_window(timestamps, t0, t0 + _QUIET_HEAD)
            head = head[gamma[head] == 0.0]
            if head.size < 2:
                raise ConfigError(f"{path} has {head.size} unloaded rows in its first {_QUIET_HEAD:g} s, "
                                  f"too few to estimate the gauge noise from; give it with --sigma-e")
            sigma_e = estimate_noise_std(recording.strains(head))
        return ObservationSet(recording.strains(kept), timestamps[kept], sigma_e, gamma[kept], self.layout)
