"""End-to-end wiring shared by the command line and the studies.

A :class:`TwinContext` holds one bridge model, one crossing scenario and
one gauge layout, with the assembled system, strain operator, load series
and propagated priors cached behind it. Commands and tests build the
context once and pull windows, priors and observation sets from it. The
context is frozen, so no configuration can change underneath its caches;
``dataclasses.replace`` gives a new context with fresh caches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import dataio
from .fem import (
    DofMap,
    PriorEnsemble,
    StiffnessMatrix,
    StrainOperator,
    assemble,
    build_strain_operator,
    propagate_prior_series,
    solve,
)
from .loading import (LoadSeries, RandomLoadSpec, TrainScenario, force_covariance, load_scenario_config,
                      load_series)
from .model import ConfigError, GrillageModel, load_model_config
from .statfem import ObservationSet, SensorLayout

_MATCH_TOL = 1e-9
# the head of a recording, in s, that the gauge noise is estimated from when not given
_QUIET_HEAD = 0.5


@dataclass(frozen=True)
class TwinContext:
    model: GrillageModel
    scenario: TrainScenario
    random_load: RandomLoadSpec
    layout: SensorLayout
    dof_map: DofMap
    stiffness: StiffnessMatrix
    strain_op: StrainOperator
    series: LoadSeries

    @classmethod
    def build(
        cls,
        model: GrillageModel,
        scenario: TrainScenario,
        random_load: RandomLoadSpec,
        sensor_entries,
    ) -> "TwinContext":
        stiffness, dof_map = assemble(model)
        layout = SensorLayout.resolve(model, sensor_entries)
        strain_op = build_strain_operator(model, dof_map, layout.sensors)
        series = load_series(model, dof_map, scenario)
        return cls(model, scenario, random_load, layout, dof_map, stiffness, strain_op, series)

    @classmethod
    def from_files(cls, model_path: str, scenario_path: str, sensors_path: str) -> "TwinContext":
        model = load_model_config(model_path)
        scenario, random_load = load_scenario_config(scenario_path)
        if random_load is None:
            raise ConfigError(f"{scenario_path} declares no random_load section")
        entries = dataio.read_layout_entries(sensors_path)
        return cls.build(model, scenario, random_load, entries)

    @cached_property
    def _force_cov(self) -> np.ndarray:
        return force_covariance(self.model, self.dof_map, self.random_load)

    @cached_property
    def _prior(self) -> PriorEnsemble:
        return propagate_prior_series(self.stiffness, self.series.forces, self.force_cov())

    def force_cov(self) -> np.ndarray:
        return self._force_cov

    def prior_series(self, indices=None) -> PriorEnsemble:
        """Propagated dof priors at the selected instants (all by default).

        Every instant is solved once, on first use, and the selections share
        that one covariance.
        """
        full = self._prior
        means = full.means if indices is None else full.means[:, np.asarray(indices)]
        return PriorEnsemble(means, full.cov, jitter=full.jitter)

    def strain_means(self, indices=None) -> np.ndarray:
        """Deterministic model strains P u_k at the selected instants."""
        priors = self.prior_series(indices)
        means_s, _ = priors.projected(self.strain_op)
        return means_s

    def operator_for(self, layout: SensorLayout) -> StrainOperator:
        """Strain operator rows for an alternative gauge layout."""
        return build_strain_operator(self.model, self.dof_map, layout.sensors)

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

    def observations_from_arrays(
        self, strains: np.ndarray, timestamps: np.ndarray, sigma_e: float
    ) -> ObservationSet:
        idx = self.match_instants(timestamps)
        return ObservationSet(strains, timestamps, sigma_e, self.series.gamma[idx], self.layout)

    def observations_from_csv(self, path: str, sigma_e: float | None = None) -> ObservationSet:
        """Ingest a recording CSV against this context.

        Column order must match the layout ids exactly; the per-instant
        load levels are reconstructed from the scenario. When ``sigma_e``
        is not given it is estimated from the first half second of the
        recording.
        """
        ids, timestamps, strains = dataio.read_observation_table(path)
        if ids != self.layout.ids:
            raise ConfigError(
                f"{path} columns {ids[:4]}... do not match the sensor layout {self.layout.ids[:4]}..."
            )
        obs = self.observations_from_arrays(strains, timestamps, 0.0 if sigma_e is None else sigma_e)
        if sigma_e is None:
            from .synth import estimate_noise_std

            t0 = float(timestamps[0])
            obs = replace(obs, sigma_e=estimate_noise_std(obs, (t0, t0 + _QUIET_HEAD)))
        return obs
