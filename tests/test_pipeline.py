import dataclasses
import warnings

import numpy as np
import pytest

from bridgetwin.dataio import read_layout_entries, write_observations
from bridgetwin.model import ConfigError
from bridgetwin.pipeline import TwinContext
from bridgetwin.statfem import EvidenceBasis, Hyperparameters, ObservationSet, SensorLayout, log_marginal
from bridgetwin.synth import DiscrepancySpec, generate_observations, generate_truth

from conftest import BRIDGE_YAML, SENSORS_EAST, SENSORS_WEST, TRAIN_YAML, cropped_recording


class TestBuild:
    def test_from_files(self, bundled_ctx):
        assert bundled_ctx.model.assembled[1].n_free == 242
        assert len(bundled_ctx.layout) == 40
        assert bundled_ctx.series.forces.shape[0] == 242

    def test_operator_rows_follow_layout(self, bundled_ctx):
        op = bundled_ctx.operator_for(bundled_ctx.layout)
        ids = bundled_ctx.layout.ids
        for k in (0, 7, 39):
            row = bundled_ctx.operator_for(bundled_ctx.layout.subset([ids[k]])).matrix
            np.testing.assert_array_equal(op.matrix[[k]], row)

    def test_context_is_frozen(self, bundled_ctx):
        """No configuration can change underneath the cached priors."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            bundled_ctx.random_load = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            bundled_ctx.series = None

    def test_replace_gives_fresh_caches(self, bundled_ctx, study_ctx):
        softer = dataclasses.replace(bundled_ctx, random_load=study_ctx.random_load)
        np.testing.assert_array_equal(softer.force_cov, study_ctx.force_cov)
        assert not np.array_equal(softer.force_cov, bundled_ctx.force_cov)

    def test_only_inputs_are_settable(self, bundled_ctx):
        assert [f.name for f in dataclasses.fields(bundled_ctx) if f.init] == [
            "model", "scenario", "random_load", "sensor_entries"]
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(bundled_ctx, series=bundled_ctx.series)

    def test_replace_scenario_rebuilds_the_load_series(self, bundled_ctx):
        """A slower train over a longer window: twice the instants, not the
        source context's 901."""
        scenario = dataclasses.replace(bundled_ctx.scenario, speed=bundled_ctx.scenario.speed / 2.0,
                                       time_window=(0.0, 7.2))
        slower = dataclasses.replace(bundled_ctx, scenario=scenario)
        assert len(slower.series) == len(scenario.timestamps()) == 1801
        _assert_same_pieces(slower, TwinContext(bundled_ctx.model, scenario, bundled_ctx.random_load,
                                                bundled_ctx.sensor_entries))

    def test_replace_sensor_entries_rebuilds_layout_and_operator(self, bundled_ctx):
        west = read_layout_entries(SENSORS_WEST)
        moved = dataclasses.replace(bundled_ctx, sensor_entries=west)
        assert moved.layout.ids == [entry["id"] for entry in west]
        _assert_same_pieces(moved, TwinContext.from_files(BRIDGE_YAML, TRAIN_YAML, SENSORS_WEST))

    def test_replace_model_rebuilds_every_derived_piece(self, bundled_ctx):
        model = bundled_ctx.model
        stiffer = dataclasses.replace(model, elements=[dataclasses.replace(e, section=dataclasses.replace(
            e.section, bending_stiffness=2.0 * e.section.bending_stiffness)) for e in model.elements])
        rebuilt = dataclasses.replace(bundled_ctx, model=stiffer)
        assert not np.array_equal(rebuilt.model.assembled[0], bundled_ctx.model.assembled[0])
        _assert_same_pieces(rebuilt, TwinContext(stiffer, bundled_ctx.scenario, bundled_ctx.random_load,
                                                 bundled_ctx.sensor_entries))


@pytest.fixture(scope="module")
def own_ctx():
    """A context of this module's own, so that an edit which got through
    could not reach the other modules' contexts."""
    return TwinContext.from_files(BRIDGE_YAML, TRAIN_YAML, SENSORS_EAST)


def _write_force_cov(ctx):
    ctx.force_cov[0, 0] = 0.0


def _write_prior_means(ctx):
    ctx.prior_series().means[:, 300] = 0.0


def _write_squared_distances(ctx):
    ctx.layout.squared_distances[0, 1] = 0.0


class TestNothingGoesStale:
    """An in-place edit of what a context holds or hands out raises, so
    nothing the context derived can go stale."""

    def test_one_assembly_per_context(self, assemble_calls):
        TwinContext.from_files(BRIDGE_YAML, TRAIN_YAML, SENSORS_EAST)
        assert len(assemble_calls) == 1

    def test_model_nodes_are_read_only(self, own_ctx):
        with pytest.raises(ValueError, match="read-only"):
            own_ctx.model.nodes[:, 0] *= 2.0
        np.testing.assert_array_equal(own_ctx.model.assembled[0],
                                      TwinContext(own_ctx.model, own_ctx.scenario, own_ctx.random_load,
                                                  own_ctx.sensor_entries).model.assembled[0])

    def test_sensor_entries_are_read_only(self, own_ctx):
        with pytest.raises(TypeError):
            own_ctx.sensor_entries[0]["x"] = 5.0
        assert own_ctx.layout.sensors[0].x == own_ctx.sensor_entries[0]["x"]

    def test_observation_noise_is_not_settable(self, own_ctx):
        obs = ObservationSet(own_ctx.strain_means(), own_ctx.series.timestamps, 1e-6, own_ctx.series.gamma,
                             own_ctx.layout)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obs.sigma_e = float("nan")
        assert obs.sigma_e == 1e-6

    @pytest.mark.parametrize("write", [_write_force_cov, _write_prior_means, _write_squared_distances],
                             ids=["force_cov", "prior_series", "squared_distances"])
    def test_cached_results_are_read_only(self, own_ctx, write):
        before = own_ctx.strain_means()
        with pytest.raises(ValueError, match="read-only"):
            write(own_ctx)
        np.testing.assert_array_equal(own_ctx.strain_means(), before)


def _assert_same_pieces(ctx, fresh):
    """Every derived piece of ``ctx`` equals the one a fresh context built."""
    assert ctx.layout == fresh.layout
    (stiffness, dof_map), (fresh_stiffness, fresh_dof_map) = ctx.model.assembled, fresh.model.assembled
    assert dof_map.n_free == fresh_dof_map.n_free
    np.testing.assert_array_equal(dof_map.index, fresh_dof_map.index)
    np.testing.assert_array_equal(stiffness, fresh_stiffness)
    np.testing.assert_array_equal(ctx.strain_op.matrix, fresh.strain_op.matrix)
    for name in ("timestamps", "forces", "gamma"):
        np.testing.assert_array_equal(getattr(ctx.series, name), getattr(fresh.series, name))
    np.testing.assert_array_equal(ctx.strain_means(), fresh.strain_means())


class TestPriorSeries:
    def test_selected_indices_match_full(self, bundled_ctx):
        idx = np.array([100, 350, 600])
        sub = bundled_ctx.prior_series(idx)
        full = bundled_ctx.prior_series()
        np.testing.assert_array_equal(sub.means, full.means[:, idx])
        np.testing.assert_array_equal(sub.cov, full.cov)


class TestStrainPrior:
    def test_matches_the_dof_route_read_through_the_operator(self, bundled_ctx):
        """One adjoint solve gives the strain means and covariance of the dof
        ensemble read through the operator, to rounding, with its jitter."""
        idx = np.array([100, 350, 600])
        strain = bundled_ctx.strain_prior(idx)
        means, cov = bundled_ctx.prior_series(idx).projected(bundled_ctx.strain_op)
        assert strain.means.shape == (40, 3) and strain.cov.shape == (40, 40)
        np.testing.assert_allclose(strain.means, means, rtol=0.0, atol=1e-12 * np.abs(means).max())
        np.testing.assert_allclose(strain.cov, cov, rtol=0.0, atol=1e-9 * np.abs(cov).max())
        np.testing.assert_array_equal(strain.cov, strain.cov.T)
        assert strain.jitter == bundled_ctx.prior_series().jitter > 0.0
        np.testing.assert_array_equal(bundled_ctx.strain_means(), bundled_ctx.strain_prior().means)

    def test_held_out_rows_follow_the_gauges(self, bundled_ctx):
        """Given a held-out layout, the rows are the context's 40 gauges and
        then the 20 held-out ones, as the dof route reads them through both
        operators stacked."""
        idx = np.array([350, 600])
        held_out = SensorLayout.resolve(bundled_ctx.model, read_layout_entries(SENSORS_WEST))
        strain = bundled_ctx.strain_prior(idx, held_out)
        both = np.vstack([bundled_ctx.strain_op.matrix, bundled_ctx.operator_for(held_out).matrix])
        means, cov = bundled_ctx.prior_series(idx).projected(both)
        assert strain.means.shape == (60, 2) and strain.cov.shape == (60, 60)
        np.testing.assert_allclose(strain.means, means, rtol=0.0, atol=1e-12 * np.abs(means).max())
        np.testing.assert_allclose(strain.cov, cov, rtol=0.0, atol=1e-9 * np.abs(cov).max())
        gauges = bundled_ctx.strain_prior(idx)
        np.testing.assert_allclose(strain.means[:40], gauges.means, rtol=0.0, atol=1e-12 * np.abs(means).max())
        np.testing.assert_allclose(strain.cov[:40, :40], gauges.cov, rtol=0.0, atol=1e-12 * np.abs(cov).max())
        assert strain.jitter == gauges.jitter

    def test_both_routes_score_a_recording_alike(self, bundled_ctx):
        """At rho <= 2 the evidence reads the two priors alike to 1e-10
        relative; 13 instants differed by at most 2.3e-11 at rho = 2. At
        rho = 100 they need not agree so closely: rho^2 / sigma_e^2
        amplifies the rounding of P M outside the range of P C P^T."""
        idx = np.arange(250, 750, 40)
        gamma = bundled_ctx.series.gamma[idx]
        strain = bundled_ctx.strain_prior(idx)
        truth = generate_truth(strain.means, gamma, bundled_ctx.layout, DiscrepancySpec(0.9, 4e-6, 0.5, seed=2))
        obs = generate_observations(truth, bundled_ctx.series.timestamps[idx], gamma, bundled_ctx.layout, 1e-6, 2)
        by_gauges = EvidenceBasis(obs, strain.means, strain.cov)
        by_dofs = EvidenceBasis(obs, *bundled_ctx.prior_series(idx).projected(bundled_ctx.strain_op))
        for w in (Hyperparameters(0.9, 4e-6, 0.5), Hyperparameters(2.0, 1e-6, 1.0), Hyperparameters(0.5, 1e-5, 0.1)):
            assert log_marginal(obs, w, by_gauges) == pytest.approx(log_marginal(obs, w, by_dofs), rel=1e-10)


class TestMatchInstants:
    def test_exact_grid_times(self, bundled_ctx):
        ts = bundled_ctx.series.timestamps
        idx = bundled_ctx.match_instants(ts[[3, 77, 900]])
        np.testing.assert_array_equal(idx, [3, 77, 900])

    def test_off_grid_time_rejected(self, bundled_ctx):
        with pytest.raises(ConfigError):
            bundled_ctx.match_instants(np.array([1.0001]))

    @pytest.mark.parametrize("t", [1e300, -1e300, np.nan])
    def test_time_far_outside_the_window_is_rejected_without_a_cast_warning(self, bundled_ctx, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="outside the scenario window"):
                bundled_ctx.match_instants(np.array([1.2, t]))


class TestObservationsFromCsv:
    def _write_synthetic(self, ctx, path, sigma_e=1e-6):
        idx = np.arange(0, ctx.series.timestamps.size, 10)
        means, _ = ctx.prior_series(idx).projected(ctx.operator_for(ctx.layout))
        gamma = ctx.series.gamma[idx]
        truth = generate_truth(means, gamma, ctx.layout,
                               DiscrepancySpec(0.9, 3e-6, 0.5, seed=1))
        obs = generate_observations(truth, ctx.series.timestamps[idx], gamma,
                                    ctx.layout, sigma_e, seed=1)
        write_observations(path, obs)
        return obs

    def test_round_trip_bits_and_metadata(self, bundled_ctx, tmp_path):
        path = tmp_path / "obs.csv"
        written = self._write_synthetic(bundled_ctx, path)
        loaded = bundled_ctx.observations_from_csv(path, sigma_e=1e-6)
        np.testing.assert_array_equal(loaded.strains, written.strains)
        np.testing.assert_array_equal(loaded.timestamps, written.timestamps)
        np.testing.assert_array_equal(loaded.gamma, written.gamma)
        assert loaded.layout.ids == bundled_ctx.layout.ids

    def test_sigma_estimated_from_quiet_head(self, bundled_ctx, tmp_path):
        path = tmp_path / "obs.csv"
        self._write_synthetic(bundled_ctx, path, sigma_e=2e-6)
        loaded = bundled_ctx.observations_from_csv(path)
        # the first half second is train-free by construction
        assert loaded.sigma_e == pytest.approx(2e-6, rel=0.25)

    def test_kept_rows_are_the_whole_recordings_selection(self, bundled_ctx, tmp_path):
        """``rows`` sees every row's timestamp and load level; the set it
        keeps is, bit for bit, that selection of the whole recording."""
        path = tmp_path / "obs.csv"
        self._write_synthetic(bundled_ctx, path)
        full = bundled_ctx.observations_from_csv(path, sigma_e=1e-6)
        seen = {}

        def rows(timestamps, gamma):
            seen.update(timestamps=timestamps, gamma=gamma)
            return np.array([3, 40, 77])

        kept = bundled_ctx.observations_from_csv(path, sigma_e=1e-6, rows=rows)
        np.testing.assert_array_equal(seen["timestamps"], full.timestamps)
        np.testing.assert_array_equal(seen["gamma"], full.gamma)
        want = full.select([3, 40, 77])
        for name in ("strains", "timestamps", "gamma"):
            np.testing.assert_array_equal(getattr(kept, name), getattr(want, name))
        assert kept.sigma_e == want.sigma_e

    def test_estimated_sigma_reads_the_quiet_head_of_the_whole_recording(self, bundled_ctx, tmp_path):
        """Keeping one late row still estimates the noise from the first
        half second of the recording, to the bit."""
        path = tmp_path / "obs.csv"
        self._write_synthetic(bundled_ctx, path, sigma_e=2e-6)
        full = bundled_ctx.observations_from_csv(path)
        last = bundled_ctx.observations_from_csv(path, rows=lambda timestamps, gamma: [timestamps.size - 1])
        assert last.sigma_e == full.sigma_e
        np.testing.assert_array_equal(last.strains, full.strains[:, -1:])
        np.testing.assert_array_equal(last.timestamps, full.timestamps[-1:])

    def test_estimated_sigma_reads_only_the_unloaded_rows_of_the_head(self, bundled_ctx, tmp_path):
        """Cropped to start at 0.3 s, the recording's first half second runs
        past the train's arrival at 0.55 s; only the rows before it, where
        the load level is 0, feed the noise estimate."""
        self._write_synthetic(bundled_ctx, tmp_path / "obs.csv", sigma_e=2e-6)
        path = cropped_recording(tmp_path / "obs.csv", tmp_path / "cropped.csv", 0.3)
        given = bundled_ctx.observations_from_csv(path, sigma_e=1e-6)
        quiet = given.timestamps < 0.55
        head = given.timestamps <= given.timestamps[0] + 0.5
        assert quiet.sum() >= 2 and np.all(given.gamma[quiet] == 0.0) and np.any(given.gamma[head] > 0.0)
        want = np.sqrt(np.mean(np.var(given.strains[:, quiet], axis=1, ddof=1)))
        assert bundled_ctx.observations_from_csv(path).sigma_e == pytest.approx(want, rel=1e-12)

    def test_fewer_than_two_unloaded_head_rows_raise(self, bundled_ctx, tmp_path):
        """Cropped to start at 1.0 s, the recording's first half second holds
        no unloaded row, so the noise cannot be estimated; given, it is not needed."""
        self._write_synthetic(bundled_ctx, tmp_path / "obs.csv")
        path = cropped_recording(tmp_path / "obs.csv", tmp_path / "cropped.csv", 1.0)
        with pytest.raises(ValueError, match="too few to estimate the gauge noise"):
            bundled_ctx.observations_from_csv(path)
        assert bundled_ctx.observations_from_csv(path, sigma_e=1e-6).sigma_e == 1e-6

    def test_column_mismatch_rejected(self, bundled_ctx, tmp_path):
        path = tmp_path / "obs.csv"
        self._write_synthetic(bundled_ctx, path)
        text = path.read_text().replace("T01", "T99")
        path.write_text(text)
        with pytest.raises(ConfigError):
            bundled_ctx.observations_from_csv(path, sigma_e=1e-6)


class TestStudyContext:
    def test_prior_band_scale(self, study_ctx):
        """The soft random-load study keeps prior strain spread well under the
        deterministic peak, so hyperparameter recovery is not biased by it."""
        idx = np.array([int(np.argmax(study_ctx.series.gamma))])
        means, cov = study_ctx.prior_series(idx).projected(
            study_ctx.operator_for(study_ctx.layout))
        spread = np.sqrt(np.diag(cov)).max()
        peak = np.abs(means).max()
        assert spread < 0.02 * peak