import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from bridgetwin import loading
from bridgetwin.fem import assemble, solve
from bridgetwin.loading import (
    LoadSeries,
    RandomLoadSpec,
    TrainScenario,
    force_covariance,
    load_scenario_config,
    load_series,
    select_window,
)
from bridgetwin.model import DOF_NAMES, ConfigError, Support, simply_supported_beam_template

from conftest import TRAIN_YAML

W, RX, RY = (DOF_NAMES.index(name) for name in ("w", "rx", "ry"))


def _scenario(**overrides):
    base = dict(axle_offsets=(0.0, 3.0, 10.0), axle_load=50e3, speed=20.0,
                track_line="main", time_step=0.01, time_window=(0.0, 2.0))
    base.update(overrides)
    return TrainScenario(**base)


def _forces_at(model, t, **overrides):
    """The train's free-dof forces at instant ``t``: the first column of the
    load series of a window that starts at ``t`` and runs 6 s, long enough
    for every scenario here to load the span at some instant."""
    series = load_series(model, _scenario(time_window=(t, t + 6.0), **overrides))
    assert series.timestamps[0] == t
    return series.forces([0])[:, 0]


def _point_forces(model, nodes, load):
    """Free-dof forces of ``load`` on the w dof of each listed node."""
    dof_map = model.assembled[1]
    f = np.zeros(dof_map.n_free)
    for node in nodes:
        f[dof_map.index[node, W]] += load
    return f


@pytest.fixture()
def free_end_line(plain_section):
    """An 8 m line of 1 m elements clamped at its far end, so that w is free
    at node 0 and an axle at arc length 0 shows as a force there."""
    beam = simply_supported_beam_template(8.0, 8, plain_section)
    return dataclasses.replace(beam, supports=[Support(8, frozenset(DOF_NAMES))])


class TestTrainScenario:
    def test_overall_length_defaults_to_last_offset(self):
        assert _scenario().overall_length == pytest.approx(10.0)
        assert _scenario(length=12.5).overall_length == pytest.approx(12.5)

    def test_crossing_time(self):
        s = _scenario(length=12.0)
        assert s.crossing_time(span=8.0) == pytest.approx(1.0)

    def test_timestamp_count_is_inclusive(self):
        ts = _scenario(time_window=(0.0, 1.0), time_step=0.1).timestamps()
        assert ts.size == 11
        np.testing.assert_allclose(ts[-1], 1.0)

    def test_rejects_negative_offsets(self):
        with pytest.raises(ConfigError):
            _scenario(axle_offsets=(0.0, -3.0))

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ConfigError):
            _scenario(speed=0.0)

    @pytest.mark.parametrize("name,overrides", [
        ("time_step", {"time_step": float("nan")}),
        ("time_window[0]", {"time_window": (float("-inf"), 2.0)}),
        ("time_window[1]", {"time_window": (0.0, float("inf"))}),
        ("arrival_time", {"arrival_time": float("nan")}),
        ("length", {"length": float("inf")}),
    ])
    def test_rejects_non_finite_cadence_and_kinematics(self, name, overrides):
        """Refused when made, naming the field, not later in timestamps()."""
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be finite"):
            _scenario(**overrides)


class TestAxlePositions:
    """Each axle on the span sits on a node of the 1 m line, so the forces
    of an instant are a point force of ``axle_load`` at every axle's node."""

    def test_progressive_entry(self, free_end_line):
        # head axle enters at t=0 and moves at 20 m/s
        np.testing.assert_allclose(_forces_at(free_end_line, 0.1, arrival_time=0.0),
                                   _point_forces(free_end_line, [2], 50e3), atol=1e-9)
        # at t=0.25 the second axle (3 m back) has entered too
        np.testing.assert_allclose(_forces_at(free_end_line, 0.25, arrival_time=0.0),
                                   _point_forces(free_end_line, [5, 2], 50e3), atol=1e-9)

    def test_exit_drops_axles(self, free_end_line):
        # at t=0.5 the head axle sits at 10 m, beyond the 8 m span, and the
        # last one at 0 m, on the inclusive start of the line
        np.testing.assert_allclose(_forces_at(free_end_line, 0.5, arrival_time=0.0),
                                   _point_forces(free_end_line, [7, 0], 50e3), atol=1e-9)

    def test_before_arrival_is_empty(self, free_end_line):
        assert not _forces_at(free_end_line, 0.5, arrival_time=1.0).any()


class TestNodalLoads:
    def test_axle_on_node_is_a_point_force(self, ss_beam):
        dof_map = ss_beam.assembled[1]
        # after 2 s the single axle sits exactly on node 2 (x = 2 m);
        # w is measured positive in the direction the axles push
        f = _forces_at(ss_beam, 2.0, axle_offsets=(0.0,), speed=1.0, axle_load=50e3)
        expected = np.zeros(dof_map.n_free)
        expected[dof_map.index[2, W]] = 50e3
        np.testing.assert_allclose(f, expected, atol=1e-9)

    def test_mid_element_load_splits_consistently(self, ss_beam):
        dof_map = ss_beam.assembled[1]
        f = _forces_at(ss_beam, 1.5, axle_offsets=(0.0,), speed=1.0, axle_load=50e3)
        w_rows = [dof_map.index[n, W] for n in (1, 2) if dof_map.index[n, W] >= 0]
        assert sum(f[i] for i in w_rows) == pytest.approx(50e3)
        # bending moments appear on the slope dofs
        assert np.abs(f[dof_map.index[1, RY]]) > 0.0

    def test_off_span_instant_is_zero(self, ss_beam):
        np.testing.assert_array_equal(_forces_at(ss_beam, 0.0, arrival_time=5.0),
                                      np.zeros(ss_beam.assembled[1].n_free))

    def test_consistent_load_reproduces_exact_deflection(self, ss_beam):
        """Hermite-consistent nodal forces keep the nodal solution exact even
        when the axle stops between nodes."""
        stiffness, dof_map = assemble(ss_beam)
        f = _forces_at(ss_beam, 1.3, axle_offsets=(0.0,), speed=1.0, axle_load=50e3)
        u = solve(stiffness, f)
        w1 = u[dof_map.index[1, W]]
        exact = oracles.ss_deflection_at(load=50e3, a=1.3, x=1.0, length=4.0, ei=2.0e6)
        assert w1 == pytest.approx(exact, rel=1e-10)


class TestLoadSeries:
    def test_gamma_peaks_at_one(self, bundled_ctx):
        series = bundled_ctx.series
        assert series.gamma.max() == pytest.approx(1.0)
        assert series.gamma.min() >= 0.0

    def test_empty_window_raises(self, ss_beam):
        s = _scenario(arrival_time=100.0)
        with pytest.raises(ValueError, match="empty effective observation window"):
            load_series(ss_beam, s)

    def test_sub_window_forces_are_the_full_series_columns(self, bundled_ctx):
        """The whole-window placement equals placing each instant alone, to
        the bit. A window of one instant starts at that instant's timestamp
        exactly, and a window from the series' start to its peak repeats the
        series' timestamps, so each compares bitwise. An unloaded instant
        alone is an empty window, and its column of the series is zero."""
        series, scenario, model = bundled_ctx.series, bundled_ctx.scenario, bundled_ctx.model
        forces = series.forces()
        for k, t in enumerate(series.timestamps.tolist()):
            alone = dataclasses.replace(scenario, time_window=(t, t + 0.25 * scenario.time_step))
            if not forces[:, k].any():
                with pytest.raises(ValueError, match="empty effective observation window"):
                    load_series(model, alone)
                continue
            one = load_series(model, alone)
            assert one.timestamps.tolist() == [t]
            np.testing.assert_array_equal(one.forces()[:, 0], forces[:, k])
        peak = int(np.argmax(series.gamma))
        head = dataclasses.replace(scenario, time_window=(float(series.timestamps[0]),
                                                          float(series.timestamps[peak])))
        sub = load_series(model, head)
        np.testing.assert_array_equal(sub.timestamps, series.timestamps[:peak + 1])
        np.testing.assert_array_equal(sub.forces(), forces[:, :peak + 1])

    def test_only_the_inputs_are_fields(self, bundled_ctx):
        """The timestamps, norms and gamma derive from the model and the
        scenario, so ``dataclasses.replace`` with a window cut before the
        peak cannot carry the old ones along."""
        series = bundled_ctx.series
        assert [f.name for f in dataclasses.fields(LoadSeries)] == ["model", "scenario"]
        np.testing.assert_array_equal(series.gamma, series.norms / series.norms.max())
        peak = int(np.argmax(series.gamma))
        t0 = float(series.timestamps[0])
        cut = dataclasses.replace(series, scenario=dataclasses.replace(
            series.scenario, time_window=(t0, float(series.timestamps[peak - 1]))))
        np.testing.assert_array_equal(cut.timestamps, series.timestamps[:peak])
        assert cut.norms.max() < series.norms.max() and cut.gamma.max() == 1.0
        assert not np.array_equal(cut.gamma, series.gamma[:peak])

    def test_norms_are_those_of_the_whole_force_matrix(self, bundled_ctx):
        """The norms, derived a block of instants at a time, equal to the
        bit those of the forces of every instant formed at once."""
        series = bundled_ctx.series
        assert len(series) > loading.FORCE_BLOCK
        np.testing.assert_array_equal(series.norms, np.linalg.norm(series.forces(), axis=0))

    def test_selected_forces_are_columns_of_every_instants_forces(self, bundled_ctx):
        """The forces of selected instants, in any order and with repeats,
        are bit-equal to the matching columns of all the forces, and so are
        the blocks, in order."""
        series = bundled_ctx.series
        forces = series.forces()
        assert forces.shape == (bundled_ctx.model.assembled[1].n_free, len(series))
        for idx in ([0], [450], [900, 3, 450, 450], np.arange(250, 750, 7), np.arange(len(series))):
            np.testing.assert_array_equal(series.forces(idx), forces[:, np.asarray(idx)])
        idx = np.arange(100, 901, 3)
        blocks = list(series.force_blocks(idx))
        assert [b.shape[1] for b in blocks[:-1]] == [loading.FORCE_BLOCK] * (len(blocks) - 1)
        np.testing.assert_array_equal(np.concatenate(blocks, axis=1), forces[:, idx])


class TestSelectWindow:
    def test_inclusive_bounds(self):
        ts = np.linspace(0.0, 1.0, 11)
        idx = select_window(ts, 0.2, 0.8)
        np.testing.assert_allclose(ts[idx], np.linspace(0.2, 0.8, 7))

    def test_stride(self):
        ts = np.linspace(0.0, 2.0, 501)
        assert select_window(ts, 0.0, 2.0, stride=5).size == 101
        assert select_window(ts, 0.0, 2.0, stride=250).size == 3

    def test_tolerates_roundoff_at_edges(self):
        ts = np.arange(501) * 0.004 + 1.0
        idx = select_window(ts, 1.0, 3.0)
        assert idx.size == 501


class TestForceCovariance:
    def test_symmetric_and_psd(self, ss_beam):
        _, dof_map = assemble(ss_beam)
        cov = force_covariance(ss_beam, dof_map, RandomLoadSpec(500.0, 1.0, tributary_width=1.0))
        np.testing.assert_array_equal(cov, cov.T)
        eig = np.linalg.eigvalsh(cov)
        assert eig[0] >= -1e-9 * max(eig[-1], 1.0)

    def test_only_translations_are_loaded(self, ss_beam):
        """A vertical pressure field exerts no direct nodal moments here: the
        lumping integrates the transverse shapes only."""
        _, dof_map = assemble(ss_beam)
        cov = force_covariance(ss_beam, dof_map, RandomLoadSpec(500.0, 1.0, tributary_width=1.0))
        for node in range(ss_beam.n_nodes):
            for dof in (RX, RY):
                i = dof_map.index[node, dof]
                if i >= 0:
                    np.testing.assert_array_equal(cov[i], 0.0)

    def test_matches_brute_force_quadrature(self, ss_beam):
        """The fixed Gauss-Legendre order is converged: the covariance agrees
        with a dense brute-force quadrature for two kernels."""
        _, dof_map = assemble(ss_beam)
        for sigma, ell, width in ((700.0, 0.8, 1.3), (500.0, 1.0, 1.0)):
            cov = force_covariance(ss_beam, dof_map, RandomLoadSpec(sigma, ell, tributary_width=width))
            ref = oracles.brute_force_load_cov(ss_beam, dof_map, sigma, ell, width)
            assert np.abs(cov - ref).max() <= 1e-4 * np.abs(ref).max()

    def test_quadrature_rule_is_leggauss_to_the_bit(self):
        """The written-out nodes and weights are numpy's Gauss-Legendre rule
        of QUAD_ORDER points, bit for bit."""
        nodes, weights = np.polynomial.legendre.leggauss(loading.QUAD_ORDER)
        for written, exact in ((loading.QUAD_NODES, nodes), (loading.QUAD_WEIGHTS, weights)):
            np.testing.assert_array_equal(np.array(written).view(np.uint64), exact.view(np.uint64))

    def test_quadrature_order_is_converged(self, ss_beam, monkeypatch):
        """Doubling the fixed Gauss-Legendre order moves the covariance by
        less than 1e-4 of its largest entry."""
        _, dof_map = assemble(ss_beam)
        spec = RandomLoadSpec(500.0, 1.0, tributary_width=1.0)
        c4 = force_covariance(ss_beam, dof_map, spec)
        nodes, weights = np.polynomial.legendre.leggauss(2 * loading.QUAD_ORDER)
        monkeypatch.setattr(loading, "QUAD_ORDER", nodes.size)
        monkeypatch.setattr(loading, "QUAD_NODES", tuple(nodes))
        monkeypatch.setattr(loading, "QUAD_WEIGHTS", tuple(weights))
        c8 = force_covariance(ss_beam, dof_map, spec)
        assert c8.shape == c4.shape and not np.array_equal(c4, c8)
        assert np.abs(c4 - c8).max() <= 1e-4 * np.abs(c8).max()

    def test_bundled_kernel_is_built_in_blocks(self, bundled_ctx, monkeypatch):
        """At the bundled model's 404 quadrature points the covariance is
        made with a traced heap peak of at most 3.5 MB (2.7 MB here, 6.1 MB
        when the whole kernel was formed), and it matches the dense B K B^T
        to 1e-13 of its largest entry."""
        model, (_, dof_map), spec = bundled_ctx.model, bundled_ctx.model.assembled, bundled_ctx.random_load
        bundled_ctx.force_cov  # the first call may import or cache what is not the kernel's
        tracemalloc.start()
        try:
            cov = force_covariance(model, dof_map, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6

        seen = {}
        scatter, distances = loading.element_columns, loading.squared_distances

        def recorded_basis(*args):
            seen["basis"] = scatter(*args)
            return seen["basis"]

        def recorded_points(points, others):
            seen["points"] = points
            return distances(points, others)

        monkeypatch.setattr(loading, "element_columns", recorded_basis)
        monkeypatch.setattr(loading, "squared_distances", recorded_points)
        force_covariance(model, dof_map, spec)
        basis, points = seen["basis"], seen["points"]
        assert points.shape == (404, 2)
        diff = points[:, None, :] - points[None, :, :]
        kernel = spec.sigma**2 * np.exp(-np.sum(diff * diff, axis=-1) / (2.0 * spec.length_scale**2))
        dense = basis @ kernel @ basis.T
        assert np.abs(cov - dense).max() <= 1e-13 * np.abs(dense).max()

    def test_needs_a_tributary_width(self, ss_beam):
        model = ss_beam
        bare = type(model)(nodes=model.nodes, elements=model.elements,
                           supports=model.supports, lines=model.lines, deck_spacing=None)
        _, dof_map = assemble(bare)
        with pytest.raises(ConfigError):
            force_covariance(bare, dof_map, RandomLoadSpec(500.0, 1.0))


class TestScenarioConfig:
    def test_bundled_file_loads(self):
        scenario, random_load = load_scenario_config(TRAIN_YAML)
        assert scenario.axle_load == pytest.approx(104e3)
        assert scenario.speed == pytest.approx(131.0 / 3.6)
        assert scenario.overall_length == pytest.approx(81.47)
        assert len(scenario.axle_offsets) == 16
        assert random_load is not None
        assert random_load.sigma == pytest.approx(1000.0)
        assert random_load.length_scale == pytest.approx(1.0)

    def test_speed_given_directly(self, tmp_path):
        p = tmp_path / "s.yaml"
        p.write_text(
            "schema_version: 1\n"
            "train:\n"
            "  axle_offsets: [0.0, 3.0]\n"
            "  axle_load: 1.0e4\n"
            "  speed: 25.0\n"
            "  track_line: main\n"
            "recording:\n"
            "  time_step: 0.01\n"
            "  time_window: [0.0, 1.0]\n"
        )
        scenario, random_load = load_scenario_config(str(p))
        assert scenario.speed == pytest.approx(25.0)
        assert random_load is None
