import contextlib
import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import BRIDGE_YAML
from bridgetwin.fem import (
    FactorizationError,
    GaussianBelief,
    PriorEnsemble,
    assemble,
    build_dof_map,
    build_strain_operator,
    chol_psd,
    element_geometry,
    element_transform,
    hermite_curvature,
    hermite_shape,
    propagate_prior,
    propagate_prior_series,
    solve,
    squared_distances,
)
from bridgetwin import fem, loading
from bridgetwin.loading import RandomLoadSpec, TrainScenario, force_covariance, load_series
from bridgetwin.model import ConfigError, GrillageModel, cantilever_template, load_model_config
from bridgetwin.statfem import (
    Hyperparameters,
    Sensor,
    SensorLayout,
    displacement_posterior,
    noise_covariance,
    sq_exp_covariance,
)


class TestShapeFunctions:
    def test_partition_of_unity(self):
        for t in (0.0, 0.3, 0.77, 1.0):
            n1, n2, n3, n4 = hermite_shape(t, 2.5)
            assert n1 + n3 == pytest.approx(1.0)

    def test_nodal_values(self):
        n1, n2, n3, n4 = hermite_shape(0.0, 2.0)
        assert (n1, n2, n3, n4) == (1.0, 0.0, 0.0, 0.0)
        n1, n2, n3, n4 = hermite_shape(1.0, 2.0)
        assert (n1, n2, n3, n4) == (0.0, 0.0, 1.0, 0.0)

    def test_curvature_is_shape_second_derivative(self):
        """Central differences of the shape functions against the closed form."""
        length, h = 1.7, 1e-5
        for t in (0.2, 0.5, 0.9):
            exact = hermite_curvature(t, length)
            for i in range(4):
                fd = (hermite_shape(t + h, length)[i] - 2 * hermite_shape(t, length)[i]
                      + hermite_shape(t - h, length)[i]) / (h * length) ** 2
                assert fd == pytest.approx(exact[i], rel=1e-5, abs=1e-4)


class TestElementMatrices:
    """On the reference element matrix, which :class:`TestStackedAssembly`
    proves bit-identical to the package's through ``assemble``."""

    def test_stiffness_symmetry_and_rank(self, plain_section):
        k = _reference_element_stiffness(plain_section, 1.3)
        np.testing.assert_array_equal(k, k.T)
        eig = np.linalg.eigvalsh(k)
        assert eig[0] > -1e-6 * eig[-1]
        assert np.sum(eig > 1e-9 * eig[-1]) == 3

    def test_rigid_modes_are_stress_free(self, plain_section):
        length = 1.3
        k = _reference_element_stiffness(plain_section, length)
        translation = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        rotation = np.array([0.0, 1.0, 0.0, length, 1.0, 0.0])
        twist = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        for mode in (translation, rotation, twist):
            np.testing.assert_allclose(k @ mode, 0.0, atol=1e-6 * np.abs(k).max())

    def test_transform_is_orthogonal(self):
        angle = 0.61
        t = element_transform(np.cos(angle), np.sin(angle))
        np.testing.assert_allclose(t.T @ t, np.eye(6), atol=1e-14)


def _reference_element_stiffness(section, length):
    ei, gj, l = section.bending_stiffness, section.torsion_stiffness, length
    k = np.zeros((6, 6))
    k[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])] = ei / l**3 * np.array([
        [12.0, 6.0 * l, -12.0, 6.0 * l],
        [6.0 * l, 4.0 * l * l, -6.0 * l, 2.0 * l * l],
        [-12.0, -6.0 * l, 12.0, -6.0 * l],
        [6.0 * l, 2.0 * l * l, -6.0 * l, 4.0 * l * l],
    ])
    k[np.ix_([2, 5], [2, 5])] = gj / l * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return k


def _looped_stiffness(model):
    """The per-element loop assembly once ran: the reference its stacked
    product and indexed add must reproduce bit for bit."""
    dof_map = build_dof_map(model)
    k_full = np.zeros((3 * model.n_nodes, 3 * model.n_nodes))
    lengths, cosines, slots = element_geometry(model, range(len(model.elements)))
    for e, length, (c, s), slot in zip(model.elements, lengths.tolist(), cosines.tolist(), slots):
        t = element_transform(c, s)
        k_full[np.ix_(slot, slot)] += t.T @ _reference_element_stiffness(e.section, length) @ t
    k_full = 0.5 * (k_full + k_full.T)
    keep = [3 * node + dof for node, dof in np.argwhere(dof_map.index >= 0)]
    return k_full[np.ix_(keep, keep)]


class TestStackedAssembly:
    def test_bundled_bridge_matches_the_element_loop(self):
        model = load_model_config(BRIDGE_YAML)
        assert assemble(model)[0].tobytes() == _looped_stiffness(model).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 2.0 * math.pi), st.integers(0, 2**32 - 1))
    def test_rotated_perturbed_grids_match_the_element_loop(self, angle, seed):
        model = load_model_config(BRIDGE_YAML)
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        jitter = 0.05 * np.random.default_rng(seed).standard_normal(model.nodes.shape)
        model = dataclasses.replace(model, nodes=(model.nodes + jitter) @ rot.T)
        assert assemble(model)[0].tobytes() == _looped_stiffness(model).tobytes()

    def test_single_element_stiffness_is_the_stacked_one(self, plain_section):
        """Each slice of one stacked local-stiffness call over several lengths
        is the reference element matrix of that length, bit for bit."""
        lengths = (0.3, 1.3, 7.25)
        stacked = fem._local_stiffness([plain_section.bending_stiffness] * len(lengths),
                                       [plain_section.torsion_stiffness] * len(lengths), lengths)
        for k, length in zip(stacked, lengths):
            np.testing.assert_array_equal(k, _reference_element_stiffness(plain_section, length))

    def test_non_positive_length_rejected(self, cantilever):
        """Coincident nodes make an element of zero length, which the model refuses."""
        nodes = np.array(cantilever.nodes)
        nodes[2] = nodes[1]
        with pytest.raises(ConfigError, match="element 1 has zero length"):
            dataclasses.replace(cantilever, nodes=nodes)


class TestAssemblyAndSolve:
    def test_midspan_deflection(self, ss_beam):
        stiffness, dof_map = assemble(ss_beam)
        load = 1000.0
        f = np.zeros(dof_map.n_free)
        f[dof_map.index[2, 0]] = -load
        u = solve(stiffness, f)
        exact = oracles.ss_midspan_deflection(load, 4.0, 2.0e6)
        assert u[dof_map.index[2, 0]] == pytest.approx(-exact, rel=1e-12)

    def test_cantilever_tip_deflection(self, cantilever):
        stiffness, dof_map = assemble(cantilever)
        f = np.zeros(dof_map.n_free)
        f[dof_map.index[2, 0]] = -500.0
        u = solve(stiffness, f)
        exact = oracles.cantilever_tip_deflection(500.0, 2.0, 2.0e6)
        assert u[dof_map.index[2, 0]] == pytest.approx(-exact, rel=1e-12)

    def test_plan_rotation_invariance(self, plain_section):
        """A cantilever rotated in plan must deflect and strain identically: the
        clamped root is the one support set that looks the same from any
        heading. The axle load at t = 1.3 s is the first column of a
        ``load_series`` whose window starts there, and the gauge is read
        through ``build_strain_operator``, so the element-to-dof scatter is
        exercised at a heading where both direction cosines are nonzero."""
        axle = TrainScenario(axle_offsets=(0.0,), axle_load=1000.0, speed=1.0, track_line="main",
                             time_step=0.1, time_window=(1.3, 2.0))
        deflections, strains = [], []
        for angle in (0.0, 0.655):
            c, s = np.cos(angle), np.sin(angle)
            nodes = np.array([[t * c, t * s] for t in np.linspace(0.0, 2.0, 3)])
            base = cantilever_template(2.0, 2, plain_section)
            model = GrillageModel(nodes=nodes, elements=base.elements, supports=base.supports,
                                  lines={"main": [0, 1, 2]}, deck_spacing=None)
            stiffness, dof_map = assemble(model)
            f = np.zeros(dof_map.n_free)
            f[dof_map.index[2, 0]] = -1000.0
            deflections.append(solve(stiffness, f)[dof_map.index[2, 0]])
            u = solve(stiffness, load_series(model, axle).forces([0])[:, 0])
            deflections.append(u[dof_map.index[2, 0]])
            gauge = SensorLayout.resolve(model, [{"id": "G", "x": 0.7 * c, "y": 0.7 * s, "fiber": "top"}])
            strains.append((build_strain_operator(model, dof_map, gauge.sensors).matrix @ u)[0])
        assert deflections[0] == pytest.approx(deflections[2], rel=1e-12)
        assert deflections[1] == pytest.approx(deflections[3], rel=1e-12)
        assert strains[0] == pytest.approx(strains[1], rel=1e-12)
        assert strains[0] != 0.0 and deflections[1] != 0.0

    def test_unsupported_model_fails_factorization(self, ss_beam):
        """The model's trial factorization finds the rigid body modes when it is made."""
        with pytest.raises(ConfigError, match="rigid body modes"):
            GrillageModel(nodes=ss_beam.nodes, elements=ss_beam.elements, supports=(),
                          lines=ss_beam.lines, deck_spacing=None)


class TestStrainOperator:
    def _layout(self, model, xs):
        sensors = []
        for i, x in enumerate(xs):
            elem, t = model.locate_on_line("main", x)
            z = model.elements[elem].section.fiber_distance
            sensors.append(Sensor(id=f"T{i}", x=x, y=0.0, fiber="top", element=elem, t=t, line="main"))
            sensors.append(Sensor(id=f"B{i}", x=x, y=0.0, fiber="bottom", element=elem, t=t, line="main"))
        return SensorLayout(sensors=tuple(sensors))

    def test_cantilever_fiber_strain(self, cantilever):
        stiffness, dof_map = assemble(cantilever)
        load = 300.0
        f = np.zeros(dof_map.n_free)
        f[dof_map.index[2, 0]] = -load
        u = solve(stiffness, f)
        layout = self._layout(cantilever, xs=(0.3, 0.9, 1.5))
        op = build_strain_operator(cantilever, dof_map, layout.sensors)
        strains = op.matrix @ u
        z = cantilever.elements[0].section.fiber_distance
        for row, sensor in zip(strains, layout.sensors):
            sign = 1.0 if sensor.fiber == "top" else -1.0
            # the oracle takes the signed transverse force; the tip load is -300
            exact = sign * oracles.cantilever_fiber_strain(-load, sensor.x, 2.0, 2.0e6, z)
            assert row == pytest.approx(exact, rel=1e-10)

    def test_top_bottom_antisymmetry(self, cantilever):
        _, dof_map = assemble(cantilever)
        layout = self._layout(cantilever, xs=(0.3, 1.1))
        op = build_strain_operator(cantilever, dof_map, layout.sensors)
        np.testing.assert_array_equal(op.matrix[0::2], -op.matrix[1::2])


def _broadcast_squared_distances(points):
    """The (n, n, 2) broadcast sum squared distances were once computed by."""
    p = np.asarray(points, dtype=float)
    diff = p[:, None, :] - p[None, :, :]
    return np.sum(diff * diff, axis=-1)


class TestSquaredDistances:
    """dx^2 + dy^2 is the length-2 sum a0 + a1 of the broadcast form, so the
    two agree to the bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_points_match_the_broadcast_sum_bits(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((int(rng.integers(1, 80)), 2)) * 10.0 ** int(rng.integers(-4, 5))
        got, want = squared_distances(points), _broadcast_squared_distances(points)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_bundled_quadrature_points_match_the_broadcast_sum_bits(self, bundled_ctx, monkeypatch):
        """The deck-load kernel's column blocks, side by side, hold the
        broadcast sum's bits over all 404 x 404 pairs of quadrature points."""
        seen = []

        def recorded(points, others):
            seen.append((np.array(points), np.array(others), squared_distances(points, others)))
            return seen[-1][2]

        monkeypatch.setattr(loading, "squared_distances", recorded)
        force_covariance(bundled_ctx.model, bundled_ctx.model.assembled[1], bundled_ctx.random_load)
        points = seen[0][0]
        assert points.shape == (404, 2) and len(seen) > 1
        assert all(np.array_equal(p, points) for p, _, _ in seen)
        np.testing.assert_array_equal(np.vstack([others for _, others, _ in seen]), points)
        np.testing.assert_array_equal(np.hstack([d2 for _, _, d2 in seen]).view(np.uint64),
                                      _broadcast_squared_distances(points).view(np.uint64))


class TestCholPsd:
    def test_spd_needs_no_jitter(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        cov = a @ a.T + 5.0 * np.eye(5)
        chol, jitter = chol_psd(cov)
        assert jitter == 0.0
        np.testing.assert_allclose(chol @ chol.T, cov, atol=1e-12 * cov.max())

    def test_singular_psd_gets_small_jitter(self):
        v = np.array([[1.0, 2.0, -1.0]])
        cov = v.T @ v
        chol, jitter = chol_psd(cov)
        assert 0.0 < jitter < 1e-7
        np.testing.assert_allclose(chol @ chol.T, cov + jitter * np.eye(3), atol=1e-10)

    def test_zero_matrix(self):
        chol, jitter = chol_psd(np.zeros((4, 4)))
        assert jitter == 0.0
        np.testing.assert_array_equal(chol, np.zeros((4, 4)))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(FactorizationError):
            chol_psd(np.array([[1.0, 3.0], [3.0, 1.0]]))

    def test_bundled_jitter_is_set_on_the_diagonal_of_one_copy(self, bundled_ctx):
        """The bundled 242-dof load covariance needs jitter. The ladder and
        the load inputs each hold one jittered copy, a traced heap peak of at
        most 1.0 MB (0.94 MB here, 1.41 MB with a second identity), and
        their results are bit-equal to those of C_f + jitter I."""
        c_f = bundled_ctx.force_cov
        _, jitter = chol_psd(c_f)
        shifted = c_f + jitter * np.eye(len(c_f))
        assert jitter > 0.0
        peaks = []
        for step, args in ((chol_psd, (c_f,)), (fem._load_inputs, (c_f,))):
            tracemalloc.start()
            try:
                result = step(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result[-1] == jitter
            expected = np.linalg.cholesky(shifted) if step is chol_psd else shifted
            np.testing.assert_array_equal(result[-2].view(np.uint64), expected.view(np.uint64))
        assert max(peaks) <= 1.0e6, peaks


class TestGaussianBelief:
    def test_requires_symmetric_cov(self):
        with pytest.raises(ValueError):
            GaussianBelief(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("off,corner", [(0.0, 1.0), (1e-12, 1.0), (1e-8, 1.0), (0.0, np.inf),
                                            (1e-12, np.inf), (0.0, np.nan), (np.inf, 1.0), (np.nan, 1.0)])
    def test_symmetry_check_is_allclose_to_the_transpose(self, off, corner):
        """The check refuses exactly what np.allclose(C, C^T, atol=1e-10
        max |C|, rtol=0) refuses, non-finite entries included."""
        cov = np.array([[2.0, 0.5, -1.0], [0.5, 3.0, 0.25], [-1.0, 0.25, corner]])
        cov[0, 1] += off
        scale = np.max(np.abs(cov))
        with np.errstate(invalid="ignore"):
            symmetric = np.allclose(cov, cov.T, atol=1e-10 * scale + 1e-300, rtol=0.0)
        refused = pytest.raises(ValueError, match="must be symmetric") if not symmetric else contextlib.nullcontext()
        with refused:
            fem._check_symmetric(cov, "covariance")

    def test_std_is_root_of_diagonal(self):
        cov = np.array([[4.0, 1.0], [1.0, 2.0]])
        belief = GaussianBelief(mean=np.array([1.0, -2.0]), cov=cov)
        np.testing.assert_allclose(belief.std(), np.sqrt([4.0, 2.0]))


class TestPriorPropagation:
    def test_matches_explicit_inverse(self, ss_beam):
        stiffness, dof_map = assemble(ss_beam)
        spec = RandomLoadSpec(sigma=400.0, length_scale=1.0, tributary_width=1.0)
        c_f = force_covariance(ss_beam, dof_map, spec)
        f = np.zeros(dof_map.n_free)
        f[dof_map.index[2, 0]] = -1000.0
        prior = propagate_prior(stiffness, f, c_f)

        a_inv = np.linalg.inv(stiffness)
        np.testing.assert_allclose(prior.mean, a_inv @ f, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(prior.cov, a_inv @ c_f @ a_inv.T, rtol=1e-8, atol=1e-20)

    def test_series_matches_per_instant(self, ss_beam):
        stiffness, dof_map = assemble(ss_beam)
        spec = RandomLoadSpec(sigma=400.0, length_scale=1.0, tributary_width=1.0)
        c_f = force_covariance(ss_beam, dof_map, spec)
        rng = np.random.default_rng(5)
        forces = rng.standard_normal((dof_map.n_free, 3)) * 100.0
        ensemble = propagate_prior_series(stiffness, forces, c_f)
        for k in range(3):
            single = propagate_prior(stiffness, forces[:, k], c_f)
            np.testing.assert_allclose(ensemble.instant(k).mean, single.mean, rtol=1e-12)
            np.testing.assert_allclose(ensemble.instant(k).cov, single.cov, rtol=1e-12)

    def test_replace_projects_the_new_covariance(self, bundled_ctx):
        """An ensemble holds its inputs only, so one made by ``replace``
        projects its own covariance, and none can be set in place."""
        ensemble = bundled_ctx.prior_series(np.array([100, 350]))
        ensemble.projected(bundled_ctx.strain_op)
        wider = dataclasses.replace(ensemble, cov=4.0 * ensemble.cov)
        _, cov = wider.projected(bundled_ctx.strain_op)
        _, fresh = PriorEnsemble(ensemble.means, 4.0 * ensemble.cov).projected(bundled_ctx.strain_op)
        np.testing.assert_array_equal(cov, fresh)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ensemble.cov = wider.cov

    def test_projection_of_a_collected_operator_is_never_reused(self, bundled_ctx):
        """CPython hands a freed object's id to the next allocation, so a
        cache keyed by id alone can answer a new operator with the
        projection of a collected one."""
        ensemble = bundled_ctx.prior_series()
        ids = bundled_ctx.layout.ids
        for _ in range(5):
            first = bundled_ctx.operator_for(bundled_ctx.layout.subset(ids[0:2]))
            ensemble.projected(first)
            del first
            gc.collect()
            second = bundled_ctx.operator_for(bundled_ctx.layout.subset(ids[10:12]))
            means, cov = ensemble.projected(second)
            np.testing.assert_array_equal(means, second.matrix @ ensemble.means)
            ref_cov = second.matrix @ ensemble.cov @ second.matrix.T
            np.testing.assert_array_equal(cov, 0.5 * (ref_cov + ref_cov.T))


@st.composite
def _projection_problems(draw):
    """A random operator and a belief to push through it: a PSD prior of any
    rank, or a full-rank prior conditioned on gauges whose noise reaches down
    to 1e-9 of the strain scale, where the conditioned covariance is mostly
    rounding noise and the bare product P C P^T can fail the symmetry check."""
    n_u = draw(st.integers(1, 8))
    n_y = draw(st.integers(1, n_u))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = draw(st.floats(1e-3, 1e3))
    a = rng.standard_normal((n_u, draw(st.integers(1, n_u)))) * amp
    p = rng.standard_normal((n_y, n_u))
    if not draw(st.booleans()):
        return GaussianBelief(rng.standard_normal(n_u), a @ a.T), p
    c_u = a @ a.T + draw(st.floats(1e-4, 1.0)) * amp * amp * np.eye(n_u)
    prior = GaussianBelief(rng.standard_normal(n_u) * amp, c_u, jitter=draw(st.floats(0.0, 1e-9)))
    scale = math.sqrt(float(np.mean(np.diagonal(p @ c_u @ p.T))))
    w = Hyperparameters(draw(st.floats(0.1, 3.0)), scale * draw(st.floats(0.01, 2.0)),
                        draw(st.floats(0.1, 10.0)))
    c_d = sq_exp_covariance(rng.uniform(0.0, 5.0, size=(n_y, 2)), w.sigma_d, w.ell_d)
    c_e = noise_covariance(n_y, scale * 10.0 ** draw(st.floats(-9.0, 0.0)))
    return displacement_posterior(scale * rng.standard_normal(n_y), w, prior, p, c_d, c_e), p


@settings(max_examples=200, deadline=None)
@given(_projection_problems())
def test_projection_is_symmetric_with_the_bare_products_diagonal(problem):
    """project() always yields a valid belief, and its variances are the
    bits of diag(P C P^T): band tables keep their bytes."""
    belief, p = problem
    projected = belief.project(p)
    np.testing.assert_array_equal(projected.cov, projected.cov.T)
    np.testing.assert_array_equal(np.diagonal(projected.cov).view(np.uint64),
                                  np.diagonal(p @ belief.cov @ p.T).view(np.uint64))
    np.testing.assert_array_equal(projected.mean.view(np.uint64), (p @ belief.mean).view(np.uint64))
    assert projected.jitter == belief.jitter
