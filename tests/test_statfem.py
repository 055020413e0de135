import dataclasses
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bridgetwin.fem import FactorizationError, GaussianBelief, PriorEnsemble
from bridgetwin.model import ConfigError
from bridgetwin.statfem import (
    Hyperparameters,
    ObservationSet,
    Sensor,
    SensorLayout,
    displacement_posterior,
    log_marginal,
    mismatch_covariance,
    noise_covariance,
    sq_exp_correlation,
    sq_exp_covariance,
    strain_predictive,
    true_strain_posterior,
    window_indices,
)


def _random_instance(rng, n_u=6, n_y=3):
    """One random conditioning problem with an SPD displacement prior."""
    a = rng.standard_normal((n_u, n_u))
    c_u = a @ a.T + n_u * np.eye(n_u)
    mean = rng.standard_normal(n_u)
    p = rng.standard_normal((n_y, n_u))
    points = rng.uniform(0.0, 5.0, size=(n_y, 2))
    w = Hyperparameters(rho=rng.uniform(0.5, 2.0), sigma_d=rng.uniform(0.5, 2.0),
                        ell_d=rng.uniform(0.5, 3.0))
    c_d = sq_exp_covariance(points, w.sigma_d, w.ell_d)
    c_e = noise_covariance(n_y, rng.uniform(0.1, 1.0))
    y = rng.standard_normal(n_y)
    return mean, c_u, p, points, w, c_d, c_e, y


def _instant_evidence(obs, w, ensemble, op, k):
    """log_marginal of instant k alone, as a one-instant recording and prior."""
    alone = PriorEnsemble(ensemble.means[:, [k]], ensemble.cov)
    return log_marginal(obs.select([k]), w, *alone.projected(op))


class TestHyperparameters:
    def test_round_trip(self):
        w = Hyperparameters(1.1, 2e-6, 0.8)
        assert Hyperparameters.from_array((1.1, 2e-6, 0.8)) == w

    def test_rejects_nonpositive(self):
        for bad in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)):
            with pytest.raises(ValueError):
                Hyperparameters(*bad)


class TestSqExpCovariance:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0.0, 10.0, size=(7, 2))
        fast = sq_exp_covariance(points, sigma=1.7, ell=2.3)
        slow = oracles.sq_exp_matrix_loops(points, 1.7, 2.3)
        np.testing.assert_allclose(fast, slow, rtol=1e-14)

    def test_diagonal_is_variance(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        cov = sq_exp_covariance(points, sigma=2.0, ell=1.0)
        np.testing.assert_allclose(np.diag(cov), 4.0)

    def test_coincident_points_correlate_fully(self):
        points = np.array([[1.0, 2.0], [1.0, 2.0]])
        cov = sq_exp_covariance(points, sigma=2.0, ell=0.5)
        np.testing.assert_allclose(cov, 4.0)

    def test_layout_and_points_build_the_same_matrix(self):
        layout = SensorLayout(sensors=tuple(
            Sensor(f"s{i}", 0.7 * i, 0.3 * i * i, "top", 0, 0.0, "main") for i in range(5)
        ))
        by_layout = mismatch_covariance(layout, Hyperparameters(1.0, 1.3, 0.9), 1.0)
        np.testing.assert_array_equal(by_layout, sq_exp_covariance(layout.points, 1.3, 0.9))
        np.testing.assert_array_equal(
            by_layout, 1.3 * 1.3 * sq_exp_correlation(layout.squared_distances, 0.9))


class TestMismatchCovariance:
    def _layout(self):
        return SensorLayout(sensors=(
            Sensor("a", 0.0, 0.0, "top", 0, 0.0, "main"),
            Sensor("b", 2.0, 0.0, "top", 1, 0.5, "main"),
        ))

    def test_zero_gamma_is_exact_zero(self):
        w = Hyperparameters(1.0, 1e-6, 1.0)
        np.testing.assert_array_equal(mismatch_covariance(self._layout(), w, 0.0),
                                      np.zeros((2, 2)))

    def test_gamma_scales_amplitude_quadratically(self):
        w = Hyperparameters(1.0, 1e-6, 1.0)
        full = mismatch_covariance(self._layout(), w, 1.0)
        half = mismatch_covariance(self._layout(), w, 0.5)
        np.testing.assert_allclose(half, 0.25 * full, rtol=1e-14)


class TestSensorLayout:
    def test_resolve_bundled_entries(self, bundled_ctx):
        layout = bundled_ctx.layout
        assert len(layout) == 40
        top = layout.sensors[0]
        assert top.id == "T01"
        assert top.fiber == "top"
        assert top.x == pytest.approx(3.92)

    def test_unknown_fiber_is_refused_by_the_sensor(self, bundled_ctx):
        """One check covers a layout read from a file and sensors handed
        straight to the strain operator."""
        with pytest.raises(ConfigError, match="sensor 'a' has unknown fiber 'side'"):
            Sensor("a", 0.0, 0.0, "side", 0, 0.0, "main")
        entry = {"id": "a", "x": 3.92, "y": 0.0, "fiber": "side", "line": "east"}
        with pytest.raises(ConfigError, match="unknown fiber"):
            SensorLayout.resolve(bundled_ctx.model, [entry])

    def test_ids_must_be_unique(self):
        with pytest.raises(ConfigError):
            SensorLayout(sensors=(
                Sensor("a", 0.0, 0.0, "top", 0, 0.0, "main"),
                Sensor("a", 1.0, 0.0, "top", 0, 0.5, "main"),
            ))

    def test_subset_preserves_requested_order(self, bundled_ctx):
        sub = bundled_ctx.layout.subset(["B03", "T01"])
        assert [s.id for s in sub.sensors] == ["B03", "T01"]
        with pytest.raises(ConfigError):
            bundled_ctx.layout.subset(["nope"])

    def test_resolve_rejects_off_structure_points(self, bundled_ctx):
        with pytest.raises(ConfigError):
            SensorLayout.resolve(bundled_ctx.model,
                                 [{"id": "X", "x": 5.0, "y": 3.0, "fiber": "top"}])

    def test_squared_distances_cached_and_correct(self):
        layout = SensorLayout(sensors=(
            Sensor("a", 0.0, 0.0, "top", 0, 0.0, "main"),
            Sensor("b", 3.0, 4.0, "top", 1, 0.5, "main"),
        ))
        d2 = layout.squared_distances
        np.testing.assert_allclose(d2, [[0.0, 25.0], [25.0, 0.0]])
        assert layout.squared_distances is d2

    def test_replace_with_moved_sensors_recomputes_distances(self, bundled_ctx):
        """The distances belong to the sensors they were computed from, so a
        layout made by ``replace`` never carries its source's matrix."""
        layout = bundled_ctx.layout
        layout.squared_distances
        moved = tuple(dataclasses.replace(s, x=s.x + 10.0 * k) for k, s in enumerate(layout.sensors))
        replaced = dataclasses.replace(layout, sensors=moved)
        np.testing.assert_array_equal(replaced.squared_distances, SensorLayout(moved).squared_distances)
        assert not np.array_equal(replaced.squared_distances, layout.squared_distances)
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.sensors = moved


class TestObservationSet:
    def _obs(self, n_y=3, n_o=5):
        layout = SensorLayout(sensors=tuple(
            Sensor(f"s{i}", float(i), 0.0, "top", 0, 0.1 * i, "main") for i in range(n_y)
        ))
        ts = np.linspace(0.0, 1.0, n_o)
        gamma = np.linspace(0.0, 1.0, n_o)
        strains = np.arange(n_y * n_o, dtype=float).reshape(n_y, n_o) * 1e-6
        return ObservationSet(strains=strains, timestamps=ts, sigma_e=1e-6,
                              gamma=gamma, layout=layout)

    def test_window_filters_time_and_gamma(self):
        obs = self._obs()
        cut = obs.window(0.25, 1.0, gamma_min=0.3)
        np.testing.assert_allclose(cut.timestamps, [0.5, 0.75, 1.0])
        np.testing.assert_allclose(cut.gamma, [0.5, 0.75, 1.0])
        assert cut.strains.shape == (3, 3)

    def test_window_is_the_one_window_rule(self):
        obs = self._obs(n_o=9)
        idx = window_indices(obs.timestamps, obs.gamma, 0.2, 1.0, stride=2, gamma_min=0.3)
        np.testing.assert_array_equal(idx, [4, 6, 8])
        np.testing.assert_array_equal(obs.window(0.2, 1.0, stride=2, gamma_min=0.3).timestamps, obs.timestamps[idx])

    def test_empty_window_raises(self):
        with pytest.raises(ValueError, match="empty effective observation window"):
            self._obs().window(0.0, 1.0, gamma_min=2.0)

    def test_shape_mismatch_rejected(self):
        obs = self._obs()
        with pytest.raises(ValueError):
            ObservationSet(strains=obs.strains[:, :-1], timestamps=obs.timestamps,
                           sigma_e=obs.sigma_e, gamma=obs.gamma, layout=obs.layout)


class TestConditioning:
    def test_matches_both_oracle_routes(self):
        """The production solve must agree with generic block conditioning and
        with the information-form route whenever the prior is invertible."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            mean, c_u, p, points, w, c_d, c_e, y = _random_instance(rng)
            prior = GaussianBelief(mean=mean, cov=c_u)
            post = displacement_posterior(y, w, prior, p, c_d, c_e)
            m1, s1 = oracles.conditioned_joint(y, w.rho, mean, c_u, p, c_d, c_e)
            m2, s2 = oracles.conditioned_information(y, w.rho, mean, c_u, p, c_d, c_e)
            np.testing.assert_allclose(post.mean, m1, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(post.cov, s1, rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(post.mean, m2, rtol=1e-8, atol=1e-11)
            np.testing.assert_allclose(post.cov, s2, rtol=1e-7, atol=1e-11)

    def test_handles_singular_prior(self):
        """Rank-deficient displacement covariance, as produced by a smooth
        load field, must condition without blowup."""
        rng = np.random.default_rng(1)
        v = rng.standard_normal((6, 2))
        c_u = v @ v.T
        mean = rng.standard_normal(6)
        p = rng.standard_normal((3, 6))
        points = rng.uniform(0.0, 4.0, size=(3, 2))
        w = Hyperparameters(1.2, 0.8, 1.5)
        c_d = sq_exp_covariance(points, w.sigma_d, w.ell_d)
        c_e = noise_covariance(3, 0.5)
        y = rng.standard_normal(3)
        post = displacement_posterior(y, w, GaussianBelief(mean=mean, cov=c_u), p, c_d, c_e)
        m1, s1 = oracles.conditioned_joint(y, w.rho, mean, c_u, p, c_d, c_e)
        np.testing.assert_allclose(post.mean, m1, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(post.cov, s1, rtol=1e-7, atol=1e-12)
        # uncertainty never grows
        assert np.all(np.diag(post.cov) <= np.diag(c_u) + 1e-12)

    def test_latent_and_predictive_beliefs(self):
        rng = np.random.default_rng(7)
        mean, c_u, p, points, w, c_d, c_e, y = _random_instance(rng)
        prior = GaussianBelief(mean=mean, cov=c_u)
        post = displacement_posterior(y, w, prior, p, c_d, c_e)
        z = true_strain_posterior(post, w, p, c_d)
        m_ref, s_ref = oracles.latent_strain_belief(w.rho, post.mean, post.cov, p, c_d)
        np.testing.assert_allclose(z.mean, m_ref, rtol=1e-12)
        np.testing.assert_allclose(z.cov, s_ref, rtol=1e-12)

        pred = strain_predictive(post, w, p, c_d, c_e)
        m_ref, s_ref = oracles.predictive_belief(w.rho, post.mean, post.cov, p, c_d, c_e)
        np.testing.assert_allclose(pred.mean, m_ref, rtol=1e-12)
        np.testing.assert_allclose(pred.cov, s_ref, rtol=1e-12)

    def test_predictive_adds_exactly_the_noise(self):
        rng = np.random.default_rng(9)
        mean, c_u, p, points, w, c_d, c_e, y = _random_instance(rng)
        post = displacement_posterior(y, w, GaussianBelief(mean=mean, cov=c_u), p, c_d, c_e)
        z = true_strain_posterior(post, w, p, c_d)
        pred = strain_predictive(post, w, p, c_d, c_e)
        # adding the noise floor is the only change, up to summation roundoff
        np.testing.assert_allclose(pred.cov - z.cov, c_e, atol=1e-15)


class TestLogMarginal:
    def test_instant_matches_textbook_density(self):
        rng = np.random.default_rng(3)
        mean, c_u, p, points, w, c_d, c_e, y = _random_instance(rng)
        layout = SensorLayout(sensors=tuple(
            Sensor(f"s{i}", float(x), float(z), "top", 0, 0.0, "main")
            for i, (x, z) in enumerate(points)
        ))
        obs = ObservationSet(y[:, None], np.zeros(1), float(np.sqrt(c_e[0, 0])), np.ones(1), layout)
        got = log_marginal(obs, w, *PriorEnsemble(mean[:, None], c_u).projected(p))
        s = w.rho**2 * p @ c_u @ p.T + c_d + c_e
        ref = oracles.gaussian_logpdf(y, w.rho * p @ mean, s)
        assert got == pytest.approx(ref, rel=1e-12)
        ref_scipy = scipy.stats.multivariate_normal(w.rho * p @ mean, s).logpdf(y)
        assert got == pytest.approx(ref_scipy, rel=1e-12)

    def _series_problem(self, rng, n_u=5, n_y=3, n_o=4):
        a = rng.standard_normal((n_u, n_u))
        c_u = a @ a.T + n_u * np.eye(n_u)
        means = rng.standard_normal((n_u, n_o))
        p = rng.standard_normal((n_y, n_u))
        sensors = tuple(Sensor(f"s{i}", rng.uniform(0, 5), 0.0, "top", 0, 0.0, "main")
                        for i in range(n_y))
        layout = SensorLayout(sensors=sensors)
        obs = ObservationSet(
            strains=rng.standard_normal((n_y, n_o)),
            timestamps=np.linspace(0.0, 1.0, n_o),
            sigma_e=0.4,
            gamma=rng.uniform(0.3, 1.0, size=n_o),
            layout=layout,
        )
        ensemble = PriorEnsemble(means=means, cov=c_u)
        return obs, ensemble, p

    def test_batched_path_matches_per_instant_loop(self):
        rng = np.random.default_rng(11)
        obs, ensemble, op = self._series_problem(rng)
        w = Hyperparameters(1.1, 0.9, 1.4)
        fast = log_marginal(obs, w, *ensemble.projected(op))
        slow = math.fsum(_instant_evidence(obs, w, ensemble, op, k)
                         for k in range(obs.n_instants))
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_sum_is_order_insensitive(self):
        """Instants are exchangeable in the product likelihood, and the
        compensated sum keeps that exact."""
        rng = np.random.default_rng(13)
        obs, ensemble, op = self._series_problem(rng)
        w = Hyperparameters(0.9, 1.2, 0.7)
        perm = rng.permutation(obs.n_instants)
        shuffled = ObservationSet(
            strains=obs.strains[:, perm], timestamps=obs.timestamps[perm],
            sigma_e=obs.sigma_e, gamma=obs.gamma[perm], layout=obs.layout,
        )
        shuffled_ensemble = PriorEnsemble(means=ensemble.means[:, perm], cov=ensemble.cov)
        assert log_marginal(shuffled, w, *shuffled_ensemble.projected(op)) == \
            log_marginal(obs, w, *ensemble.projected(op))

    def test_matches_sum_of_instants(self):
        rng = np.random.default_rng(17)
        obs, ensemble, op = self._series_problem(rng)
        w = Hyperparameters(1.0, 1.0, 1.0)
        total = log_marginal(obs, w, *ensemble.projected(op))
        ref = sum(_instant_evidence(obs, w, ensemble, op, k)
                  for k in range(obs.n_instants))
        assert total == pytest.approx(ref, rel=1e-12)

    def test_zero_gamma_is_the_noise_and_prior_density(self):
        """gamma_k = 0 removes the mismatch term exactly, leaving
        N(rho P u_bar, rho^2 P C_u P^T + sigma_e^2 I)."""
        rng = np.random.default_rng(19)
        obs, ensemble, op = self._series_problem(rng)
        obs = ObservationSet(obs.strains, obs.timestamps, obs.sigma_e,
                             np.zeros(obs.n_instants), obs.layout)
        w = Hyperparameters(1.3, 0.8, 0.6)
        b = w.rho**2 * op @ ensemble.cov @ op.T + obs.sigma_e**2 * np.eye(obs.n_sensors)
        refs = [oracles.gaussian_logpdf(obs.strains[:, k], w.rho * op @ ensemble.means[:, k], b)
                for k in range(obs.n_instants)]
        assert log_marginal(obs, w, *ensemble.projected(op)) == pytest.approx(math.fsum(refs), rel=1e-12)
        got = _instant_evidence(obs, w, ensemble, op, 0)
        assert got == pytest.approx(refs[0], rel=1e-12)

    def test_zero_noise_with_mirrored_gauges_raises(self):
        """Mirrored fibers give exactly dependent strain rows; without gauge
        noise the shared covariance is singular and the evidence refuses,
        naming sigma_e, instead of adding jitter."""
        op = np.array([[1.0, 0.0, 0.5], [-1.0, 0.0, -0.5], [0.0, 1.0, 0.0]])
        layout = SensorLayout(sensors=(
            Sensor("T", 1.0, 0.0, "top", 0, 0.0, "main"),
            Sensor("B", 1.0, 0.0, "bottom", 0, 0.0, "main"),
            Sensor("M", 2.0, 0.0, "top", 1, 0.0, "main"),
        ))
        obs = ObservationSet(np.ones((3, 2)), np.array([0.0, 1.0]), 0.0,
                             np.array([0.5, 1.0]), layout)
        ensemble = PriorEnsemble(np.zeros((3, 2)), np.eye(3))
        w = Hyperparameters(1.0, 1.0, 1.0)
        with pytest.raises(FactorizationError, match="sigma_e"):
            log_marginal(obs, w, *ensemble.projected(op))
        with pytest.raises(FactorizationError, match="sigma_e"):
            _instant_evidence(obs, w, ensemble, op, 0)


@st.composite
def _evidence_problems(draw):
    """Random SPD prior, operator and gauge plan (some plan points shared),
    residual data, hyperparameters and load levels including exact zeros."""
    n_u = draw(st.integers(2, 7))
    n_y = draw(st.integers(1, 6))
    n_o = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n_u, n_u))
    c_u = a @ a.T + 0.1 * n_u * np.eye(n_u)
    p = rng.standard_normal((n_y, n_u))
    xy = rng.uniform(0.0, 5.0, size=(n_y, 2))
    for i in range(1, n_y):
        if draw(st.booleans()):
            xy[i] = xy[draw(st.integers(0, i - 1))]
    layout = SensorLayout(sensors=tuple(
        Sensor(f"s{i}", float(x), float(y), "top", 0, 0.0, "main") for i, (x, y) in enumerate(xy)
    ))
    gamma = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=n_o,
                          max_size=n_o))
    obs = ObservationSet(
        strains=rng.standard_normal((n_y, n_o)), timestamps=np.arange(n_o, dtype=float),
        sigma_e=draw(st.floats(0.2, 1.5)), gamma=np.array(gamma), layout=layout,
    )
    w = Hyperparameters(draw(st.floats(0.3, 2.0)), draw(st.floats(0.05, 3.0)),
                        draw(st.floats(0.1, 10.0)))
    return obs, PriorEnsemble(rng.standard_normal((n_u, n_o)), c_u), p, w


@settings(max_examples=150, deadline=None)
@given(_evidence_problems())
def test_log_marginal_matches_textbook_density_per_instant(problem):
    obs, ensemble, op, w = problem
    terms = []
    for k in range(obs.n_instants):
        c_d = mismatch_covariance(obs.layout, w, float(obs.gamma[k]))
        s = w.rho**2 * op @ ensemble.cov @ op.T + c_d + noise_covariance(obs.n_sensors, obs.sigma_e)
        terms.append(oracles.gaussian_logpdf(obs.strains[:, k], w.rho * op @ ensemble.means[:, k], s))
    got = log_marginal(obs, w, *ensemble.projected(op))
    assert abs(got - math.fsum(terms)) <= 1e-10 * math.fsum(abs(t) for t in terms)


@st.composite
def _conditioning_problems(draw):
    """Random SPD dof prior, random operator, a kernel mismatch over random
    plan points, positive gauge noise and data."""
    n_u = draw(st.integers(1, 8))
    n_y = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n_u, n_u)) * draw(st.floats(1e-3, 1e3))
    c_u = a @ a.T + draw(st.floats(1e-6, 1.0)) * np.eye(n_u)
    prior = GaussianBelief(rng.standard_normal(n_u), c_u)
    p = rng.standard_normal((n_y, n_u))
    w = Hyperparameters(draw(st.floats(0.1, 3.0)), draw(st.floats(0.01, 5.0)), draw(st.floats(0.1, 10.0)))
    c_d = sq_exp_covariance(rng.uniform(0.0, 5.0, size=(n_y, 2)), w.sigma_d, w.ell_d)
    c_e = noise_covariance(n_y, draw(st.floats(1e-3, 2.0)))
    return rng.standard_normal(n_y), w, prior, p, c_d, c_e


@settings(max_examples=200, deadline=None)
@given(_conditioning_problems())
def test_conditioning_never_widens_variances(problem):
    y, w, prior, p, c_d, c_e = problem
    post = displacement_posterior(y, w, prior, p, c_d, c_e)
    prior_var = np.diagonal(prior.cov)
    assert np.all(np.diagonal(post.cov) <= prior_var + 1e-12 * prior_var.max())
