import numpy as np
import pytest

from bridgetwin.fem import PriorEnsemble
from bridgetwin.inference import (
    McmcConfig,
    chain_diagnostics,
    point_estimate,
    run_random_walk,
    sample_hyperposterior,
)
from bridgetwin.statfem import ObservationSet, Sensor, SensorLayout


def _gaussian_target(mu, sigma):
    mu = np.asarray(mu)
    sigma = np.asarray(sigma)

    def log_density(theta):
        return float(-0.5 * np.sum(((theta - mu) / sigma) ** 2))

    return log_density


# a positive box wide enough that the toy targets never clip
_WIDE = ((1e-6, 1000.0), (1e-6, 1000.0), (1e-6, 1000.0))


class TestMcmcConfig:
    def test_burn_in_count(self):
        cfg = McmcConfig(iterations=1000, burn_in_fraction=0.25)
        assert cfg.n_burn == 250

    def test_rejects_initial_outside_support(self):
        with pytest.raises(ValueError):
            McmcConfig(initial=(1e9, 1e-6, 1.0))

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            McmcConfig(acceptance_band=(0.6, 0.4))

    def test_rejects_a_burn_in_that_keeps_no_sample(self):
        """0.9999 of 3000 iterations rounds to all 3000; one fewer keeps one."""
        with pytest.raises(ValueError, match="keeps no sample"):
            McmcConfig(iterations=3000, burn_in_fraction=0.9999)
        assert McmcConfig(iterations=3000, burn_in_fraction=0.9998).n_burn == 2999


class TestRandomWalk:
    def test_recovers_gaussian_target(self):
        """Long chain on a known 3-d Gaussian: kept-sample moments must match."""
        mu = np.array([6.5, 8.0, 5.0])
        sigma = np.array([0.8, 1.2, 0.5])
        cfg = McmcConfig(iterations=60_000, burn_in_fraction=0.25, initial=(5.0, 7.0, 4.0),
                         step_sizes=(0.8, 1.2, 0.5), support=_WIDE, seed=4)
        chain = run_random_walk(_gaussian_target(mu, sigma), cfg)
        assert chain.samples.shape == (45_000, 3)
        np.testing.assert_allclose(chain.samples.mean(axis=0), mu, atol=0.08)
        np.testing.assert_allclose(chain.samples.std(axis=0), sigma, rtol=0.08)

    def test_adaptation_lands_in_band(self):
        cfg = McmcConfig(iterations=20_000, initial=(5.0, 5.0, 5.0),
                         step_sizes=(5.0, 0.01, 1.0), support=_WIDE, seed=2)
        chain = run_random_walk(_gaussian_target([5.0, 5.0, 5.0], [1.0, 1.0, 1.0]), cfg)
        lo, hi = cfg.acceptance_band
        assert lo <= chain.acceptance_rate <= hi

    def test_same_seed_reproduces_exactly(self):
        cfg = McmcConfig(iterations=2000, initial=(5.0, 5.0, 5.0),
                         step_sizes=(1.0, 1.0, 1.0), support=_WIDE, seed=12)
        target = _gaussian_target([5.0, 6.0, 5.0], [1.0, 1.0, 1.0])
        a = run_random_walk(target, cfg)
        b = run_random_walk(target, cfg)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_different_seed_differs(self):
        target = _gaussian_target([5.0, 5.0, 5.0], [1.0, 1.0, 1.0])
        kw = dict(iterations=500, initial=(5.0, 5.0, 5.0), step_sizes=(1.0, 1.0, 1.0),
                  support=_WIDE)
        a = run_random_walk(target, McmcConfig(seed=1, **kw))
        b = run_random_walk(target, McmcConfig(seed=2, **kw))
        assert not np.array_equal(a.samples, b.samples)

    def test_support_box_is_never_left(self):
        box = ((0.5, 1.5), (0.5, 1.5), (0.5, 1.5))

        def guarded(theta):
            assert np.all(theta >= 0.5) and np.all(theta <= 1.5)
            return 0.0

        cfg = McmcConfig(iterations=3000, initial=(1.0, 1.0, 1.0),
                         step_sizes=(2.0, 2.0, 2.0), support=box, seed=3)
        chain = run_random_walk(guarded, cfg)
        assert np.all(chain.samples >= 0.5) and np.all(chain.samples <= 1.5)

    def test_adaptation_stops_after_burn_in(self):
        cfg = McmcConfig(iterations=4000, burn_in_fraction=0.5, initial=(5.0, 5.0, 5.0),
                         step_sizes=(20.0, 20.0, 20.0), support=_WIDE, seed=5)
        chain = run_random_walk(_gaussian_target([5.0, 5.0, 5.0], [1.0, 1.0, 1.0]), cfg)
        assert chain.step_history
        assert max(it for it, _ in chain.step_history) <= cfg.n_burn

    def test_rejects_non_finite_start(self):
        def bad(theta):
            return float("-inf")

        cfg = McmcConfig(iterations=100, initial=(5.0, 5.0, 5.0), support=_WIDE)
        with pytest.raises(ValueError):
            run_random_walk(bad, cfg)


def _toy_problem(rng, n_y=4, n_o=6):
    n_u = 5
    a = rng.standard_normal((n_u, n_u))
    c_u = 1e-12 * (a @ a.T + n_u * np.eye(n_u))
    means = 1e-6 * rng.standard_normal((n_u, n_o))
    p = rng.standard_normal((n_y, n_u))
    layout = SensorLayout(sensors=tuple(
        Sensor(f"s{i}", float(i), 0.0, "top", 0, 0.0, "main") for i in range(n_y)
    ))
    obs = ObservationSet(
        strains=1e-6 * rng.standard_normal((n_y, n_o)),
        timestamps=np.linspace(0.0, 1.0, n_o),
        sigma_e=1e-6,
        gamma=np.full(n_o, 1.0),
        layout=layout,
    )
    return obs, PriorEnsemble(means=means, cov=c_u), p


class TestHyperposterior:
    def test_smoke_run_and_estimate(self):
        rng = np.random.default_rng(21)
        obs, ensemble, p = _toy_problem(rng)
        cfg = McmcConfig(iterations=400, seed=1)
        chain = sample_hyperposterior(obs, ensemble, p, cfg)
        assert chain.samples.shape == (300, 3)
        w = point_estimate(chain)
        assert w.rho > 0 and w.sigma_d > 0 and w.ell_d > 0

    def test_instant_count_mismatch_rejected(self):
        rng = np.random.default_rng(22)
        obs, ensemble, p = _toy_problem(rng)
        short = PriorEnsemble(means=ensemble.means[:, :-1], cov=ensemble.cov)
        with pytest.raises(ValueError):
            sample_hyperposterior(obs, short, p, McmcConfig(iterations=100))


class TestDiagnostics:
    def test_render(self):
        cfg = McmcConfig(iterations=2000, initial=(5.0, 5.0, 5.0),
                         step_sizes=(1.0, 1.0, 1.0), support=_WIDE, seed=6)
        chain = run_random_walk(_gaussian_target([5.0, 5.0, 5.0], [1.0, 1.0, 1.0]), cfg)
        diag = chain_diagnostics(chain)
        text = diag.render()
        assert "acceptance" in text
        assert diag.n_kept == chain.samples.shape[0]