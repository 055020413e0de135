import dataclasses

import numpy as np
import pytest

from bridgetwin.fem import PriorEnsemble
from bridgetwin.inference import (
    ACCEPTANCE_BAND,
    ADAPT_INTERVAL,
    INITIAL,
    STEPS,
    SUPPORT,
    Chain,
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


# a target near the fixed start, inside the fixed box, whose scales are a few
# steps each: (rho, sigma_d in strain, ell_d)
_MU = np.array([1.3, 1.6e-6, 1.0])
_SIGMA = np.array([0.16, 2.4e-7, 0.1])


class TestMcmcConfig:
    def test_burn_in_count(self):
        cfg = McmcConfig(iterations=1000, burn_in_fraction=0.25)
        assert cfg.n_burn == 250

    def test_only_what_a_run_chooses_is_a_field(self):
        """The start, steps, box and band are constants; the band stays
        readable on the config."""
        assert [f.name for f in dataclasses.fields(McmcConfig)] == ["iterations", "burn_in_fraction", "seed"]
        assert McmcConfig().acceptance_band == ACCEPTANCE_BAND

    def test_rejects_initial_outside_support(self):
        """The start is a constant, not an argument: a config given one is
        refused, and the fixed start lies inside the positive box."""
        with pytest.raises(TypeError):
            McmcConfig(initial=(1e9, 1e-6, 1.0))
        assert all(0.0 < lo < x < hi for (lo, hi), x in zip(SUPPORT, INITIAL))

    def test_rejects_bad_band(self):
        """The band is a constant, not an argument: a config given one is
        refused, and the fixed band is ordered inside (0, 1)."""
        with pytest.raises(TypeError):
            McmcConfig(acceptance_band=(0.6, 0.4))
        lo, hi = ACCEPTANCE_BAND
        assert 0.0 < lo < hi < 1.0

    def test_module_constants_satisfy_the_sampler_invariants(self):
        """One start, step and box side per parameter, positive steps and a
        positive adaptation interval."""
        assert len(SUPPORT) == len(STEPS) == len(INITIAL) == 3
        assert all(s > 0.0 for s in STEPS)
        assert ADAPT_INTERVAL >= 1

    def test_rejects_a_burn_in_that_keeps_no_sample(self):
        """0.9999 of 3000 iterations rounds to all 3000; one fewer keeps one."""
        with pytest.raises(ValueError, match="keeps no sample"):
            McmcConfig(iterations=3000, burn_in_fraction=0.9999)
        assert McmcConfig(iterations=3000, burn_in_fraction=0.9998).n_burn == 2999

    def test_rejects_a_negative_seed(self):
        """A seed is a nonnegative integer, and the config names a negative one."""
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got -1$"):
            McmcConfig(seed=-1)
        assert McmcConfig(seed=0).seed == 0


class TestRandomWalk:
    def test_recovers_gaussian_target(self):
        """Long chain on a known 3-d Gaussian: kept-sample moments must match,
        the means to within 1/15 of each component's std."""
        cfg = McmcConfig(iterations=60_000, burn_in_fraction=0.25, seed=4)
        chain = run_random_walk(_gaussian_target(_MU, _SIGMA), cfg)
        assert chain.samples.shape == (45_000, 3)
        np.testing.assert_allclose((chain.samples.mean(axis=0) - _MU) / _SIGMA, 0.0, atol=1 / 15)
        np.testing.assert_allclose(chain.samples.std(axis=0), _SIGMA, rtol=0.08)

    def test_adaptation_lands_in_band(self):
        """Steps 20, 5 and 20 times smaller than the target's stds grow into the band."""
        cfg = McmcConfig(iterations=20_000, seed=2)
        chain = run_random_walk(_gaussian_target([5.0, 5e-6, 5.0], [1.0, 1e-6, 1.0]), cfg)
        lo, hi = cfg.acceptance_band
        assert lo <= chain.acceptance_rate <= hi

    def test_same_seed_reproduces_exactly(self):
        cfg = McmcConfig(iterations=2000, seed=12)
        target = _gaussian_target(_MU, _SIGMA)
        a = run_random_walk(target, cfg)
        b = run_random_walk(target, cfg)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_different_seed_differs(self):
        target = _gaussian_target(_MU, _SIGMA)
        a = run_random_walk(target, McmcConfig(iterations=500, seed=1))
        b = run_random_walk(target, McmcConfig(iterations=500, seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_support_box_is_never_left(self):
        """A flat target: every proposal inside the box is accepted, so the
        rejected ones are those that left it."""
        lo, hi = np.array(SUPPORT).T

        def guarded(theta):
            assert np.all(theta >= lo) and np.all(theta <= hi)
            return 0.0

        chain = run_random_walk(guarded, McmcConfig(iterations=3000, seed=3))
        assert chain.acceptance_rate < 1.0
        assert np.all(chain.samples >= lo) and np.all(chain.samples <= hi)

    def test_adaptation_stops_after_burn_in(self):
        cfg = McmcConfig(iterations=4000, burn_in_fraction=0.5, seed=5)
        chain = run_random_walk(_gaussian_target([5.0, 5e-6, 5.0], [1.0, 1e-6, 1.0]), cfg)
        assert chain.step_history
        assert max(it for it, _ in chain.step_history) <= cfg.n_burn

    def test_rejects_non_finite_start(self):
        def bad(theta):
            return float("-inf")

        with pytest.raises(ValueError):
            run_random_walk(bad, McmcConfig(iterations=100))

    def test_chain_derives_its_rate_and_first_iteration(self):
        """Neither is a field, so ``dataclasses.replace`` cannot copy a stale one."""
        chain = run_random_walk(_gaussian_target(_MU, _SIGMA), McmcConfig(iterations=400, seed=1))
        names = {f.name for f in dataclasses.fields(Chain)}
        assert names == {"samples", "log_density", "accepted", "step_history", "config"}
        assert chain.config.n_burn == 100
        assert chain.acceptance_rate == np.mean(chain.accepted)
        flipped = dataclasses.replace(chain, accepted=~chain.accepted,
                                      config=McmcConfig(iterations=400, burn_in_fraction=0.5, seed=1))
        assert flipped.acceptance_rate == pytest.approx(1.0 - chain.acceptance_rate)
        assert flipped.config.n_burn == 200


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
        cfg = McmcConfig(iterations=2000, seed=6)
        chain = run_random_walk(_gaussian_target(_MU, _SIGMA), cfg)
        diag = chain_diagnostics(chain)
        text = diag.render()
        assert "acceptance" in text
        assert diag.n_kept == chain.samples.shape[0]

    def test_each_mean_is_the_point_estimate(self):
        """The posterior mean is computed once: each component's mean is the
        point estimate's float, and the summary gives sigma_d in microstrain."""
        chain = run_random_walk(_gaussian_target(_MU, _SIGMA), McmcConfig(iterations=2000, seed=6))
        diag = chain_diagnostics(chain)
        w = point_estimate(chain)
        assert [mean for _, mean, _ in diag.components] == [w.rho, w.sigma_d, w.ell_d]
        assert [f.name for f in dataclasses.fields(diag)] == ["w", "std", "acceptance_rate", "n_kept"]
        lines = diag.render().splitlines()
        assert lines[2] == f"sigma_d: mean {w.sigma_d / 1e-6:.6g} ue, std {diag.std[1] / 1e-6:.6g} ue"
        assert len(lines) == 4