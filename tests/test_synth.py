import math
import random

import numpy as np
import pytest

import oracles
from bridgetwin.statfem import Sensor, SensorLayout
from bridgetwin.synth import (
    DiscrepancySpec,
    _standard_normals,
    draw_discrepancy,
    estimate_noise_std,
    generate_observations,
    generate_truth,
)


def _layout(n=5):
    return SensorLayout(sensors=tuple(
        Sensor(f"s{i}", 0.7 * i, 0.0, "top", 0, 0.0, "main") for i in range(n)
    ))


class TestDiscrepancySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscrepancySpec(rho=0.0, sigma=1e-6, length_scale=1.0)
        with pytest.raises(ValueError):
            DiscrepancySpec(rho=1.0, sigma=-1e-6, length_scale=1.0)
        with pytest.raises(ValueError):
            DiscrepancySpec(rho=1.0, sigma=1e-6, length_scale=0.0)
        DiscrepancySpec(rho=1.0, sigma=0.0, length_scale=1.0)


def _reference_normals(seed, stream, k, n):
    """Instant k's normals from its own key, one at a time through the math module."""
    half = (n + 1) // 2
    words = random.Random(f"{seed}:{stream}:{k}").randbytes(16 * half)
    u = [((int.from_bytes(words[8 * i:8 * i + 8], "little") >> 11) + 1) * 2.0**-53 for i in range(2 * half)]
    radius = [math.sqrt(-2.0 * math.log(x)) for x in u[:half]]
    angle = [2.0 * math.pi * x for x in u[half:]]
    return ([r * math.cos(a) for r, a in zip(radius, angle)] + [r * math.sin(a) for r, a in zip(radius, angle)])[:n]


class TestKeyedStreams:
    """Instant k of stream s draws from the key "seed:s:k" alone."""

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_draws_follow_the_per_key_reference(self, n):
        drawn = _standard_normals(7, 1, range(30), n)
        assert drawn.shape == (n, 30)
        reference = np.array([_reference_normals(7, 1, k, n) for k in range(30)]).T
        np.testing.assert_allclose(drawn, reference, rtol=1e-14, atol=1e-14)

    def test_an_instant_regenerated_alone_equals_its_column(self):
        full = _standard_normals(4, 0, range(50), 40)
        for k in (0, 17, 49):
            np.testing.assert_array_equal(_standard_normals(4, 0, [k], 40)[:, 0], full[:, k])
        assert not np.array_equal(full, _standard_normals(4, 1, range(50), 40))

    def test_the_commands_draw_from_the_keyed_streams(self):
        """The noise is the stream-1 draw to the bit; the mismatch of an
        instant loaded alone is its stream-0 column of the full draw, to
        the rounding of one matrix product."""
        layout, ts = _layout(), np.arange(12) * 1e-3
        noise = generate_observations(np.zeros((5, 12)), ts, np.ones(12), layout, sigma_e=1.0, seed=6).strains
        np.testing.assert_array_equal(noise, _standard_normals(6, 1, range(12), 5))
        spec = DiscrepancySpec(1.0, 2e-6, 0.8, seed=6)
        full = draw_discrepancy(layout, spec, np.ones(12))
        for k in (0, 5, 11):
            alone = draw_discrepancy(layout, spec, np.eye(12)[k])
            np.testing.assert_allclose(alone[:, k], full[:, k], rtol=0.0, atol=1e-15 * np.abs(full).max())


class TestDrawDiscrepancy:
    def test_zero_sigma_is_silent(self):
        d = draw_discrepancy(_layout(), DiscrepancySpec(1.0, 0.0, 1.0, seed=0),
                             gamma=np.ones(4))
        np.testing.assert_array_equal(d, 0.0)

    def test_unloaded_instants_are_exactly_zero(self):
        gamma = np.array([0.0, 0.5, 0.0, 1.0])
        d = draw_discrepancy(_layout(), DiscrepancySpec(1.0, 2e-6, 0.8, seed=3), gamma)
        np.testing.assert_array_equal(d[:, 0], 0.0)
        np.testing.assert_array_equal(d[:, 2], 0.0)
        assert np.all(d[:, 1] != 0.0)

    def test_seed_determinism(self):
        gamma = np.linspace(0.2, 1.0, 6)
        spec = DiscrepancySpec(1.0, 2e-6, 0.8, seed=5)
        np.testing.assert_array_equal(draw_discrepancy(_layout(), spec, gamma),
                                      draw_discrepancy(_layout(), spec, gamma))
        other = DiscrepancySpec(1.0, 2e-6, 0.8, seed=6)
        assert not np.array_equal(draw_discrepancy(_layout(), spec, gamma),
                                  draw_discrepancy(_layout(), other, gamma))

    def test_sample_covariance_matches_kernel(self):
        """With steady full loading the draws must follow the stated field."""
        layout = _layout(4)
        sigma, ell = 3e-6, 1.1
        spec = DiscrepancySpec(1.0, sigma, ell, seed=9)
        n = 40_000
        d = draw_discrepancy(layout, spec, np.ones(n))
        emp = np.cov(d)
        ref = oracles.sq_exp_matrix_loops(layout.points, sigma, ell)
        assert np.abs(emp - ref).max() <= 0.05 * sigma**2


class TestGenerateTruth:
    def test_scaling_decomposition(self):
        rng = np.random.default_rng(0)
        layout = _layout()
        means = 1e-6 * rng.standard_normal((5, 7))
        gamma = np.linspace(0.0, 1.0, 7)
        spec = DiscrepancySpec(rho=0.85, sigma=2e-6, length_scale=0.6, seed=4)
        truth = generate_truth(means, gamma, layout, spec)
        d = draw_discrepancy(layout, spec, gamma)
        np.testing.assert_allclose(truth, 0.85 * means + d, rtol=0, atol=1e-24)


class TestGenerateObservations:
    def test_zero_noise_returns_truth(self):
        rng = np.random.default_rng(1)
        layout = _layout()
        truth = 1e-6 * rng.standard_normal((5, 6))
        ts = np.linspace(0.0, 1.0, 6)
        obs = generate_observations(truth, ts, np.ones(6), layout, sigma_e=0.0, seed=2)
        np.testing.assert_array_equal(obs.strains, truth)
        assert obs.sigma_e == 0.0

    def test_noise_level_and_determinism(self):
        layout = _layout()
        truth = np.zeros((5, 2000))
        ts = np.arange(2000) * 1e-3
        gamma = np.zeros(2000)
        a = generate_observations(truth, ts, gamma, layout, sigma_e=1e-6, seed=7)
        b = generate_observations(truth, ts, gamma, layout, sigma_e=1e-6, seed=7)
        np.testing.assert_array_equal(a.strains, b.strains)
        assert a.strains.std() == pytest.approx(1e-6, rel=0.05)


class TestEstimateNoiseStd:
    def test_recovers_known_sigma(self):
        rng = np.random.default_rng(11)
        strains = 2.5e-6 * rng.standard_normal((5, 5000))
        assert estimate_noise_std(strains) == pytest.approx(2.5e-6, rel=0.05)

