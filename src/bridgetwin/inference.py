"""Random-walk Metropolis over the mismatch hyperparameters.

The target is the recording evidence as a function of w = (rho, sigma_d,
ell_d) under a flat prior truncated to a support box; proposals are joint
Gaussian steps with per-component scales. A single scalar acceptance rate
drives step adaptation during burn-in only, so the kept portion of every
chain is a fixed-kernel Markov chain. Chains are reproducible from the
seed alone: the generator is consumed identically whether or not a
proposal is accepted or even evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dataio import MICROSTRAIN
from .fem import PriorEnsemble
from .model import readonly
from .statfem import Hyperparameters, ObservationSet, log_marginal

# the sampler's start, steps and support box over (rho, sigma_d in strain, ell_d); a proposal outside
# the box is rejected unevaluated, and burn-in blocks of ADAPT_INTERVAL iterations scale every step by
# 1.1 above the acceptance band and by 0.9 below it
INITIAL = (1.0, 1e-6, 1.0)
STEPS = (0.05, 2e-7, 0.05)
SUPPORT = ((1e-3, 1e2), (1e-9, 1e-3), (1e-2, 1e2))
ACCEPTANCE_BAND = (0.2, 0.5)
ADAPT_INTERVAL = 100


@dataclass(frozen=True)
class McmcConfig:
    """What a run chooses: the iteration count, the share of it spent in
    burn-in, ``burn_in_fraction`` of the iterations rounded, which must leave
    at least one kept sample, and the seed, a nonnegative integer."""

    iterations: int = 20000
    burn_in_fraction: float = 0.25
    seed: int = 0
    acceptance_band: ClassVar[tuple[float, float]] = ACCEPTANCE_BAND

    def __post_init__(self) -> None:
        if self.iterations < 2:
            raise ValueError(f"need at least two iterations, got {self.iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if not 0.0 <= self.burn_in_fraction < 1.0:
            raise ValueError(f"burn-in fraction must lie in [0, 1), got {self.burn_in_fraction}")
        if self.n_burn >= self.iterations:
            raise ValueError(f"burn-in fraction {self.burn_in_fraction} rounds to all {self.iterations} "
                             f"iterations and keeps no sample")

    @property
    def n_burn(self) -> int:
        return int(round(self.iterations * self.burn_in_fraction))


@dataclass(frozen=True, eq=False)
class Chain:
    """Post-burn-in samples with bookkeeping.

    ``samples`` rows are (rho, sigma_d, ell_d); ``step_history`` records
    (iteration, step vector) at every burn-in adaptation.
    """

    samples: np.ndarray
    log_density: np.ndarray
    accepted: np.ndarray
    step_history: tuple[tuple[int, tuple[float, float, float]], ...]
    config: McmcConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", readonly(self.samples))
        object.__setattr__(self, "log_density", readonly(self.log_density))
        object.__setattr__(self, "accepted", readonly(self.accepted, bool))

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def acceptance_rate(self) -> float:
        """The share of kept iterations whose proposal was accepted."""
        return float(np.mean(self.accepted))


def run_random_walk(log_density, config: McmcConfig) -> Chain:
    """Sample an arbitrary 3-component log density over the support box.

    ``log_density`` is called only inside the box and may return -inf. The
    initial point must have finite density. Deterministic in config.seed.
    """
    rng = np.random.default_rng(config.seed)
    lo, hi = np.array(SUPPORT).T
    steps = np.array(STEPS)

    current = np.array(INITIAL)
    current_lp = float(log_density(current))
    if not math.isfinite(current_lp):
        raise ValueError(f"log density is not finite at the initial point {INITIAL}")

    n_burn = config.n_burn
    states = np.empty((config.iterations, 3))
    log_densities = np.empty(config.iterations)
    accepted = np.empty(config.iterations, dtype=bool)
    step_history = [(0, tuple(steps))]
    block_accepted = 0

    for it in range(config.iterations):
        # draws happen unconditionally so the stream stays aligned across
        # rejections and out-of-box proposals
        jump = rng.standard_normal(3)
        threshold = rng.random()
        proposal = current + steps * jump
        accept = False
        if np.all(proposal >= lo) and np.all(proposal <= hi):
            proposal_lp = float(log_density(proposal))
            accept = math.log(threshold) < proposal_lp - current_lp
        if accept:
            current = proposal
            current_lp = proposal_lp
        states[it], log_densities[it], accepted[it] = current, current_lp, accept
        if it < n_burn:
            block_accepted += accept
            if (it + 1) % ADAPT_INTERVAL == 0:
                rate = block_accepted / ADAPT_INTERVAL
                if rate > ACCEPTANCE_BAND[1]:
                    steps = steps * 1.1
                elif rate < ACCEPTANCE_BAND[0]:
                    steps = steps * 0.9
                step_history.append((it + 1, tuple(steps)))
                block_accepted = 0

    return Chain(states[n_burn:], log_densities[n_burn:], accepted[n_burn:], tuple(step_history), config)


def sample_hyperposterior(
    obs: ObservationSet, priors: PriorEnsemble, strain_op, config: McmcConfig
) -> Chain:
    """Sample p(w | Y) with a flat box prior on w.

    The evidence of the whole recording is the product over instants, so
    the log target is the summed log marginal. The prior is projected to
    the gauges once, before the chain starts.
    """
    strain_means, strain_cov = priors.projected(strain_op)

    def log_target(vec: np.ndarray) -> float:
        return log_marginal(obs, Hyperparameters.from_array(vec), strain_means, strain_cov)

    return run_random_walk(log_target, config)


def point_estimate(chain: Chain) -> Hyperparameters:
    """Empirical posterior mean of the kept samples, of which a chain holds
    at least one: :class:`McmcConfig` refuses a burn-in that keeps none."""
    return Hyperparameters.from_array(chain.samples.mean(axis=0))


@dataclass(frozen=True)
class Estimate:
    """A chain's posterior mean ``w`` from :func:`point_estimate`, the sample
    standard deviation of each of its components, its acceptance rate and
    kept sample count: ``estimate.json`` and the ``infer`` summary."""

    w: Hyperparameters
    std: tuple[float, float, float]
    acceptance_rate: float
    n_kept: int

    @property
    def components(self) -> tuple[tuple[str, float, float], ...]:
        """(name, mean, std) of rho, sigma_d (strain) and ell_d."""
        return tuple(zip(("rho", "sigma_d", "ell_d"), (self.w.rho, self.w.sigma_d, self.w.ell_d), self.std))

    def render(self) -> str:
        """Kept count, acceptance rate and each component's mean and std, sigma_d in microstrain."""
        lines = [f"kept {self.n_kept} samples, acceptance rate {self.acceptance_rate:.3f}"]
        for (name, mean, std), (scale, unit) in zip(self.components, ((1.0, ""), (MICROSTRAIN, " ue"), (1.0, " m"))):
            lines.append(f"{name}: mean {mean / scale:.6g}{unit}, std {std / scale:.6g}{unit}")
        return "\n".join(lines)


def chain_diagnostics(chain: Chain) -> Estimate:
    """The estimate record of a chain: :func:`point_estimate` and the sample
    standard deviation of each component's column."""
    n = len(chain)
    std = tuple(float(col.std(ddof=1)) if n > 1 else 0.0 for col in chain.samples.T)
    return Estimate(point_estimate(chain), std, chain.acceptance_rate, n)
