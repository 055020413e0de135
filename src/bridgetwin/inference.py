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

import numpy as np

from .fem import PriorEnsemble
from .model import readonly
from .statfem import Hyperparameters, ObservationSet, log_marginal

DEFAULT_SUPPORT = ((1e-3, 1e2), (1e-9, 1e-3), (1e-2, 1e2))
DEFAULT_STEPS = (0.05, 2e-7, 0.05)


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings.

    ``support`` bounds (rho, sigma_d, ell_d) with sigma_d in strain;
    proposals landing outside are rejected without evaluating the target.
    ``acceptance_band`` is the desired acceptance window: burn-in blocks of
    ``adapt_interval`` iterations scale all steps by 1.1 above the band and
    0.9 below it. The burn-in, ``burn_in_fraction`` of the iterations
    rounded, must leave at least one kept sample.
    """

    iterations: int = 20000
    burn_in_fraction: float = 0.25
    initial: tuple[float, float, float] = (1.0, 1e-6, 1.0)
    step_sizes: tuple[float, float, float] = DEFAULT_STEPS
    support: tuple[tuple[float, float], ...] = DEFAULT_SUPPORT
    seed: int = 0
    acceptance_band: tuple[float, float] = (0.2, 0.5)
    adapt_interval: int = 100

    def __post_init__(self) -> None:
        if self.iterations < 2:
            raise ValueError("need at least two iterations")
        if not 0.0 <= self.burn_in_fraction < 1.0:
            raise ValueError(f"burn-in fraction must lie in [0, 1), got {self.burn_in_fraction}")
        if self.n_burn >= self.iterations:
            raise ValueError(f"burn-in fraction {self.burn_in_fraction} rounds to all {self.iterations} "
                             f"iterations and keeps no sample")
        if len(self.support) != 3 or any(not lo < hi for lo, hi in self.support):
            raise ValueError("support must be three increasing (lo, hi) pairs")
        if any(lo <= 0.0 for lo, _ in self.support):
            raise ValueError("support bounds must be positive")
        if len(self.step_sizes) != 3 or any(s <= 0.0 for s in self.step_sizes):
            raise ValueError("step sizes must be three positive numbers")
        lo, hi = self.acceptance_band
        if not 0.0 < lo < hi < 1.0:
            raise ValueError(f"acceptance band must be 0 < lo < hi < 1, got {self.acceptance_band}")
        if self.adapt_interval < 1:
            raise ValueError("adapt interval must be >= 1")
        for v, (blo, bhi) in zip(self.initial, self.support):
            if not blo <= v <= bhi:
                raise ValueError(f"initial point {self.initial} leaves the support box")

    @property
    def n_burn(self) -> int:
        return int(round(self.iterations * self.burn_in_fraction))


@dataclass(frozen=True)
class Chain:
    """Post-burn-in samples with bookkeeping.

    ``samples`` rows are (rho, sigma_d, ell_d); ``first_iteration`` is the
    absolute index of the first kept iteration. ``step_history`` records
    (iteration, step vector) at every burn-in adaptation.
    """

    samples: np.ndarray
    log_density: np.ndarray
    accepted: np.ndarray
    acceptance_rate: float
    first_iteration: int
    step_history: tuple[tuple[int, tuple[float, float, float]], ...]
    config: McmcConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", readonly(self.samples))
        object.__setattr__(self, "log_density", readonly(self.log_density))
        object.__setattr__(self, "accepted", readonly(self.accepted, bool))

    def __len__(self) -> int:
        return self.samples.shape[0]


def run_random_walk(log_density, config: McmcConfig) -> Chain:
    """Sample an arbitrary 3-component log density over the support box.

    ``log_density`` is called only inside the box and may return -inf. The
    initial point must have finite density. Deterministic in config.seed.
    """
    rng = np.random.default_rng(config.seed)
    lo = np.array([b[0] for b in config.support])
    hi = np.array([b[1] for b in config.support])
    steps = np.array(config.step_sizes, dtype=float)

    current = np.array(config.initial, dtype=float)
    current_lp = float(log_density(current))
    if not math.isfinite(current_lp):
        raise ValueError(f"log density is not finite at the initial point {config.initial}")

    n_burn = config.n_burn
    kept = config.iterations - n_burn
    samples = np.empty((kept, 3))
    log_densities = np.empty(kept)
    accepted_flags = np.zeros(kept, dtype=bool)
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
        if it < n_burn:
            block_accepted += accept
            if (it + 1) % config.adapt_interval == 0:
                rate = block_accepted / config.adapt_interval
                if rate > config.acceptance_band[1]:
                    steps = steps * 1.1
                elif rate < config.acceptance_band[0]:
                    steps = steps * 0.9
                step_history.append((it + 1, tuple(steps)))
                block_accepted = 0
        else:
            k = it - n_burn
            samples[k] = current
            log_densities[k] = current_lp
            accepted_flags[k] = accept

    rate = float(np.mean(accepted_flags)) if kept else 0.0
    return Chain(samples, log_densities, accepted_flags, rate, n_burn, tuple(step_history), config)


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
    """Empirical posterior mean of the kept samples."""
    if len(chain) == 0:
        raise ValueError("chain has no kept samples")
    return Hyperparameters.from_array(chain.samples.mean(axis=0))


@dataclass(frozen=True)
class Estimate:
    """A chain's point estimate ``w`` with each component's (name, mean, std),
    its acceptance rate and kept sample count: ``estimate.json`` and the
    ``infer`` summary."""

    w: Hyperparameters
    components: tuple[tuple[str, float, float], ...]
    acceptance_rate: float
    n_kept: int

    def render(self) -> str:
        lines = [f"kept samples: {self.n_kept}", f"acceptance rate: {self.acceptance_rate:.3f}"]
        for name, mean, std in self.components:
            lines.append(f"{name}: mean {mean:.6g}, std {std:.6g}")
        return "\n".join(lines)


def chain_diagnostics(chain: Chain) -> Estimate:
    """The estimate record of a chain: :func:`point_estimate` and the mean
    and sample standard deviation of each component's column."""
    n = len(chain)
    components = tuple((name, float(col.mean()), float(col.std(ddof=1)) if n > 1 else 0.0)
                       for name, col in zip(("rho", "sigma_d", "ell_d"), chain.samples.T))
    return Estimate(point_estimate(chain), components, chain.acceptance_rate, n)
