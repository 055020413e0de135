"""Command line front end.

Subcommands cover the whole loop: model construction and inspection,
prior simulation, synthetic recordings, gauge calibration, hyperparameter
inference, posterior extraction and held-out prediction. Every successful
run writes a JSON manifest naming its inputs, seeds, versions, BLAS thread
settings and output files; failures exit 2 (configuration), 3 (numerics)
or 4 (file system) with a single-line error on stderr, at parse time for a bad numeric flag.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from contextlib import suppress
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, dataio
from .fem import FactorizationError
from .inference import McmcConfig, chain_diagnostics, sample_hyperposterior
from .model import ConfigError, load_model_config
from .pipeline import TwinContext
from .statfem import (
    DEFAULT_GAMMA_MIN,
    Hyperparameters,
    ObservationSet,
    SensorLayout,
    mismatch_covariance,
    noise_covariance,
    displacement_posterior,
    strain_predictive,
    true_strain_posterior,
    window_indices,
)
from .synth import DiscrepancySpec, generate_observations, generate_truth


def fbg_mechanical_strain(
    rel_shift_s: float,
    rel_shift_t: float = 0.0,
    k_eps: float = 0.78,
    k_t: float = 0.0,
    k_tt: float = 1.0,
    alpha_sub: float = 12e-6,
) -> float:
    """Temperature-compensated mechanical strain from FBG wavelength shifts.

    ``rel_shift_s`` and ``rel_shift_t`` are the relative wavelength shifts
    of the strain and temperature gratings, floats or arrays of a series,
    which convert elementwise; the temperature reading is
    removed through the temperature sensitivity ratio and the substrate
    expansion term:

        strain = (rel_shift_s - k_t * rel_shift_t / k_tt) / k_eps
                 - alpha_sub * rel_shift_t / k_tt
    """
    for name, value in {"k_eps": k_eps, "k_t": k_t, "k_tt": k_tt, "alpha_sub": alpha_sub}.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")
    if k_eps == 0.0 or k_tt == 0.0:
        raise ValueError(f"sensitivities k_eps and k_tt must be nonzero, got {k_eps} and {k_tt}")
    with np.errstate(over="ignore", invalid="ignore"):  # the table writer refuses a strain that overflowed
        temperature = rel_shift_t / k_tt
        return (rel_shift_s - k_t * temperature) / k_eps - alpha_sub * temperature


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # single-line errors, uniform exit code
        raise ConfigError(message)


def _rule(kind: str, holds, convert=float):
    """An argparse type: ``convert`` of the text, refused as typed unless it converts and ``holds``."""
    def parse(text: str):
        with suppress(ValueError):
            if holds(value := convert(text)):
                return value
        raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}")
    return parse


_FINITE = _rule("a finite number", math.isfinite)
_NONNEGATIVE = _rule("a finite number >= 0", lambda v: 0.0 <= v < math.inf)
_POSITIVE = _rule("a finite number > 0", lambda v: 0.0 < v < math.inf)
_NONZERO = _rule("a finite nonzero number", lambda v: math.isfinite(v) and v != 0.0)
_COUNT = _rule("an integer >= 1", lambda v: v >= 1, int)
_ITERS = _rule("an integer >= 2", lambda v: v >= 2, int)
_SEED = _rule("an integer >= 0", lambda v: v >= 0, int)


def _fail(category: str, exc: BaseException) -> None:
    message = " ".join(str(exc).split())
    print(f"error: {category}: {message}", file=sys.stderr)


def _write_manifest(path: Path, command: str, args: argparse.Namespace, outputs, seed=None) -> None:
    arguments = {
        k: v
        for k, v in sorted(vars(args).items())
        if k != "func" and v is not None and not callable(v)
    }
    doc = {
        "command": command,
        "arguments": arguments,
        "seed": seed,
        "outputs": [str(p) for p in outputs],
        "versions": {
            "bridgetwin": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        # recorded, never acted on: seeded reruns are byte-identical only on one thread setting
        "environment": {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "cpu_count": os.cpu_count(),
        },
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_w_star(spec: str) -> Hyperparameters:
    if os.path.exists(spec):
        return dataio.read_estimate(spec)
    try:
        return dataio.parse_hyperparameters(spec)
    except ValueError as exc:
        raise ConfigError(f"--w-star {spec}: {exc}") from None


def _windowed(args, time: float | None = None) -> tuple[TwinContext, ObservationSet]:
    """The context and the recording cut to --window, --stride and
    --gamma-min and, given a ``time``, to the one windowed instant nearest
    it. Every row's cell count and time cell are checked, but only the kept
    rows' strain cells are parsed, and those of the quiet head when
    --sigma-e is omitted. A decreasing window is refused before any file is
    read, and a ``time`` over a step outside the windowed instants after."""
    t0, t1 = args.window if args.window else (None, None)
    if args.window and t0 > t1:
        raise ConfigError(f"--window must not decrease, got {t0:g} {t1:g}")
    ctx = TwinContext.from_files(args.model, args.scenario, args.sensors)
    sigma_e = None if args.sigma_e is None else args.sigma_e * dataio.MICROSTRAIN
    step = ctx.scenario.time_step

    def rows(timestamps, gamma):
        idx = window_indices(timestamps, gamma, t0, t1, args.stride, args.gamma_min)
        kept = timestamps[idx]
        if time is not None and not kept.min() - step <= time <= kept.max() + step:
            raise ConfigError(f"--time {time:g} s lies more than one time step outside the window's "
                              f"instants, {kept.min():.6g} to {kept.max():.6g} s")
        return idx if time is None else idx[[int(np.argmin(np.abs(kept - time)))]]

    return ctx, ctx.observations_from_csv(args.obs, sigma_e=sigma_e, rows=rows)


# -- subcommand bodies --------------------------------------------------------


def _cmd_model(args) -> int:
    model = load_model_config(args.config)  # refuses any model that fails validation
    stiffness, dof_map = model.assembled
    print(f"model: {model.n_nodes} nodes, {len(model.elements)} elements, "
          f"{len(model.supports)} supported nodes, {dof_map.n_free} free dofs")
    print("validation: ok")
    if args.action == "info":
        print(f"span: {dataio.format_si(model.span())} m")
        for name, path in model.lines.items():
            print(f"line {name}: {len(path)} nodes")
        if model.deck_spacing is not None:
            print(f"deck spacing: {dataio.format_si(model.deck_spacing)} m")
        diag = np.diagonal(stiffness)
        print(f"stiffness diagonal range: [{diag.min():.6g}, {diag.max():.6g}] N/m")
    out = _out_dir(args)
    _write_manifest(out / "manifest.json", f"model {args.action}", args, [])
    return 0


def _cmd_simulate(args) -> int:
    ctx = TwinContext.from_files(args.model, args.scenario, args.sensors)
    out = _out_dir(args)
    priors = ctx.strain_prior()
    std_s = np.sqrt(np.clip(np.diagonal(priors.cov), 0.0, None))

    strain_path = out / "prior_strains.csv"
    dataio.write_prior_bands(str(strain_path), ctx.series.timestamps, ctx.layout.ids, priors.means, std_s)

    loads_path = out / "loads.csv"
    dataio.write_load_series(str(loads_path), ctx.series)
    print(f"wrote {strain_path} and {loads_path}: {len(ctx.series)} instants, "
          f"{len(ctx.layout)} sensors, crossing time "
          f"{ctx.scenario.crossing_time(ctx.model.span()):.3f} s, prior jitter {priors.jitter:.3e}")
    _write_manifest(out / "manifest.json", "simulate", args, [strain_path, loads_path])
    return 0


def _cmd_synth(args) -> int:
    ctx = TwinContext.from_files(args.model, args.scenario, args.sensors)
    spec = DiscrepancySpec(
        rho=args.rho,
        sigma=args.sigma_d * dataio.MICROSTRAIN,
        length_scale=args.ell_d,
        seed=args.seed,
    )
    truth = generate_truth(ctx.strain_means(), ctx.series.gamma, ctx.layout, spec)
    obs = generate_observations(
        truth, ctx.series.timestamps, ctx.series.gamma, ctx.layout,
        args.sigma_e * dataio.MICROSTRAIN, args.seed,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataio.write_observations(str(out), obs)
    print(f"wrote {out}: {obs.n_sensors} sensors x {obs.n_instants} instants "
          f"(rho {args.rho}, sigma_d {args.sigma_d} ue, ell_d {args.ell_d} m, "
          f"sigma_e {args.sigma_e} ue, seed {args.seed})")
    _write_manifest(Path(str(out) + ".manifest.json"), "synth", args, [out], seed=args.seed)
    return 0


def _cmd_calibrate(args) -> int:
    times, shift_s, shift_t = dataio.read_shift_table(args.input)
    strain = fbg_mechanical_strain(
        shift_s,
        0.0 if shift_t is None else shift_t,
        k_eps=args.k_eps,
        k_t=args.k_t,
        k_tt=args.k_tt,
        alpha_sub=args.alpha_sub,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataio.write_strain_series(str(out), times, strain)
    print(f"wrote {out}: {len(strain)} rows (k_eps {args.k_eps})")
    _write_manifest(Path(str(out) + ".manifest.json"), "calibrate", args, [out])
    return 0


def _cmd_infer(args) -> int:
    # the config refuses bad sampler settings before any work is done
    burn_in = {} if args.burn_in is None else {"burn_in_fraction": args.burn_in}
    config = McmcConfig(iterations=args.iters, seed=args.seed, **burn_in)
    ctx, obs = _windowed(args)
    out = _out_dir(args)  # an unusable --out is refused before the chain is run
    priors = ctx.strain_prior(ctx.match_instants(obs.timestamps))
    chain = sample_hyperposterior(obs, priors, np.eye(obs.n_sensors), config)
    estimate = chain_diagnostics(chain)

    chain_path, estimate_path = out / "chain.csv", out / "estimate.json"
    dataio.write_chain(str(chain_path), chain)
    dataio.write_estimate(str(estimate_path), estimate)
    print(f"sampled {config.iterations} iterations on {obs.n_instants} instants, prior jitter {priors.jitter:.3e}")
    print(estimate.render())
    lo, hi = config.acceptance_band
    if not lo <= estimate.acceptance_rate <= hi:
        print(f"warning: acceptance rate {estimate.acceptance_rate:.3f} is outside the band "
              f"[{lo:g}, {hi:g}]; the chain may mix poorly", file=sys.stderr)
    _write_manifest(out / "manifest.json", "infer", args, [chain_path, estimate_path], seed=args.seed)
    return 0


def _posterior_pieces(ctx: TwinContext, obs, w: Hyperparameters, held_out: SensorLayout | None = None):
    """The one instant of ``obs``, its mismatch covariance, and the prior of
    its gauges, then of any ``held_out`` ones, before and after conditioning."""
    t_k = float(obs.timestamps[0])
    gamma_k = float(obs.gamma[0])
    prior_k = ctx.strain_prior(ctx.match_instants(obs.timestamps), held_out).instant(0)
    c_d = mismatch_covariance(ctx.layout, w, gamma_k)
    c_e = noise_covariance(obs.n_sensors, obs.sigma_e)
    read = np.eye(obs.n_sensors, prior_k.mean.size)
    post = displacement_posterior(obs.strains[:, 0], w, prior_k, read, c_d, c_e)
    return t_k, gamma_k, prior_k, c_d, post


def _cmd_posterior(args) -> int:
    w = _resolve_w_star(args.w_star)
    ctx, obs = _windowed(args, args.time)
    t_k, gamma_k, prior_strain, c_d, fe_strain = _posterior_pieces(ctx, obs, w)
    z = true_strain_posterior(fe_strain, w, np.eye(obs.n_sensors), c_d)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    bands = {"prior": prior_strain, "fe": fe_strain, "z": z}
    dataio.write_sensor_bands(str(out), t_k, gamma_k, ctx.layout.sensors,
                              {name: (b.mean, b.std()) for name, b in bands.items()},
                              observed=obs.strains[:, 0])
    print(f"wrote {out}: instant t={t_k:.6g} s (gamma {gamma_k:.3f}), "
          f"{len(ctx.layout)} sensors, prior jitter {fe_strain.jitter:.3e}")
    _write_manifest(Path(str(out) + ".manifest.json"), "posterior", args, [out])
    return 0


def _cmd_predict(args) -> int:
    w = _resolve_w_star(args.w_star)
    ctx, obs = _windowed(args, args.time)
    held_out = SensorLayout.resolve(ctx.model, dataio.read_layout_entries(args.locations))
    t_k, gamma_k, _, _, post = _posterior_pieces(ctx, obs, w, held_out)

    c_d_hat = mismatch_covariance(held_out, w, gamma_k)
    c_e_hat = noise_covariance(len(held_out), obs.sigma_e)
    pred = strain_predictive(post, w, np.eye(len(held_out), post.mean.size, obs.n_sensors), c_d_hat, c_e_hat)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataio.write_sensor_bands(str(out), t_k, gamma_k, held_out.sensors, {"": (pred.mean, pred.std())})
    print(f"wrote {out}: {len(held_out)} held-out sensors at t={t_k:.6g} s")
    _write_manifest(Path(str(out) + ".manifest.json"), "predict", args, [out])
    return 0


# -- parser -------------------------------------------------------------------


def _add_context_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model YAML")
    p.add_argument("--scenario", required=True, help="crossing scenario YAML")
    p.add_argument("--sensors", required=True, help="sensor layout CSV")


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--obs", required=True, help="recording CSV (microstrain)")
    p.add_argument("--sigma-e", type=_NONNEGATIVE, default=None,
                   help="gauge noise in microstrain (default: estimated from the quiet start)")
    p.add_argument("--window", type=_FINITE, nargs=2, metavar=("T0", "T1"), default=None,
                   help="restrict inference to [T0, T1] seconds")
    p.add_argument("--stride", type=_COUNT, default=1, help="keep every k-th instant")
    p.add_argument("--gamma-min", type=_FINITE, default=DEFAULT_GAMMA_MIN,
                   help="drop instants below this relative load level")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="bridgetwin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="build or inspect a bridge model")
    p.add_argument("action", choices=("build", "info"))
    p.add_argument("--config", required=True, help="model YAML")
    p.add_argument("--out", default=".", help="manifest directory")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("simulate", help="prior strain bands and load series for a crossing")
    _add_context_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("synth", help="generate a synthetic noisy recording")
    _add_context_args(p)
    p.add_argument("--rho", type=_POSITIVE, required=True, help="true scaling factor")
    p.add_argument("--sigma-d", type=_NONNEGATIVE, required=True, help="true mismatch amplitude (microstrain)")
    p.add_argument("--ell-d", type=_POSITIVE, required=True, help="true mismatch length (m)")
    p.add_argument("--sigma-e", type=_NONNEGATIVE, required=True, help="gauge noise (microstrain)")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True, help="recording CSV to write")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("calibrate", help="FBG wavelength shifts to mechanical strain")
    p.add_argument("--in", dest="input", required=True, help="CSV with rel_shift_s[,rel_shift_t][,t]")
    p.add_argument("--out", required=True, help="strain CSV to write (microstrain)")
    p.add_argument("--k-eps", type=_NONZERO, default=0.78, help="strain sensitivity")
    p.add_argument("--k-t", type=_FINITE, default=0.0, help="cross sensitivity of the strain grating")
    p.add_argument("--k-tt", type=_NONZERO, default=1.0, help="temperature grating sensitivity")
    p.add_argument("--alpha-sub", type=_FINITE, default=12e-6, help="substrate expansion per K")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("infer", help="sample the mismatch hyperposterior from a recording")
    _add_context_args(p)
    _add_obs_args(p)
    p.add_argument("--iters", type=_ITERS, default=20000, help="MCMC iterations")
    p.add_argument("--burn-in", type=_FINITE, default=None, help="burn-in fraction (default 0.25)")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("posterior", help="condition the model on one instant of a recording")
    _add_context_args(p)
    _add_obs_args(p)
    p.add_argument("--w-star", required=True,
                   help="estimate.json path or inline rho,sigma_d,ell_d (sigma_d in microstrain)")
    p.add_argument("--time", type=_FINITE, required=True, help="instant of interest (s)")
    p.add_argument("--out", required=True, help="band CSV to write")
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("predict", help="predictive bands at held-out gauge locations")
    _add_context_args(p)
    _add_obs_args(p)
    p.add_argument("--w-star", required=True,
                   help="estimate.json path or inline rho,sigma_d,ell_d (sigma_d in microstrain)")
    p.add_argument("--time", type=_FINITE, required=True, help="instant of interest (s)")
    p.add_argument("--locations", required=True, help="held-out sensor layout CSV")
    p.add_argument("--out", required=True, help="band CSV to write")
    p.set_defaults(func=_cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (FactorizationError, np.linalg.LinAlgError) as exc:
        _fail("numeric", exc)
        return 3
    except (ValueError, KeyError) as exc:  # ConfigError is a ValueError
        _fail("config", exc)
        return 2
    except OSError as exc:
        _fail("io", exc)
        return 4


def entry() -> None:
    raise SystemExit(main())
