"""Output checks for the commands the benchmark runs.

Each check reads what a command wrote and holds it against the independent
references in tests/oracles.py, or against the package's own in-memory
result where the promise is bit identity. A check returns None when the
output is right and a one-line reason when it is not. Checks run after the
timed commands, never inside them.

    python3 perfbench/checks.py < request.json

checks the commands of a request, {"context": [model, scenario, sensors],
"commands": [argv, ...]}, and prints one JSON list of results. The benchmark
runs it as a child with the BLAS thread setting of the commands it checks,
since the in-memory draw that a recording must match bit for bit depends on
the thread count.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

from ess import chain_ess

BAND = 1.959963984540054  # two-sided 95% normal quantile, as the CLI writes bands
LOG_POST_RTOL = 1e-9
ESTIMATE_RTOL = 1e-12
BAND_RTOL = 1e-8  # of the largest magnitude in each compared group; observed errors are below 2e-10


def read_chain(path: Path):
    """(samples with sigma_d in strain, log_post) of a chain.csv."""
    from bridgetwin.dataio import parse_microstrain

    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path} holds no rows")
    samples = np.array([
        [float(r["rho"]), parse_microstrain(r["sigma_d"]), float(r["ell_d"])] for r in rows
    ])
    return samples, np.array([float(r["log_post"]) for r in rows])


def chain_ess_min(path: Path) -> float:
    samples, _ = read_chain(path)
    return min(chain_ess(samples))


def resolve_w_star(spec: str):
    """--w-star as the CLI documents it: an estimate.json path or an inline triplet."""
    from bridgetwin import dataio

    if Path(spec).exists():
        return dataio.read_estimate(spec)
    return dataio.parse_hyperparameters(spec)


def _band_table(path: Path):
    """Instant time from the comment line, and the data rows."""
    with open(path, encoding="utf-8", newline="") as fh:
        comment = fh.readline()
        rows = list(csv.reader(fh))
    fields = dict(part.split("=", 1) for part in comment.split(";")[0].split() if "=" in part)
    return float(fields["t"]), rows[1:]


def _bands(mean, cov):
    std = np.sqrt(np.clip(np.diagonal(cov), 0.0, None))
    return np.column_stack([mean, mean - BAND * std, mean + BAND * std])


def _compare_bands(written, expected, label: str) -> str | None:
    scale = float(np.max(np.abs(expected)))
    err = float(np.max(np.abs(written - expected)))
    if not err <= BAND_RTOL * scale:
        return f"{label} bands differ from the oracle by {err:.3e} (scale {scale:.3e})"
    return None


class Checker:
    """References shared by the checks of one benchmark run."""

    def __init__(self, root: Path, model: str, scenario: str, sensors: str) -> None:
        sys.path.insert(0, str(root / "tests"))
        import oracles
        from bridgetwin.cli import build_parser
        from bridgetwin.pipeline import TwinContext

        self.oracles = oracles
        self.parser = build_parser()
        self.ctx = TwinContext.from_files(model, scenario, sensors)

    def check(self, argv: list[str]) -> str | None:
        args = self.parser.parse_args(argv)
        try:
            return getattr(self, f"_check_{args.command}")(args)
        except Exception as exc:  # an unreadable output fails its operation, not the run
            return f"output unreadable: {type(exc).__name__}: {exc}"

    # -- helpers --------------------------------------------------------------

    def _window(self, args):
        from bridgetwin.dataio import MICROSTRAIN

        obs = self.ctx.observations_from_csv(args.obs, sigma_e=args.sigma_e * MICROSTRAIN)
        t0, t1 = args.window if args.window else (None, None)
        return obs.window(t0, t1, stride=args.stride, gamma_min=args.gamma_min)

    def _conditioned(self, args):
        """Oracle conditioning at the instant the command reports."""
        obs = self._window(args)
        w = resolve_w_star(args.w_star)
        t_k, rows = _band_table(Path(args.out))
        k = int(np.argmin(np.abs(obs.timestamps - args.time)))
        if obs.timestamps[k] != t_k:
            raise ValueError(f"instant {t_k} is not the one nearest {args.time}")
        gamma_k = float(obs.gamma[k])
        prior = self.ctx.prior_series(self.ctx.match_instants(np.array([t_k]))).instant(0)
        p = self.ctx.strain_op.matrix
        c_d = self.oracles.sq_exp_matrix_loops(obs.layout.points, gamma_k * w.sigma_d, w.ell_d)
        c_e = obs.sigma_e**2 * np.eye(obs.n_sensors)
        post_mean, post_cov = self.oracles.conditioned_joint(
            obs.strains[:, k], w.rho, prior.mean, prior.cov, p, c_d, c_e
        )
        return obs, w, gamma_k, prior, p, post_mean, post_cov, rows

    # -- per command ----------------------------------------------------------

    def _check_synth(self, args) -> str | None:
        from bridgetwin import dataio
        from bridgetwin.synth import DiscrepancySpec, generate_observations, generate_truth

        ctx = self.ctx
        spec = DiscrepancySpec(args.rho, args.sigma_d * dataio.MICROSTRAIN, args.ell_d, args.seed)
        truth = generate_truth(ctx.strain_means(), ctx.series.gamma, ctx.layout, spec)
        drawn = generate_observations(
            truth, ctx.series.timestamps, ctx.series.gamma, ctx.layout,
            args.sigma_e * dataio.MICROSTRAIN, args.seed,
        )
        ids, timestamps, strains = dataio.read_observation_table(args.out)
        if ids != ctx.layout.ids:
            return "recording columns differ from the layout"
        if not (np.array_equal(timestamps, drawn.timestamps) and np.array_equal(strains, drawn.strains)):
            return "recording does not read back bit-identical to the in-memory draw"
        return None

    def _check_simulate(self, args) -> str | None:
        out = Path(args.out)
        with open(out / "prior_strains.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        expected = len(self.ctx.series) * len(self.ctx.layout)
        if rows[0] != ["t", "sensor", "mean", "lo95", "hi95"] or len(rows) - 1 != expected:
            return f"prior_strains.csv has {len(rows) - 1} band rows, expected {expected}"
        return None

    def _check_infer(self, args) -> str | None:
        oracles, ctx = self.oracles, self.ctx
        obs = self._window(args)
        priors = ctx.prior_series(ctx.match_instants(obs.timestamps))
        p = ctx.strain_op.matrix
        means = p @ priors.means
        strain_cov = p @ priors.cov @ p.T
        noise = obs.sigma_e**2 * np.eye(obs.n_sensors)
        points = obs.layout.points

        out = Path(args.out)
        samples, log_post = read_chain(out / "chain.csv")
        n = len(samples)
        for row in sorted({0, n // 2, n - 1}):  # first, middle and last kept rows
            rho, sigma_d, ell_d = samples[row]
            unit = oracles.sq_exp_matrix_loops(points, 1.0, ell_d)
            expected = sum(
                oracles.gaussian_logpdf(
                    obs.strains[:, k], rho * means[:, k],
                    rho * rho * strain_cov + (obs.gamma[k] * sigma_d) ** 2 * unit + noise,
                )
                for k in range(obs.n_instants)
            )
            if not abs(log_post[row] - expected) <= LOG_POST_RTOL * abs(expected):
                return f"chain row {row}: log_post {log_post[row]!r} but the oracle gives {expected!r}"

        with open(out / "estimate.json", encoding="utf-8") as fh:
            estimate = json.load(fh)
        mean = samples.mean(axis=0)
        written = np.array([estimate["rho"], estimate["sigma_d_microstrain"] * 1e-6, estimate["ell_d"]])
        if not np.allclose(written, mean, rtol=ESTIMATE_RTOL, atol=0.0):
            return f"estimate.json {written.tolist()} is not the kept-sample mean {mean.tolist()}"
        return None

    def _check_posterior(self, args) -> str | None:
        from bridgetwin.dataio import parse_microstrain

        obs, w, gamma_k, prior, p, post_mean, post_cov, rows = self._conditioned(args)
        if [r[0] for r in rows] != obs.layout.ids:
            return "posterior rows do not follow the layout"
        table = np.array([[parse_microstrain(c) for c in r[4:13]] for r in rows])
        c_d = self.oracles.sq_exp_matrix_loops(obs.layout.points, gamma_k * w.sigma_d, w.ell_d)
        z_mean, z_cov = self.oracles.latent_strain_belief(w.rho, post_mean, post_cov, p, c_d)
        groups = (
            ("prior", table[:, 0:3], _bands(p @ prior.mean, p @ prior.cov @ p.T)),
            ("fe", table[:, 3:6], _bands(p @ post_mean, p @ post_cov @ p.T)),
            ("z", table[:, 6:9], _bands(z_mean, z_cov)),
        )
        for label, written, expected in groups:
            failure = _compare_bands(written, expected, f"posterior {label}")
            if failure:
                return failure
        return None

    def _check_predict(self, args) -> str | None:
        from bridgetwin import dataio
        from bridgetwin.statfem import SensorLayout

        obs, w, gamma_k, _, _, post_mean, post_cov, rows = self._conditioned(args)
        held_out = SensorLayout.resolve(self.ctx.model, dataio.read_layout_entries(args.locations))
        if [r[0] for r in rows] != held_out.ids:
            return "predict rows do not follow the held-out layout"
        p_hat = self.ctx.operator_for(held_out).matrix
        c_d = self.oracles.sq_exp_matrix_loops(held_out.points, gamma_k * w.sigma_d, w.ell_d)
        c_e = obs.sigma_e**2 * np.eye(len(held_out))
        mean, cov = self.oracles.predictive_belief(w.rho, post_mean, post_cov, p_hat, c_d, c_e)
        table = np.array([[dataio.parse_microstrain(c) for c in r[4:7]] for r in rows])
        return _compare_bands(table, _bands(mean, cov), "predict")


def main() -> int:
    request = json.load(sys.stdin)
    checker = Checker(Path(__file__).resolve().parent.parent, *request["context"])
    print(json.dumps([checker.check(argv) for argv in request["commands"]]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
