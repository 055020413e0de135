"""One bridgetwin command run through the real CLI, with spans around its calls into each module.

    python3 perfbench/traced.py --spans OUT.json <bridgetwin arguments>
    python3 perfbench/traced.py --setup <bridgetwin arguments>

With ``--spans`` the process imports ``bridgetwin.cli``, replaces each
function or method named in HOOKS with a wrapper that opens a span around
the call, and then runs ``bridgetwin.cli.main`` on the arguments. A hooked
module function is replaced in every loaded bridgetwin module that holds
it, so the span sits wherever the CLI reaches the function from; a hooked
method is replaced on its class. The command therefore takes the program's
own path and writes the program's own outputs. The spans, a few counters
and the live BLAS thread count go to OUT.json when the command ends, along
with any hook whose target no longer exists.

Every strain operator the command builds and every prior ensemble it
projects are kept until the process ends, so the projection cache of a
prior ensemble, keyed by the id() of an operator matrix, never meets a
recycled id. Only the first projection of an ensemble with an operator is
timed as ``fem.project``; later calls are cache hits and carry no span.

With ``--setup`` nothing is traced: the process imports the package,
builds the context from files, reads the recording and propagates the
prior for the command's window, which is the work every command pays
before its first evidence evaluation or conditioning.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402

# (module, function or Class.method, span name)
HOOKS = [
    ("bridgetwin.cli", "build_parser", "cli.parse"),
    ("bridgetwin.cli", "_cmd_synth", "cli.synth"),
    ("bridgetwin.cli", "_cmd_simulate", "cli.simulate"),
    ("bridgetwin.cli", "_cmd_infer", "cli.infer"),
    ("bridgetwin.cli", "_cmd_posterior", "cli.posterior"),
    ("bridgetwin.cli", "_cmd_predict", "cli.predict"),
    ("bridgetwin.cli", "_write_manifest", "cli.manifest"),
    ("bridgetwin.pipeline", "TwinContext.from_files", "pipeline.from_files"),
    ("bridgetwin.pipeline", "TwinContext.observations_from_csv", "pipeline.observations_from_csv"),
    ("bridgetwin.model", "load_model_config", "model.load"),
    ("bridgetwin.loading", "load_scenario_config", "loading.scenario"),
    ("bridgetwin.loading", "load_series", "loading.load_series"),
    ("bridgetwin.loading", "force_covariance", "loading.force_cov"),
    ("bridgetwin.fem", "assemble", "fem.assemble"),
    ("bridgetwin.fem", "build_strain_operator", "fem.strain_operator"),
    ("bridgetwin.fem", "propagate_prior_series", "fem.prior_series"),
    ("bridgetwin.fem", "PriorEnsemble.projected", "fem.project"),
    ("bridgetwin.statfem", "SensorLayout.resolve", "statfem.layout_resolve"),
    ("bridgetwin.statfem", "log_marginal", "statfem.log_marginal"),
    ("bridgetwin.statfem", "displacement_posterior", "statfem.condition"),
    ("bridgetwin.statfem", "true_strain_posterior", "statfem.condition"),
    ("bridgetwin.statfem", "strain_predictive", "statfem.predict"),
    ("bridgetwin.inference", "run_random_walk", "inference.run_random_walk"),
    ("bridgetwin.inference", "point_estimate", "inference.point_estimate"),
    ("bridgetwin.inference", "chain_diagnostics", "inference.diagnostics"),
    ("bridgetwin.synth", "generate_truth", "synth.generate"),
    ("bridgetwin.synth", "generate_observations", "synth.generate"),
    ("bridgetwin.dataio", "read_layout_entries", "dataio.read_layout"),
    ("bridgetwin.dataio", "read_observation_table", "dataio.read_obs"),
    ("bridgetwin.dataio", "write_observations", "dataio.write_obs"),
    ("bridgetwin.dataio", "write_load_series", "dataio.write_loads"),
    ("bridgetwin.dataio", "write_chain", "dataio.write_chain"),
    ("bridgetwin.dataio", "write_estimate", "dataio.write_estimate"),
]


class Probe:
    """The tracer, counters and kept objects of one traced command."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counters: dict[str, float] = {"evidence_calls": 0, "read_obs_bytes": 0}
        self.keep_alive: list = []
        self.projected: set[tuple[int, int]] = set()

    def wrap(self, fn, span: str, before=None, after=None):
        """``fn`` inside a span. ``before`` may return True to skip the span;
        ``after`` sees the result and the arguments."""
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None and before(*args, **kwargs):
                return fn(*args, **kwargs)
            with tracer.span(span):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    # -- what some hooks do besides the span -----------------------------------

    def cache_hit(self, ensemble, strain_op) -> bool:
        """Whether this ensemble was projected with this operator before."""
        matrix = getattr(strain_op, "matrix", strain_op)
        key = (id(ensemble), id(matrix))
        if key in self.projected:
            return True
        self.projected.add(key)
        self.keep_alive += [ensemble, matrix]
        return False

    def keep_operator(self, op, *args, **kwargs) -> None:
        self.keep_alive.append(op)

    def count_evidence(self, _, obs, *args, **kwargs) -> None:
        self.counters["evidence_calls"] += 1
        self.counters.update(n_instants=obs.n_instants, n_sensors=obs.n_sensors)

    def count_chain(self, chain, _, config) -> None:
        self.counters.update(iterations=config.iterations, acceptance_rate=chain.acceptance_rate)

    def count_read(self, _, path) -> None:
        self.counters["read_obs_bytes"] += Path(path).stat().st_size

    # -- installing the hooks --------------------------------------------------

    def install(self) -> list[str]:
        """Hook every target in HOOKS; return those that do not exist."""
        before = {"fem.project": self.cache_hit}
        after = {
            "fem.strain_operator": self.keep_operator,
            "statfem.log_marginal": self.count_evidence,
            "inference.run_random_walk": self.count_chain,
            "dataio.read_obs": self.count_read,
        }
        missing = []
        for module_name, target, span in HOOKS:
            owner = importlib.import_module(module_name)
            *path, name = target.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(name) if owner is not None else None
            if raw is None:
                missing.append(f"{module_name}.{target}")
                continue
            hooks = {"before": before.get(span), "after": after.get(span)}
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(self.wrap(raw.__func__, span, **hooks)))
            elif isinstance(owner, type):
                setattr(owner, name, self.wrap(raw, span, **hooks))
            else:
                traced = self.wrap(raw, span, **hooks)
                for module in [m for n, m in sys.modules.items() if n.startswith("bridgetwin")]:
                    for attr, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, attr, traced)
        return missing


def setup(args) -> None:
    """Import, context, recording and prior for the command's window, untraced."""
    from bridgetwin import dataio
    from bridgetwin.pipeline import TwinContext

    ctx = TwinContext.from_files(args.model, args.scenario, args.sensors)
    obs = ctx.observations_from_csv(args.obs, sigma_e=args.sigma_e * dataio.MICROSTRAIN)
    t0, t1 = args.window if args.window else (None, None)
    obs = obs.window(t0, t1, stride=args.stride, gamma_min=args.gamma_min)
    ctx.prior_series(ctx.match_instants(obs.timestamps))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in ("--spans", "--setup"):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "--setup":
        from bridgetwin.cli import build_parser

        setup(build_parser().parse_args(argv[1:]))
        return 0

    spans_path, cli_argv = argv[1], argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        from bridgetwin import cli
    probe = Probe(tracer)
    missing = probe.install()
    code = cli.main(cli_argv)

    from envinfo import openblas_libraries

    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({
            "command": cli_argv[0],
            "spans": tracer.spans,
            "counters": probe.counters,
            "unhooked": missing,
            "openblas": openblas_libraries(),
        }, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
