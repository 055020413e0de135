"""Benchmark of the bridgetwin command line, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload drives the real CLI (``bridgetwin.cli.main`` under
PYTHONPATH=src) in child processes, one at a time: a closed loop with one
client. Inputs are synthetic recordings drawn from the README truth
(rho 0.9, sigma_d 4 ue, ell_d 0.5 m, sigma_e 1 ue) with seeds derived from
--seed. BLAS threading is left at the machine default and recorded.

Workloads (see README.md beside this file for why each exists):

  calibrate_full  infer over every loaded instant, then a posterior readout
  calibrate_thin  infer on the README demo window, longer chain, readout
                  (runs by hand; left out of BENCHMARK.json as unsteady)
  twin_cycle      synth, simulate, then posterior and predict at fixed w*

--trace 0 measures for --seconds and prints the end-to-end metrics. --trace 1
runs the preamble and one cycle four ways (untraced and traced, each at the
default BLAS threads and at OPENBLAS_NUM_THREADS=1), in rounds while
--seconds allows and at least once, and prints the per-layer metrics. A
traced child runs the same CLI with spans hooked around its calls into each
module (traced.py). Either way every command's output is checked against
tests/oracles.py after the timed part, and the last stdout line is the
result object; the line before it is the full record, with the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

CONFIGS = ROOT / "configs"
MODEL = str(CONFIGS / "bridge.yaml")
SCENARIO = str(CONFIGS / "train.yaml")
EAST = str(CONFIGS / "sensors_east.csv")
WEST = str(CONFIGS / "sensors_west.csv")
CONTEXT = ["--model", MODEL, "--scenario", SCENARIO, "--sensors", EAST]
TRUTH = ["--rho", "0.9", "--sigma-d", "4.0", "--ell-d", "0.5", "--sigma-e", "1.0"]
SIGMA_E = ["--sigma-e", "1.0"]
W_STAR = "0.9,4.0,0.5"
REQUIRED = (ROOT / "src" / "bridgetwin" / "cli.py", Path(MODEL), Path(WEST), ROOT / "tests" / "oracles.py")

CLI = "import sys; from bridgetwin.cli import main; raise SystemExit(main(sys.argv[1:]))"
SETUP_REPEATS = 5
# children still running this long after --seconds are killed: room for the
# preamble, the setup probes and a last cycle or trace round that overruns
MARGIN_S = 100.0
CHECK_S = 20.0  # the output checks may run this long past that point


# -- workloads ----------------------------------------------------------------


def _seeds(seed: int, cycle: int) -> tuple[int, np.random.Generator]:
    """A command seed and a generator for cycle ``cycle`` of workload seed ``seed``."""
    return 1000 * seed + cycle, np.random.default_rng([seed, cycle])


@dataclass(frozen=True)
class Calibrate:
    """infer on one recording, then a posterior readout at the fresh estimate."""

    window: tuple[str, str] | None
    stride: int
    iters: int
    burn_in: str | None = None
    measured: tuple[str, ...] = ("infer",)

    def _obs_args(self, rec: Path) -> list[str]:
        args = ["--obs", str(rec), *SIGMA_E, "--stride", str(self.stride)]
        return args + (["--window", *self.window] if self.window else [])

    def preamble(self, seed: int, work: Path) -> list[list[str]]:
        return [["synth", *CONTEXT, *TRUTH, "--seed", str(seed), "--out", str(work / "rec.csv")]]

    def setup_argv(self, work: Path) -> list[str]:
        return ["infer", *CONTEXT, *self._obs_args(work / "rec.csv"), "--out", str(work / "unused")]

    def cycle(self, seed: int, i: int, work: Path) -> list[list[str]]:
        mcmc_seed, rng = _seeds(seed, i)
        fit = work / f"fit{i}"
        t0, t1 = (float(t) for t in self.window) if self.window else (1.0, 3.0)
        obs = self._obs_args(work / "rec.csv")
        return [
            ["infer", *CONTEXT, *obs, "--iters", str(self.iters),
             *(["--burn-in", self.burn_in] if self.burn_in else []),
             "--seed", str(mcmc_seed), "--out", str(fit)],
            ["posterior", *CONTEXT, *obs, "--w-star", str(fit / "estimate.json"),
             "--time", f"{rng.uniform(t0, t1):.3f}", "--out", str(work / f"bands{i}.csv")],
        ]


@dataclass(frozen=True)
class TwinCycle:
    """A fresh recording, prior bands, then queries at fixed w* at a random instant."""

    measured: tuple[str, ...] = ("posterior", "predict")

    def preamble(self, seed: int, work: Path) -> list[list[str]]:
        return [["synth", *CONTEXT, *TRUTH, "--seed", str(seed), "--out", str(work / "rec.csv")]]

    def setup_argv(self, work: Path) -> list[str]:
        return ["posterior", *CONTEXT, "--obs", str(work / "rec.csv"), *SIGMA_E,
                "--w-star", W_STAR, "--time", "2.0", "--out", str(work / "unused.csv")]

    def cycle(self, seed: int, i: int, work: Path) -> list[list[str]]:
        rec_seed, rng = _seeds(seed, i)
        rec = work / f"rec{i}.csv"
        query = ["--obs", str(rec), *SIGMA_E, "--w-star", W_STAR, "--time", f"{rng.uniform(1.0, 3.0):.3f}"]
        return [
            ["synth", *CONTEXT, *TRUTH, "--seed", str(rec_seed), "--out", str(rec)],
            ["simulate", *CONTEXT, "--out", str(work / f"sim{i}")],
            ["posterior", *CONTEXT, *query, "--out", str(work / f"bands{i}.csv")],
            ["predict", *CONTEXT, *query, "--locations", WEST, "--out", str(work / f"west{i}.csv")],
        ]


WORKLOADS = {
    # evidence over 718 instants x 40 gauges dominates each proposal; a
    # burn-in of 100 of 200 iterations is one adaptation interval, so step
    # adaptation runs once, and a run fits several infer commands
    "calibrate_full": Calibrate(window=None, stride=1, iters=200, burn_in="0.5"),
    # 101 instants: per-proposal fixed cost, sampler overhead and setup weigh more
    "calibrate_thin": Calibrate(window=("1", "3"), stride=5, iters=400),
    # no evidence at all: import, context setup, CSV I/O and one-instant conditioning
    "twin_cycle": TwinCycle(),
}


# -- child processes ----------------------------------------------------------


@dataclass
class Run:
    argv: list[str]
    wall_s: float
    rss_mb: float
    code: int
    stderr: str
    traced: bool = False
    threads1: bool = False
    spans: dict | None = None


@dataclass
class Runner:
    work: Path
    deadline: float
    runs: list[Run] = field(default_factory=list)

    def _env(self, threads1: bool) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        if threads1:
            env["OPENBLAS_NUM_THREADS"] = "1"
        return env

    def spawn(self, args: list[str], threads1: bool = False) -> tuple[float, float, int, str]:
        """Run one child to completion: (wall s, peak RSS MB, exit code, stderr)."""
        err_path = self.work / "stderr.txt"
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        argv = [sys.executable, *args]
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            return 0.0, 0.0, -1, "skipped: the run's deadline has passed"
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self._env(threads1), file_actions=actions)
        previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")[-2000:] if code else ""
        return wall, usage.ru_maxrss / 1024.0, code, stderr

    def cli(self, argv: list[str], threads1: bool = False) -> Run:
        run = Run(argv, *self.spawn(["-c", CLI, *argv], threads1), threads1=threads1)
        self.runs.append(run)
        return run

    def traced(self, argv: list[str], threads1: bool = False) -> Run:
        spans_path = self.work / f"spans{len(self.runs)}.json"
        run = Run(argv, *self.spawn([str(HERE / "traced.py"), "--spans", str(spans_path), *argv],
                                    threads1), traced=True, threads1=threads1)
        if run.code == 0:
            run.spans = json.loads(spans_path.read_text(encoding="utf-8"))
        self.runs.append(run)
        return run


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _summary(values) -> dict:
    values = sorted(values)
    if not values:
        return {"n": 0}
    out = {"n": len(values), "median": statistics.median(values), "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


# -- untraced: end-to-end ------------------------------------------------------

def measure(name: str, seed: int, seconds: float, runner: Runner) -> tuple[dict, dict]:
    """Cycles, each after one setup probe, while the next is expected to end
    within --seconds of the start; at least SETUP_REPEATS probes in all.

    The probes spread over the whole run, like the cycles, so a slow spell
    of a shared machine weighs on every median alike.
    """
    wl = WORKLOADS[name]
    work = runner.work
    start = time.monotonic()
    for argv in wl.preamble(seed, work):
        runner.cli(argv)

    def probe() -> float:
        wall, _, code, err = runner.spawn([str(HERE / "traced.py"), "--setup", *wl.setup_argv(work)])
        if code != 0:
            raise RuntimeError(f"setup probe failed: {err}")
        return wall

    setup, cycles = [], []
    while not cycles or (
        time.monotonic() - start + _median(setup) + _median(w for w, _ in cycles) <= seconds
    ):
        setup.append(probe())
        cycle_runs = [runner.cli(argv) for argv in wl.cycle(seed, len(cycles), work)]
        cycles.append((sum(r.wall_s for r in cycle_runs), cycle_runs))
    while len(setup) < SETUP_REPEATS:
        setup.append(probe())

    cmd = [r for _, rs in cycles for r in rs if r.argv[0] in wl.measured]
    ess = [(_ess_min(r.argv), r.wall_s) for r in cmd if r.argv[0] == "infer" and r.code == 0]
    ess_rates = [e / wall for e, wall in ess if e is not None]

    all_cycle_runs = [r for _, rs in cycles for r in rs]
    metrics = {
        "cmd_wall_s": (_median(r.wall_s for r in cmd), "s"),
        "cycle_wall_s": (_median(w for w, _ in cycles), "s"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in all_cycle_runs), "MB"),
    }
    kind = "infer_wall_s" if name.startswith("calibrate") else "query_wall_s"
    detail = {
        kind: _summary(r.wall_s for r in cmd),
        "cycle_wall_s": _summary(w for w, _ in cycles),
        "setup_s": _summary(setup),
        "peak_rss_mb": _summary(r.rss_mb for r in all_cycle_runs),
        "cycles": len(cycles),
    }
    if ess_rates:
        detail["ess_per_s"] = _summary(ess_rates)
    return metrics, detail


# -- traced: per layer ----------------------------------------------------------

# (metric, unit, span, statistic, scale, commands); lower is better for all
#   statistic "call": median over every span of that name
#   statistic "self": median of the spans' self times
#   statistic "process": per-process sum, median over processes
SPAN_METRICS = [
    ("model.load_s", "s", "model.load", "call", 1.0, None),
    ("fem.assemble_s", "s", "fem.assemble", "call", 1.0, None),
    ("fem.strain_operator_s", "s", "fem.strain_operator", "call", 1.0, None),
    ("fem.prior_series_s", "s", "fem.prior_series", "call", 1.0, None),
    ("fem.project_ms", "ms", "fem.project", "call", 1e3, None),
    ("loading.load_series_s", "s", "loading.load_series", "call", 1.0, None),
    ("loading.force_cov_s", "s", "loading.force_cov", "call", 1.0, None),
    ("statfem.layout_resolve_s", "s", "statfem.layout_resolve", "call", 1.0, None),
    ("statfem.log_marginal_ms", "ms", "statfem.log_marginal", "call", 1e3, None),
    ("statfem.condition_ms", "ms", "statfem.condition", "process", 1e3, ("posterior",)),
    ("statfem.predict_ms", "ms", "statfem.predict", "call", 1e3, None),
    ("synth.generate_s", "s", "synth.generate", "process", 1.0, ("synth",)),
    ("dataio.read_obs_s", "s", "dataio.read_obs", "call", 1.0, None),
    ("dataio.write_obs_s", "s", "dataio.write_obs", "call", 1.0, None),
    ("dataio.write_chain_s", "s", "dataio.write_chain", "call", 1.0, None),
    ("pipeline.from_files_s", "s", "pipeline.from_files", "call", 1.0, None),
    ("pipeline.from_files_self_s", "s", "pipeline.from_files", "self", 1.0, None),
    ("pipeline.observations_from_csv_s", "s", "pipeline.observations_from_csv", "call", 1.0, None),
    ("pipeline.observations_from_csv_self_s", "s", "pipeline.observations_from_csv", "self", 1.0, None),
    ("cli.import_s", "s", "cli.import", "call", 1.0, None),
    ("cli.synth_s", "s", "cli.synth", "call", 1.0, None),
    ("cli.simulate_s", "s", "cli.simulate", "call", 1.0, None),
    ("cli.infer_s", "s", "cli.infer", "call", 1.0, None),
    ("cli.posterior_s", "s", "cli.posterior", "call", 1.0, None),
    ("cli.predict_s", "s", "cli.predict", "call", 1.0, None),
]
# (metric, unit, better), derived from counters and chains rather than one span
DERIVED_METRICS = [
    ("statfem.evidence_calls", "count", "lower"),
    ("statfem.evidence_gflop", "GFLOP", "lower"),
    ("statfem.evidence_gflops", "GFLOP/s", "higher"),
    ("inference.self_us_per_iter", "us", "lower"),
    ("inference.acceptance_rate", "ratio", "higher"),
    ("inference.in_box_ratio", "ratio", "higher"),
    ("inference.ess_min", "count", "higher"),
    ("inference.ess_per_s", "1/s", "higher"),
    ("dataio.read_obs_mb_per_s", "MB/s", "higher"),
]
RUN_METRICS = [
    ("trace_overhead_ratio", "ratio", "lower"),
    ("trace_overhead_ratio.t1", "ratio", "lower"),
    ("trace_coverage_ratio", "ratio", "higher"),
]


def _evidence_gflop(n_instants: int, n_y: int) -> float:
    """Computed, not counted: per instant the covariance build (about 6 n^2),
    the Cholesky factor (n^3 / 3) and one triangular solve (n^2)."""
    return n_instants * (n_y**3 / 3.0 + 7.0 * n_y**2) / 1e9


def _ess_min(infer_argv: list[str]) -> float | None:
    """Smallest per-component ESS of an infer command's chain, if readable."""
    from checks import chain_ess_min

    try:
        return chain_ess_min(Path(infer_argv[infer_argv.index("--out") + 1]) / "chain.csv")
    except (OSError, ValueError, KeyError):
        return None  # the output check reports the unreadable chain


def layer_metrics(traced: list[Run], untraced: list[Run], rounds: int) -> dict[str, float]:
    from spans import durations

    per_call: dict[str, list[float]] = {}
    per_self: dict[str, list[float]] = {}
    per_process: dict[tuple[str, str], list[float]] = {}
    for run in traced:
        total, own = durations(run.spans["spans"])
        for name, values in total.items():
            per_call.setdefault(name, []).extend(values)
            per_self.setdefault(name, []).extend(own[name])
            per_process.setdefault((name, run.argv[0]), []).append(sum(values))

    out = {}
    for metric, _, span, stat, scale, commands in SPAN_METRICS:
        if stat == "call":
            values = per_call.get(span, [])
        elif stat == "self":
            values = per_self.get(span, [])
        else:
            values = [v for cmd in commands for v in per_process.get((span, cmd), [])]
        out[metric] = _median(values) * scale

    infer = [(t, u) for t, u in zip(traced, untraced) if t.argv[0] == "infer"]
    counters = [t.spans["counters"] for t, _ in infer]
    rw_self = [
        per / c["iterations"]
        for (t, _), c in zip(infer, counters)
        for per in durations(t.spans["spans"])[1]["inference.run_random_walk"]
    ]
    ess = [(_ess_min(t.argv) or 0.0) for t, _ in infer]
    gflop = _median(_evidence_gflop(c["n_instants"], c["n_sensors"]) for c in counters)
    lm_s = out["statfem.log_marginal_ms"] / 1e3
    read_bytes = [t.spans["counters"]["read_obs_bytes"] for t in traced if t.spans["counters"]["read_obs_bytes"]]
    out.update({
        "statfem.evidence_calls": sum(t.spans["counters"]["evidence_calls"] for t in traced) / rounds,
        "statfem.evidence_gflop": gflop,
        "statfem.evidence_gflops": gflop / lm_s if lm_s > 0 else 0.0,
        "inference.self_us_per_iter": _median(rw_self) * 1e6,
        "inference.acceptance_rate": _median(c["acceptance_rate"] for c in counters),
        # the first evidence call scores the initial point, not a proposal
        "inference.in_box_ratio": _median((c["evidence_calls"] - 1) / c["iterations"] for c in counters),
        "inference.ess_min": _median(ess),
        "inference.ess_per_s": _median(e / u.wall_s for e, (_, u) in zip(ess, infer)),
        "dataio.read_obs_mb_per_s": (
            _median(read_bytes) / 1e6 / out["dataio.read_obs_s"] if out["dataio.read_obs_s"] > 0 else 0.0
        ),
    })
    return out


# (name, traced, OPENBLAS_NUM_THREADS=1 in the child)
VARIANTS = (("cli", False, False), ("traced", True, False), ("cli.t1", False, True), ("traced.t1", True, True))


def trace(name: str, seed: int, seconds: float, runner: Runner) -> tuple[dict, dict]:
    """The preamble and one cycle, four ways, in rounds while --seconds allows.

    Each way has its own directory. The four ways of each command run back
    to back, so a slow spell of the machine hits all four alike.
    """
    from spans import root_time

    wl = WORKLOADS[name]
    groups = {key: [] for key, _, _ in VARIANTS}
    start, rounds = time.monotonic(), 0
    while not rounds or (time.monotonic() - start) * (rounds + 1) / rounds <= seconds:
        plans = {}
        for key, _, _ in VARIANTS:
            work = runner.work / f"{key.replace('.', '_')}{rounds}"
            work.mkdir()
            plans[key] = wl.preamble(seed, work) + wl.cycle(seed, 0, work)
        for step in range(len(plans["cli"])):
            for key, traced, threads1 in VARIANTS:
                run = runner.traced if traced else runner.cli
                groups[key].append(run(plans[key][step], threads1))
        rounds += 1

    metrics = {}
    for suffix in ("", ".t1"):
        traced_runs, cli_runs = groups["traced" + suffix], groups["cli" + suffix]
        if any(r.code != 0 for r in traced_runs + cli_runs):
            continue
        for metric, value in layer_metrics(traced_runs, cli_runs, rounds).items():
            metrics[metric + suffix] = value
        metrics["trace_overhead_ratio" + suffix] = (
            sum(r.wall_s for r in traced_runs) / sum(r.wall_s for r in cli_runs)
        )
    if "trace_overhead_ratio" in metrics:
        metrics["trace_coverage_ratio"] = (
            sum(root_time(r.spans["spans"]) for r in groups["traced"])
            / sum(r.wall_s for r in groups["traced"])
        )
    traced_spans = [r.spans for key in ("traced", "traced.t1") for r in groups[key] if r.spans]
    detail = {
        "rounds": rounds,
        "wall_s": {key: [(r.argv[0], r.wall_s) for r in runs] for key, runs in groups.items()},
        "openblas_in_children": {
            key: groups[key][0].spans["openblas"] for key in ("traced", "traced.t1") if groups[key][0].spans
        },
        "unhooked": sorted({m for spans in traced_spans for m in spans["unhooked"]}),
    }
    return metrics, detail


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    base = [(m, u, "lower") for m, u, *_ in SPAN_METRICS] + DERIVED_METRICS
    return base + [(m + ".t1", u, b) for m, u, b in base] + RUN_METRICS


# -- checks ---------------------------------------------------------------------


def check_runs(runs: list[Run], runner: Runner) -> list[str]:
    """One failure line per failed operation: a non-zero exit, or an output
    that the checks in checks.py reject. Every run is checked, traced and
    single-threaded ones too, by a checker child with the same BLAS setting."""
    failures = [
        f"{_label(r)}: exit {r.code}: {r.stderr.strip()[-300:]}" for r in runs if r.code != 0
    ]
    for threads1 in (False, True):
        batch = [r for r in runs if r.code == 0 and r.threads1 == threads1]
        if not batch:
            continue
        request = {"context": [MODEL, SCENARIO, EAST], "commands": [r.argv for r in batch]}
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "checks.py")], input=json.dumps(request),
                capture_output=True, text=True, env=runner._env(threads1),
                timeout=max(runner.deadline - time.monotonic(), 0.0) + CHECK_S,
            )
            problems = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else None
        except (subprocess.TimeoutExpired, IndexError, ValueError):
            done, problems = None, None
        if problems is None:
            reason = done.stderr.strip()[-300:] if done else "timed out"
            problems = [f"checker failed: {reason}"] * len(batch)
        failures += [f"{_label(r)}: {p}" for r, p in zip(batch, problems) if p]
    return failures


def _label(run: Run) -> str:
    return run.argv[0] + (" traced" if run.traced else "") + (" t1" if run.threads1 else "")


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: not a bridgetwin checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    from envinfo import record

    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=scratch))
    runner = Runner(work, time.monotonic() + args.seconds + MARGIN_S)
    try:
        if args.trace:
            values, detail = trace(args.workload, args.seed, args.seconds, runner)
            metrics = {m: {"value": values.get(m, 0.0), "unit": u} for m, u, _ in per_layer_catalogue()}
        else:
            values, detail = measure(args.workload, args.seed, args.seconds, runner)
            metrics = {m: {"value": v, "unit": u} for m, (v, u) in values.items()}
        failures = check_runs(runner.runs, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runner.runs)
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        environment=record(ROOT), failed_ops_ratio=len(failures) / attempted, failures=failures,
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    results = scratch / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({"record": detail, "result": result}, indent=1))
    print(json.dumps({"record": detail}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
