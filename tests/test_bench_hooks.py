"""The benchmark's traced runs and setup probe still work with the package.

``perfbench/traced.py`` wraps the targets named in its HOOKS table to time
each layer; a target that a refactor deletes or renames would silently
drop that layer's metric as ``unhooked``. The first tests resolve every
target the way the tracer does, without installing any wrapper. The last
ones run the traced queries and the setup probe in child processes, as the
benchmark does, so a changed signature that breaks them fails here.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bridgetwin.dataio import write_observations
from bridgetwin.synth import DiscrepancySpec, generate_observations, generate_truth

from conftest import BRIDGE_YAML, SENSORS_EAST, SENSORS_WEST, TRAIN_YAML

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from traced import HOOKS  # noqa: E402

QUERY = ["--model", BRIDGE_YAML, "--scenario", TRAIN_YAML, "--sensors", SENSORS_EAST,
         "--sigma-e", "1.0", "--w-star", "0.9,4.0,0.5", "--time", "2.0"]


def test_hook_table_is_not_empty():
    assert HOOKS


@pytest.mark.parametrize("module_name,target", [(m, t) for m, t, _ in HOOKS])
def test_hooked_target_resolves(module_name, target):
    owner = importlib.import_module(module_name)
    *path, name = target.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        assert owner is not None, f"{module_name} has no {part}"
    assert vars(owner).get(name) is not None, f"{module_name}.{target} is gone"


@pytest.fixture(scope="module")
def short_recording(tmp_path_factory, bundled_ctx):
    """Every 20th instant of a noisy recording at the README truth."""
    ctx = bundled_ctx
    idx = np.arange(0, len(ctx.series), 20)
    gamma = ctx.series.gamma[idx]
    truth = generate_truth(ctx.strain_means()[:, idx], gamma, ctx.layout, DiscrepancySpec(0.9, 4e-6, 0.5, seed=1))
    obs = generate_observations(truth, ctx.series.timestamps[idx], gamma, ctx.layout, 1e-6, seed=1)
    path = tmp_path_factory.mktemp("bench") / "rec.csv"
    write_observations(path, obs)
    return path


def _traced(*args: str) -> subprocess.CompletedProcess:
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced.py"), *args],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)


@pytest.mark.parametrize("command", ["posterior", "predict"])
def test_traced_query_runs_with_every_hook_in_place(tmp_path, short_recording, command):
    spans = tmp_path / "spans.json"
    extra = ["--locations", SENSORS_WEST] if command == "predict" else []
    done = _traced("--spans", str(spans), command, *QUERY, "--obs", str(short_recording), *extra,
                   "--out", str(tmp_path / "bands.csv"))
    assert done.returncode == 0, done.stderr
    assert json.loads(spans.read_text())["unhooked"] == []
    assert (tmp_path / "bands.csv").exists()


def test_setup_probe_runs(tmp_path, short_recording):
    done = _traced("--setup", "posterior", *QUERY, "--obs", str(short_recording), "--out", str(tmp_path / "x.csv"))
    assert done.returncode == 0, done.stderr
