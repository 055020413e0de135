import ast
import dataclasses
import importlib
import types
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

from bridgetwin.dataio import read_recording, write_observations
from bridgetwin.inference import McmcConfig, chain_diagnostics, run_random_walk
from bridgetwin.model import load_model_config
from bridgetwin.pipeline import TwinContext
from bridgetwin.statfem import EvidenceBasis, ObservationSet

from conftest import BRIDGE_YAML, SENSORS_EAST, TRAIN_YAML

_SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bridgetwin").glob("*.py"))


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_package_parses_as_python_3_10(path):
    """pyproject.toml and the README promise Python 3.10, so every module
    must parse with the 3.10 grammar. This catches newer syntax only, such
    as ``except*`` or PEP 695 type parameters. It does not catch a newer
    library feature used from 3.10 syntax: a regular expression with the
    possessive quantifier ``*+`` parses here and fails only when ``re``
    compiles it on Python 3.10."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_every_module_is_checked():
    assert {p.name for p in _SOURCES} >= {"__init__.py", "cli.py", "dataio.py", "model.py"}


def test_package_root_binds_only_its_version():
    """Every name is imported from the module that defines it: besides
    ``__version__`` the package root holds only its submodules."""
    import bridgetwin
    import bridgetwin.cli  # noqa: F401  (loads every module the commands use)

    assert isinstance(bridgetwin.__version__, str)
    assert [name for name, value in vars(bridgetwin).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)] == []


def _package_dataclasses():
    for path in _SOURCES:
        module = importlib.import_module(f"bridgetwin.{path.stem}".removesuffix(".__init__"))
        for cls in vars(module).values():
            if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                yield cls


def test_dataclasses_hold_no_derived_state_that_replace_would_copy():
    """A dataclass init field is an input: ``dataclasses.replace`` copies it
    into the new object, and only ``init=False`` fields are built afresh. A
    field named like a private cache would carry what was derived from the
    old inputs past a change of input, so it must be a ``cached_property``
    instead."""
    classes = list(_package_dataclasses())
    assert {cls.__name__ for cls in classes} >= {"TwinContext", "SensorLayout", "PriorEnsemble"}
    offenders = [f"{cls.__name__}.{f.name} is a field"
                 for cls in classes for f in dataclasses.fields(cls) if f.name.startswith("_")]
    assert offenders == []


def test_every_package_dataclass_is_frozen():
    """Package values are values: no field can be assigned after
    construction, so nothing a ``cached_property`` or a holder derived from
    one can go stale. ``dataclasses.replace`` makes a changed value."""
    classes = list(_package_dataclasses())
    assert {cls.__name__ for cls in classes} >= {"GrillageModel", "ObservationSet", "GaussianBelief", "Chain",
                                                 "LoadSeries", "StrainOperator", "EvidenceBasis"}
    assert [cls.__name__ for cls in classes if not cls.__dataclass_params__.frozen] == []


def _reachable(value, path: str, seen: set):
    """(path, object) of ``value`` and of every object reachable from it
    through the attributes of dataclass instances, which include their
    cached values, and through tuples, lists and mappings; each object is
    visited once."""
    if id(value) in seen:
        return
    seen.add(id(value))
    yield path, value
    if dataclasses.is_dataclass(value):
        items = ((f".{name}", item) for name, item in vars(value).items())
    elif isinstance(value, (tuple, list)):
        items = ((f"[{k}]", item) for k, item in enumerate(value))
    elif isinstance(value, Mapping):
        items = ((f"[{key!r}]", item) for key, item in value.items())
    else:
        return
    for step, item in items:
        yield from _reachable(item, path + step, seen)


def _arrays(value, path: str, seen: set):
    """(path, array) of every ndarray :func:`_reachable` from ``value``."""
    return ((p, item) for p, item in _reachable(value, path, seen) if isinstance(item, np.ndarray))


def _bases(array):
    """The arrays ``array`` views, nearest first."""
    while isinstance(array.base, np.ndarray):
        array = array.base
        yield array


def test_no_array_a_context_holds_is_writeable(bundled_ctx):
    """Every array a context holds, cached results included, is read-only,
    and so is every array it views, so none can be edited underneath what
    was derived from it, through its own handle or its base's."""
    bundled_ctx.prior_series()
    bundled_ctx.force_cov
    bundled_ctx.layout.squared_distances
    arrays = dict(_arrays(bundled_ctx, "ctx", set()))
    assert arrays.keys() >= {"ctx.model.nodes", "ctx.model.assembled[0]", "ctx.model.assembled[1].index",
                             "ctx.layout.squared_distances", "ctx.strain_op.matrix", "ctx.series.norms",
                             "ctx.force_cov", "ctx.model.ends",
                             "ctx.model.vectors", "ctx.model.lengths", "ctx.model.line_tables['east'].starts"}
    assert [path for path, array in arrays.items() if array.flags.writeable] == []
    assert [path for path, array in arrays.items() if any(base.flags.writeable for base in _bases(array))] == []


def _package_values(tmp_path):
    """(path, instance) of every package dataclass instance reachable from a
    context with its force covariance and distances built, its dof priors
    and one instant of them, a recording read and an observation set
    ingested through it with its evidence basis, and a short chain with its
    estimate."""
    ctx = TwinContext.from_files(BRIDGE_YAML, TRAIN_YAML, SENSORS_EAST)
    ctx.force_cov, ctx.layout.squared_distances  # cached on first use
    priors = ctx.prior_series()
    path = tmp_path / "obs.csv"
    write_observations(path, ObservationSet(ctx.strain_means(), ctx.series.timestamps, 1e-6, ctx.series.gamma,
                                            ctx.layout))
    chain = run_random_walk(lambda w: -0.5 * float(w @ w), McmcConfig(iterations=20, seed=1))
    obs = ctx.observations_from_csv(path, sigma_e=1e-6)
    strain_prior = ctx.strain_prior()
    values = (ctx, priors, priors.instant(0), read_recording(path), obs, chain, chain_diagnostics(chain),
              EvidenceBasis(obs, strain_prior.means, strain_prior.cov))
    return {p: v for p, v in _reachable(values, "values", set())
            if dataclasses.is_dataclass(v) and type(v).__module__.startswith("bridgetwin.")}


def test_package_values_hash_and_compare_without_raising(tmp_path):
    """A value that holds an array, in a field or through another such
    value, compares and hashes by identity, since the generated ``==``
    cannot compare arrays; every other value compares by its fields. So
    ``hash``, ``==`` and ``in`` work on every value, and two values built
    alike are equal exactly when they hold no array."""
    first, second = _package_values(tmp_path), _package_values(tmp_path)
    assert first.keys() == second.keys()
    assert {type(v).__name__ for v in first.values()} >= {
        "GrillageModel", "LineTable", "DofMap", "StrainOperator", "GaussianBelief", "PriorEnsemble", "LoadSeries",
        "ObservationSet", "Chain", "Recording", "TwinContext", "Hyperparameters", "McmcConfig", "Sensor",
        "SensorLayout", "Estimate", "TrainScenario", "RandomLoadSpec", "Element", "SectionSpec", "Support",
        "EvidenceBasis"}
    for path, v in first.items():
        w = second[path]
        hash(v)
        holds_array = any(isinstance(item, np.ndarray) for f in dataclasses.fields(v)
                          for _, item in _reachable(getattr(v, f.name), "", set()))
        assert (v == w) is not holds_array, path
        assert (v in [w]) is not holds_array, path
    assert load_model_config(BRIDGE_YAML) != load_model_config(BRIDGE_YAML)


_ROOT = Path(__file__).resolve().parent.parent
# the public names of the package with no reader below, each with why it stays
_KEPT_UNREAD = {
    "format_microstrain": "the codec's one-cell contract, the inverse of parse_microstrain",
    "build_model": "the in-memory entry to the model document reader",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_names(tree: ast.Module):
    """The public functions, classes and constants a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _references(tree: ast.Module):
    """Every name a module reads, imports or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_public_name_has_a_reader():
    """A public name of the package is read by the package itself, by the
    acceptance gate and its oracles, or by the benchmark. A name that only
    the unit tests call is a second implementation kept for them; its
    tests belong on the function the package runs. The names kept without
    a reader say why."""
    readers = [*_SOURCES, _ROOT / "tests" / "test_acceptance.py", _ROOT / "tests" / "oracles.py",
               *sorted((_ROOT / "perfbench").glob("*.py"))]
    read = {name for path in readers for name in _references(_tree(path))}
    defined = {name: path.stem for path in _SOURCES for name in _public_names(_tree(path))}
    assert _KEPT_UNREAD.keys() <= defined.keys() - read
    assert sorted(f"{module}.{name}" for name, module in defined.items()
                  if name not in read and name not in _KEPT_UNREAD) == []
