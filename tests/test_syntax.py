import ast
import dataclasses
import importlib
import types
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

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
                                                 "LoadSeries", "StiffnessMatrix", "StrainOperator"}
    assert [cls.__name__ for cls in classes if not cls.__dataclass_params__.frozen] == []


def _arrays(value, path: str, seen: set):
    """(path, array) of every ndarray reachable from ``value`` through the
    attributes of dataclass instances, which include their cached values,
    and through tuples and mappings; each object is visited once."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield path, value
    elif dataclasses.is_dataclass(value):
        for name, item in vars(value).items():
            yield from _arrays(item, f"{path}.{name}", seen)
    elif isinstance(value, (tuple, list)):
        for k, item in enumerate(value):
            yield from _arrays(item, f"{path}[{k}]", seen)
    elif isinstance(value, Mapping):
        for key, item in value.items():
            yield from _arrays(item, f"{path}[{key!r}]", seen)


def test_no_array_a_context_holds_is_writeable(bundled_ctx):
    """Every array a context holds, cached results included, is read-only,
    so none can be edited underneath what was derived from it."""
    bundled_ctx.prior_series()
    bundled_ctx.force_cov
    bundled_ctx.layout.squared_distances
    arrays = dict(_arrays(bundled_ctx, "ctx", set()))
    assert arrays.keys() >= {"ctx.model.nodes", "ctx.model.assembled[0].matrix", "ctx.model.assembled[1].index",
                             "ctx.layout.squared_distances", "ctx.strain_op.matrix", "ctx.series.forces",
                             "ctx.force_cov", "ctx._prior.means", "ctx._prior.cov"}
    assert [path for path, array in arrays.items() if array.flags.writeable] == []
