import ast
import dataclasses
import functools
import importlib
from pathlib import Path

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
    instead. A ``cached_property`` is safe only on a
    frozen dataclass, where no input can change underneath the value it
    holds."""
    classes = list(_package_dataclasses())
    assert {cls.__name__ for cls in classes} >= {"TwinContext", "SensorLayout", "PriorEnsemble"}
    offenders = []
    for cls in classes:
        offenders += [f"{cls.__name__}.{f.name} is a field" for f in dataclasses.fields(cls)
                      if f.name.startswith("_")]
        if not cls.__dataclass_params__.frozen:
            offenders += [f"{cls.__name__}.{name} caches on a mutable dataclass"
                          for klass in cls.__mro__ for name, value in vars(klass).items()
                          if isinstance(value, functools.cached_property)]
    assert offenders == []
