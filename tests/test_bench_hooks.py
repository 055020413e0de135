"""Every function or method the benchmark's traced runs hook still exists.

``perfbench/traced.py`` wraps the targets named in its HOOKS table to time
each layer; a target that a refactor deletes or renames would silently
drop that layer's metric as ``unhooked``. This test resolves every target
the way the tracer does, without installing any wrapper.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from traced import HOOKS  # noqa: E402


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
