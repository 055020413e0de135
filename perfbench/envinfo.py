"""Machine and library record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import re
import subprocess
from pathlib import Path

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _symbol(lib, names, restype):
    for name in names:
        try:
            fn = getattr(lib, name)
        except AttributeError:
            continue
        fn.restype = restype
        fn.argtypes = []
        return fn
    return None


def openblas_libraries() -> list[dict]:
    """Every OpenBLAS loaded in this process, with its live thread count.

    numpy and scipy each bundle their own copy; both are asked, since the
    evidence runs through numpy and conditioning through scipy.
    """
    import numpy  # noqa: F401  (loads numpy's OpenBLAS)
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = _symbol(lib, _THREAD_SYMBOLS, ctypes.c_int)
        config = _symbol(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        found.append({
            "library": Path(path).name,
            "threads": None if threads is None else int(threads()),
            "config": None if config is None else config().decode().strip(),
        })
    return found


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def record(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_libraries(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(root),
    }
