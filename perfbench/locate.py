"""Checkout layout and the process settings every perfbench process shares."""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    """Cap BLAS threads at nproc and put this checkout's ``src/`` first on the path.

    Must run before numpy is imported. Exits with a message when the
    checkout holds no swarmherd sources, so a stray installed copy is never
    measured instead.
    """
    cap = nproc()
    for var in THREAD_VARS:
        try:
            requested = int(os.environ.get(var, cap))
        except ValueError:
            requested = cap
        os.environ[var] = str(max(1, min(requested, cap)))
    if not (SRC / "swarmherd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no swarmherd sources under {SRC}")
    sys.path.insert(0, str(SRC))
