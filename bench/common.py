"""Process set-up shared by the benchmark entry points.

Nothing here imports numpy: the BLAS thread count has to be fixed in the
environment before the first numpy import of the process.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / ".bench_out"

# One BLAS thread: on a 2-core machine two threads made the many small
# Gauss-Newton factorizations slower and every timing noisier.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Fix the BLAS thread count for this process and its children."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    threads = min(BLAS_THREADS, nproc())
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_hybvp():
    """Import hybvp from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hybvp
        import hybvp.cli
        import hybvp.solver
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import hybvp from {src}: {exc}") from exc
    if not Path(hybvp.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: hybvp was imported from {hybvp.__file__}, not from {src}")
    return hybvp
