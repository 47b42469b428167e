"""Process set-up shared by the benchmark's entry scripts.

``prepare()`` must run before numpy is imported anywhere in the process:
BLAS and OpenMP read their thread counts once, when the library loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: Repository root: the directory that holds ``perfbench/``, ``src/`` and ``configs/``.
ROOT = Path(__file__).resolve().parent.parent

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare() -> str | None:
    """Pin every BLAS/OpenMP pool to one thread and put ``src/`` on the path.

    The package is imported from the source tree, not from an install.
    Returns an error message when the tree lacks the library or its
    configs, else None.
    """
    if "numpy" in sys.modules:
        return "numpy was imported before the thread pins were set"
    for var in THREAD_VARS:
        os.environ[var] = "1"
    missing = [
        str(p.relative_to(ROOT))
        for p in (ROOT / "src" / "dfrcwave" / "__init__.py", ROOT / "configs" / "desk.cfg",
                  ROOT / "configs" / "convergence_compare.cfg")
        if not p.is_file()
    ]
    if missing:
        return f"source tree incomplete under {ROOT}: missing {', '.join(missing)}"
    # keep the checkout free of bytecode caches written by the benchmark
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    return None
