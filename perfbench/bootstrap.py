"""Process set-up shared by the benchmark's entry scripts.

Must run before numpy is imported: BLAS reads its thread count once, when it
loads. One BLAS thread keeps runs steady on a small shared machine and keeps
floating-point results identical between the traced and untraced passes.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def prepare() -> Path:
    """Pin BLAS threads and put the checkout's ``src`` first on sys.path.

    Exits with code 2 when the checkout holds no ljlab sources.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap.prepare() must run before numpy is imported")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "ljlab" / "__init__.py").is_file():
        print(f"error: no ljlab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    return ROOT
