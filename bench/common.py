"""Paths, environment pinning and the rieszlab import shared by the benchmark scripts."""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"

#: Thread variables pinned before numpy loads.  Unpinned, OpenBLAS threads
#: compete with run_family's pool on a 2-core machine and wall time turns
#: bimodal.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
#: Left unset so run_family uses its default pool size.
UNSET_ENV = ("RIESZLAB_THREADS",)


class CheckoutError(RuntimeError):
    """The benchmark is not running from a checkout that holds the package sources."""


def pin_environment() -> None:
    """Pin BLAS threads and clear RIESZLAB_THREADS; call before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_environment must run before numpy is imported")
    os.environ.update(PINNED_ENV)
    for name in UNSET_ENV:
        os.environ.pop(name, None)


def import_rieszlab():
    """Import rieszlab from this checkout's src/, never from an installed copy."""
    if not (SRC_DIR / "rieszlab" / "__init__.py").is_file():
        raise CheckoutError(f"no rieszlab sources under {SRC_DIR}; run from a full checkout")
    sys.path.insert(0, str(SRC_DIR))
    import rieszlab

    if Path(rieszlab.__file__).resolve().parent != SRC_DIR / "rieszlab":
        raise CheckoutError(f"rieszlab was imported from {rieszlab.__file__}, not {SRC_DIR}")
    return rieszlab
