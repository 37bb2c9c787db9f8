"""Test-session set-up that has to run before numpy is first imported.

OpenBLAS reads its thread count once, when numpy loads it.  At its default,
one thread per core, the small factorizations the suite runs spend most of
their time waking and parking threads: beside a busy process on a 2-vCPU
machine `test_memory_budget.py` took 28-35 s instead of 3 s.  A value already
set in the environment is kept.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py could set its threads"

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
