"""Test-session set-up: BLAS threads pinned before numpy is first imported,
and failure reports kept free of one third-party deprecation warning.

OpenBLAS reads its thread count once, when numpy loads it.  At its default,
one thread per core, the small factorizations the suite runs spend most of
their time waking and parking threads: beside a busy process on a 2-vCPU
machine `test_memory_budget.py` took 28-35 s instead of 3 s.  A value already
set in the environment is kept.

Every warning is an error, by `pyproject.toml` and by CI's `-W error`.
hypothesis's report hook for a failing `@given` test touches
`mypy_extensions.TypedDict`, whose DeprecationWarning would then be raised
inside the hook and end the whole session with INTERNALERROR, so that no later
test runs or reports.  `pytest_runtest_makereport` below wraps every report
hook and ignores that one warning there, and nowhere else.
"""

import os
import sys
import warnings

import pytest

assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py could set its threads"

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
        )
        yield
