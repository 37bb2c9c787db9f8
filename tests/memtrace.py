"""Traced peak memory of one call, for the tests that bound allocations.

tracemalloc sees every array numpy allocates through its data allocator, but
not the work buffers numpy.linalg allocates inside a LAPACK call, so a traced
peak is a lower bound on the process's resident growth.
"""

import tracemalloc


def traced_peak(call):
    """(peak, result): the traced peak in bytes of one call of `call`, and its
    result.  An untraced warm-up call first fills lazily built tables and
    caches, so the peak is that of a repeated call."""
    call()
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
