"""Peak Python allocations of a block of test code, from tracemalloc."""

import tracemalloc
from contextlib import contextmanager


class Peak:
    """The traced peak in bytes, set in `bytes` when the block exits."""

    bytes = None

    @staticmethod
    def reset():
        """(current, peak) traced bytes so far; the peak restarts from current."""
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        return current, peak


@contextmanager
def traced_peak():
    """Trace allocations inside the block, which gets a Peak; tracing always stops."""
    peak = Peak()
    tracemalloc.start()
    try:
        yield peak
        peak.bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
