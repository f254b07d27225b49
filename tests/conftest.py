"""Test-suite settings and the one traced-memory helper.

Property tests draw their examples from a fixed derandomized sequence with
no example database and no per-example deadline, so the suite checks the
same examples on every machine and in every run.
"""

import tracemalloc

from hypothesis import settings

settings.register_profile("hgs", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("hgs")


def traced_peak(fn):
    """(fn(), peak): fn's return value and the peak of the memory it
    allocated, in bytes, as tracemalloc traces it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak
