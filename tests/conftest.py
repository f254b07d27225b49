"""Test-suite settings.

Property tests draw their examples from a fixed derandomized sequence with
no example database and no per-example deadline, so the suite checks the
same examples on every machine and in every run.
"""

from hypothesis import settings

settings.register_profile("hgs", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("hgs")
