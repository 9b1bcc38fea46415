"""Shared test settings.

Every Hypothesis test draws the same examples on every run: the loaded
profile derandomises the draws and drops the per-example deadline, so a
slow host cannot fail a test on timing.  A test's own ``@settings`` keeps
its ``max_examples`` and inherits the rest from this profile.
"""

from hypothesis import settings

settings.register_profile("ellid", derandomize=True, deadline=None)
settings.load_profile("ellid")
