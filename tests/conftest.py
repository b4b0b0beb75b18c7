"""Test settings: a deterministic hypothesis profile, so tier-1 runs the same examples every time."""

from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, deadline=None, database=None, max_examples=30)
settings.load_profile("tier1")
