"""One hypothesis profile for the whole suite: examples are drawn from a seed
derived from each test, with no deadline and no example database, so the
property tests check the same cases on every run and machine."""

from hypothesis import settings

settings.register_profile(
    "qident", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("qident")
