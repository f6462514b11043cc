"""Hypothesis runs the same examples on every run and keeps no example
database, so the suite is reproducible and leaves no .hypothesis/ state."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
