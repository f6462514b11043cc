"""Hypothesis runs the same examples on every run and keeps no example
database, so the suite is reproducible and leaves no .hypothesis/ state.
A RuntimeWarning (an overflow or invalid value in numpy) fails the test
that raised it."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
