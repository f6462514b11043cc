"""The error of every settings check: all failed checks of an object at once,
so config.parse_config can list the problems of every component it builds."""

from __future__ import annotations


class CheckError(ValueError):
    """Every failed check of one object, one message a line."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


def check(*checks) -> None:
    """Raise CheckError with the message of every (failed, message) pair that failed."""
    problems = [message for failed, message in checks if failed]
    if problems:
        raise CheckError(problems)
