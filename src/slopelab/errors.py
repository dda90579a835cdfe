"""Shared exception types.

PreconditionError covers every "the inputs do not satisfy the contract"
rejection, including guard-budget overruns; the CLI maps it to exit code 2.
Refusals differ only in their messages.  The one subclass, GuardExceeded,
exists because a caller tells it apart: the graded legs of `certify` record
a guard overrun as a failed leg.
CliParseError covers malformed command-line input (exit code 4).
InternalCheckFailed is raised when a check that carries a proof fails
(exit code 3); it is an explicit raise, so `python -O` cannot remove it.
SolutionFound is raised when a no-solution search meets a genuine
solution, so no certificate exists (exit code 3).
Failed verifications are not exceptions: they come back as structured
reports.
"""


class SlopelabError(Exception):
    pass


class PreconditionError(SlopelabError):
    pass


class GuardExceeded(PreconditionError):
    pass


class CliParseError(SlopelabError):
    pass


class InternalCheckFailed(SlopelabError):
    pass


class SolutionFound(SlopelabError):
    pass
