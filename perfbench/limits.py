"""Per-operation time limit, enforced with SIGALRM in the one benchmark
process.

An inexact `exact_div` can spin for tens of seconds before it fails, so no
operation may run unbounded.  When the alarm fires, `OpTimeout` is raised
inside the running operation.  It derives from BaseException so that a
handler in the package that turns `Exception` into a failed result (as
`reproduce.run_check` does) cannot swallow it and let the operation run on.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager

# The slowest timed operation takes about 3.5 s untraced and about twice
# that traced; 20 s leaves room for a slow host and stops a spinning
# operation well inside the benchmark's 180 s budget.
OP_LIMIT_S = 20


class OpTimeout(BaseException):
    """An operation ran past the per-operation time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextmanager
def op_limit(seconds: int = OP_LIMIT_S):
    """Raise OpTimeout inside the block once it has run `seconds` seconds."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def rearm(seconds: int = OP_LIMIT_S) -> None:
    """Restart the pending limit, for a call that runs several operations
    in a row.  Does nothing outside `op_limit`."""
    if signal.getitimer(signal.ITIMER_REAL)[0] > 0:
        signal.alarm(seconds)
