"""A wall-clock limit for one block, so an unbounded loop fails a test instead of hanging it.

``pytest-timeout`` is not a dependency; this uses ``signal.setitimer``, so it
works in the main thread on POSIX only, which is where the suite runs.
"""

import contextlib
import signal


@contextlib.contextmanager
def time_limit(seconds: float, what: str):
    """Raise AssertionError naming ``what`` if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise AssertionError(f"{what} did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
