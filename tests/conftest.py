"""Fixtures shared by the test modules."""

import signal

import pytest

from padic_sos import ratpoly


# Seconds one test may run before it fails; the slowest test takes a few.
TEST_TIME_BOUND = 60


class TimeBoundExceeded(BaseException):
    """A test ran past ``TEST_TIME_BOUND`` seconds.  Not an Exception,
    so hypothesis passes it on at once instead of shrinking, which
    would rerun a hanging example without a bound."""


@pytest.fixture(autouse=True)
def time_bound():
    """Fail a test that runs past ``TEST_TIME_BOUND`` seconds, with the
    traceback of where it was, instead of letting tier-1 hang.

    SIGALRM is raised as an exception in the main thread between
    bytecodes, so it cannot interrupt one long C call, such as a huge
    ``math.gcd``, until that call returns.  The alarm shares its timer
    with ``signal.setitimer(signal.ITIMER_REAL)``, so a test that sets
    that timer (perfbench's ``Meter``) clears the bound for the rest of
    that test.  Where ``signal.SIGALRM`` is missing the fixture does
    nothing."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeBoundExceeded(f"test ran past {TEST_TIME_BOUND} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_BOUND)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def remainder_pairs(monkeypatch):
    """Every (a, b) pair ``ratpoly._remainder_sequence`` runs on, in
    order, as tuples."""
    calls = []
    original = ratpoly._remainder_sequence

    def recording(a, b):
        calls.append((tuple(a), tuple(b)))
        return original(a, b)

    monkeypatch.setattr(ratpoly, "_remainder_sequence", recording)
    return calls
