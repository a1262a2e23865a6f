"""Fixtures shared by the test modules."""

import pytest

from padic_sos import ratpoly


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
