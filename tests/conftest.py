import numpy as np
import pytest


@pytest.fixture
def decompositions(monkeypatch):
    """The names of numpy's Hermitian eigensolvers, one entry per call made
    while the test runs."""
    calls = []

    def counted(solver):
        def call(*args, **kwargs):
            calls.append(solver.__name__)
            return solver(*args, **kwargs)
        return call

    for solver in (np.linalg.eigh, np.linalg.eigvalsh):
        monkeypatch.setattr(np.linalg, solver.__name__, counted(solver))
    return calls


@pytest.fixture
def qr_calls(monkeypatch):
    """The shapes of the arrays passed to numpy's QR decomposition, one entry
    per call made while the test runs."""
    calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls
