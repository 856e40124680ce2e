import numpy as np
import pytest


@pytest.fixture
def decompositions(monkeypatch):
    """The names of numpy's Hermitian eigensolvers, one entry per matrix
    decomposed while the test runs: a call on a stack adds one entry per
    matrix in it."""
    calls = []

    def counted(solver):
        def call(a, *args, **kwargs):
            calls.extend([solver.__name__] * int(np.prod(np.shape(a)[:-2])))
            return solver(a, *args, **kwargs)
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
