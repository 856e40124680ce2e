import numpy as np
import pytest

from entlab import harmonic_chain


def _bad_potentials():
    asymmetric = harmonic_chain.build_potential(2, 1.0)
    asymmetric[1, 0] = 0.0
    nan_off_diagonal = harmonic_chain.build_potential(2, 1.0)
    nan_off_diagonal[0, 1] = nan_off_diagonal[1, 0] = np.nan
    return {"asymmetric": (asymmetric, "not symmetric"),
            "not-square": (harmonic_chain.build_potential(3, 1.0)[:2], "square"),
            "nan-off-diagonal": (nan_off_diagonal, "non-finite")}


@pytest.fixture(params=list(_bad_potentials()))
def bad_potential(request):
    """(potential, words of the ValueError it raises) for a potential that
    is not a finite, square, symmetric matrix."""
    return _bad_potentials()[request.param]


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
