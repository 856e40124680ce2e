import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from entlab import numerics

SRC = Path(__file__).resolve().parents[1] / "src"


def rand_symmetric(n, rng):
    a = rng.standard_normal((n, n))
    return a + a.T


# --- sym_eig -----------------------------------------------------------------

def test_sym_eig_identity():
    values, _ = numerics.sym_eig(np.eye(3))
    assert np.allclose(values, [1.0, 1.0, 1.0])


def test_sym_eig_diagonal_orders_ascending():
    values, vectors = numerics.sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(values, [1.0, 2.0, 3.0])
    # eigenvectors permute the basis
    assert np.allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]])


def test_sym_eig_reconstruction():
    m = rand_symmetric(8, np.random.default_rng(0))
    values, vectors = numerics.sym_eig(m)
    rebuilt = (vectors * values) @ vectors.T
    assert np.abs(rebuilt - m).max() <= 1e-10 * max(1.0, np.abs(m).max())
    gram = vectors.T @ vectors
    assert np.abs(gram - np.eye(8)).max() <= 1e-10


def test_sym_eig_residual_contract():
    m = rand_symmetric(12, np.random.default_rng(5))
    values, vectors = numerics.sym_eig(m)
    norm = np.linalg.norm(m, 2)
    for k in range(12):
        residual = np.linalg.norm(m @ vectors[:, k] - values[k] * vectors[:, k])
        assert residual <= 1e-10 * max(1.0, norm)


@given(st.integers(2, 12), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_sym_eig_trace_is_eigenvalue_sum(n, seed):
    m = rand_symmetric(n, np.random.default_rng(seed))
    values, _ = numerics.sym_eig(m)
    assert abs(np.trace(m) - values.sum()) <= 1e-10 * n * max(1.0, np.abs(m).max())


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        numerics.sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        numerics.sym_eig(np.array([[0.0, 1.0], [2.0, 0.0]]))


# --- svd ---------------------------------------------------------------------

def test_svd_zero_matrix():
    _, s, _ = numerics.svd(np.zeros((3, 2)))
    assert np.allclose(s, 0.0)


def test_svd_diagonal_descending():
    _, s, _ = numerics.svd(np.diag([2.0, 5.0]))
    assert np.allclose(s, [5.0, 2.0])


def test_svd_matches_sym_eig_of_gram_matrix():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    u, s, v = numerics.svd(a)
    gram_eigs = numerics.sym_eig(a.conj().T @ a)[0][::-1]  # descending
    assert np.abs(s ** 2 - gram_eigs[: s.size]).max() <= 1e-10
    rebuilt = u @ np.diag(s) @ v.conj().T
    assert np.abs(rebuilt - a).max() <= 1e-10


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_svd_frobenius_identity(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    _, s, _ = numerics.svd(a)
    assert abs(np.linalg.norm(a) ** 2 - (s ** 2).sum()) <= 1e-10 * max(
        1.0, np.linalg.norm(a) ** 2)


# --- smallest_eigenpair --------------------------------------------------------

def test_smallest_eigenpair_diagonal():
    m = np.diag([5.0, 1.0, 3.0])
    value, vector = numerics.smallest_eigenpair(lambda v: m @ v, np.diag(m))
    assert abs(value - 1.0) <= 1e-12
    assert np.allclose(np.abs(vector), [0.0, 1.0, 0.0], atol=1e-10)


def test_smallest_eigenpair_two_level():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    value, vector = numerics.smallest_eigenpair(lambda v: m @ v, np.diag(m))
    assert abs(value + 1.0) <= 1e-12
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(vector - expected), np.linalg.norm(vector + expected)) <= 1e-10


@pytest.mark.parametrize("dim", [17, 64, 128, 512])
def test_smallest_eigenpair_matches_dense(dim):
    m = rand_symmetric(dim, np.random.default_rng(dim))
    value, vector = numerics.smallest_eigenpair(lambda v: m @ v, np.diag(m), tol=1e-9)
    dense = numerics.sym_eig(m)[0][0]
    assert abs(value - dense) <= 1e-8
    assert np.linalg.norm(m @ vector - value * vector) <= 1e-9


@pytest.mark.parametrize("dim", range(1, 17))
def test_davidson_meets_the_residual_contract_at_small_dimensions(dim):
    m = rand_symmetric(dim, np.random.default_rng(dim))
    value, vector = numerics.smallest_eigenpair(lambda v: m @ v, np.diag(m), tol=1e-10)
    assert abs(value - np.linalg.eigvalsh(m)[0]) <= 1e-12
    assert np.linalg.norm(m @ vector - value * vector) <= 1e-10
    # a residual of 1e-18 lies below the rounding of H v, unless H v - E v
    # rounds to exactly 0 (here at dimensions 1 and 5): the solve must fail
    # with EigensolverError or return a pair that meets the contract
    try:
        value, vector = numerics.smallest_eigenpair(lambda v: m @ v, np.diag(m), tol=1e-18)
    except numerics.EigensolverError:
        return
    assert np.linalg.norm(m @ vector - value * vector) <= 1e-18


@pytest.mark.parametrize("dim", range(2, 9))
def test_davidson_near_rounding_returns_a_unit_eigenvector_or_fails(dim):
    # a basis that spans the space leaves a correction of rounding alone;
    # normalised into the basis, it makes the Rayleigh matrix singular, and
    # a Ritz pair such as E ~ 1e-16, |v| ~ 1e-14 then passes the contract
    for seed in range(20):
        m = rand_symmetric(dim, np.random.default_rng(1000 * dim + seed)) * 10.0 ** (seed % 4)
        exact = np.linalg.eigvalsh(m)[0]
        for tol in (1e-15, 1e-14):
            try:
                value, vector = numerics.smallest_eigenpair(lambda v: m @ v, np.diag(m), tol=tol)
            except numerics.EigensolverError:
                continue
            assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12
            assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact))
            assert np.linalg.norm(m @ vector - value * vector) <= tol


# the error comes before any arithmetic on H v, so numpy has nothing to warn of
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2, 12, 30])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_application_is_an_eigensolver_error(dim, bad):
    m = rand_symmetric(dim, np.random.default_rng(dim))

    def apply(v):
        image = m @ v
        image[-1] = bad
        return image

    with pytest.raises(numerics.EigensolverError, match="not finite"):
        numerics.smallest_eigenpair(apply, np.diag(m))


def clustered(seed):
    """A 60 x 60 matrix, eigenvalues 100 + 1e-3 k for k < 10 and then 101 to
    150, in a random eigenbasis: the diagonal is nearly constant, so
    Davidson's correction is nearly the residual, and its 8-vector basis
    cannot resolve the cluster; its residual stops halving after about 32
    applications."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    m = (q * (100.0 + np.concatenate([1e-3 * np.arange(10), np.linspace(1.0, 50.0, 50)]))) @ q.T
    return 0.5 * (m + m.T)


def test_smallest_eigenpair_nonconvergence_reports_iterations(monkeypatch):
    # Davidson stalls on the cluster and ARPACK, allowed one restart, gives up
    m = clustered(1)
    monkeypatch.setattr(numerics, "_MAX_RESTARTS", 1)
    with pytest.raises(numerics.EigensolverError, match="Lanczos failed") as err:
        numerics.smallest_eigenpair(lambda v: m @ v, np.diag(m), tol=1e-14)
    assert err.value.iterations > 2 * numerics._DAVIDSON_BASIS  # 64 measured


@pytest.fixture
def eigsh_calls(monkeypatch):
    """The tolerance of every ARPACK call made while the test runs."""
    calls = []
    eigsh = numerics.eigsh

    def counted_eigsh(*args, **kwargs):
        calls.append(kwargs["tol"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(numerics, "eigsh", counted_eigsh)
    return calls


def test_smallest_eigenpair_tolerance_is_absolute(eigsh_calls):
    # eigenvalues near +100: a stop relative to |E| would miss the absolute
    # residual contract here; Davidson stops on the contract itself
    m = rand_symmetric(60, np.random.default_rng(1)) + 100.0 * np.eye(60)
    value, vector = numerics.smallest_eigenpair(lambda v: m @ v, np.diag(m), tol=1e-10)
    assert len(eigsh_calls) == 0
    assert np.linalg.norm(m @ vector - value * vector) <= 1e-10
    assert abs(value - numerics.sym_eig(m)[0][0]) <= 1e-9


def test_arpack_finishes_what_a_stalled_davidson_leaves(eigsh_calls):
    m = clustered(1)
    value, vector = numerics.smallest_eigenpair(lambda v: m @ v, np.diag(m), tol=1e-10)
    # one call, its tolerance divided by |E| ~ 100
    assert len(eigsh_calls) == 1 and eigsh_calls[0] < 1e-11
    assert np.linalg.norm(m @ vector - value * vector) <= 1e-10
    assert abs(value - numerics.sym_eig(m)[0][0]) <= 1e-9


@pytest.fixture
def handed_over(monkeypatch):
    """The (applications so far, tolerance) of every ARPACK call made while
    the test runs, and the wrapper that counts an operator's applications."""
    calls = []
    applied = []
    eigsh = numerics.eigsh

    def recorded_eigsh(*args, **kwargs):
        calls.append((len(applied), kwargs["tol"]))
        return eigsh(*args, **kwargs)

    def counted(apply):
        def call(v):
            applied.append(1)
            return apply(v)
        return call

    monkeypatch.setattr(numerics, "eigsh", recorded_eigsh)
    return calls, counted


def test_stalled_davidson_hands_over_to_one_lanczos_attempt(handed_over):
    # entries of size ~1000 with E = 50: H v rounds at ~6e-12, above a
    # contract of 1e-12, which ARPACK is asked for once, at 1e-12 / |E|, and
    # misses; three attempts, 100x tighter each, took 173 applications here
    calls, counted = handed_over
    m = 1000.0 * rand_symmetric(60, np.random.default_rng(1))
    m -= (np.linalg.eigvalsh(m)[0] - 50.0) * np.eye(60)
    with pytest.raises(numerics.EigensolverError, match="1 Lanczos attempt ") as err:
        numerics.smallest_eigenpair(counted(lambda v: m @ v), np.diag(m), tol=1e-12)
    assert len(calls) == 1
    assert calls[0][0] <= 100  # 87 measured: the stall rule hands over
    assert calls[0][1] == pytest.approx(1e-12 / 50.0, rel=1e-9)
    assert err.value.iterations <= 130  # 109 measured


def test_lanczos_stops_once_its_tolerance_cannot_tighten(handed_over):
    # a residual of 1e-17 lies below the rounding of H v at E ~ 100, and its
    # ARPACK tolerance 1e-17 / |E| below 1e-18: the fallback is not retried at
    # a tighter tolerance, which would only redraw the rounding
    calls, counted = handed_over
    m = rand_symmetric(60, np.random.default_rng(1)) + 100.0 * np.eye(60)
    with pytest.raises(numerics.EigensolverError, match="1 Lanczos attempt "):
        numerics.smallest_eigenpair(counted(lambda v: m @ v), np.diag(m), tol=1e-17)
    assert len(calls) == 1
    assert calls[0][0] <= 100  # 83 measured: the stall rule hands over
    assert calls[0][1] < 1e-18


def test_smallest_eigenpair_rejects_a_bad_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        numerics.smallest_eigenpair(lambda v: v, np.ones((2, 2)))
    with pytest.raises(ValueError, match="diagonal"):
        numerics.smallest_eigenpair(lambda v: v, np.ones(0))
    with pytest.raises(ValueError, match="diagonal"):
        numerics.smallest_eigenpair(lambda v: v, np.array([1.0, np.nan, 2.0]))


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
def test_smallest_eigenpair_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        numerics.smallest_eigenpair(lambda v: v, np.ones(1), tol=tol)


def test_smallest_eigenpair_rejects_a_zero_start_vector():
    m = np.diag(np.arange(1.0, 31.0))
    with pytest.raises(ValueError, match="v0"):
        numerics.smallest_eigenpair(lambda v: m @ v, np.diag(m), v0=np.zeros(30))


# --- BLAS threads -----------------------------------------------------------------

def test_one_blas_thread_is_a_no_op_without_proc_maps(monkeypatch):
    def unreadable(*args, **kwargs):
        raise OSError("no /proc here")

    loaded = []
    monkeypatch.setattr(numerics, "open", unreadable, raising=False)
    monkeypatch.setattr(numerics.ctypes, "CDLL", lambda path: loaded.append(path))
    assert numerics.use_one_blas_thread() is None
    assert loaded == []


# --- bessel_K_imag -------------------------------------------------------------

def quad_K0(x):
    # independent oracle: adaptive Gauss-Kronrod on the same representation
    val, _ = quad(lambda t: np.exp(-x * np.cosh(t)), 0.0, 30.0, limit=200)
    return val


def ode_residual(ell, x, h=5e-4):
    """Central-difference residual of x^2 f'' + x f' + (ell^2 - x^2) f."""
    f = numerics.bessel_K_imag(ell, np.array([x - h, x, x + h]))
    d1 = (f[2] - f[0]) / (2 * h)
    d2 = (f[2] - 2 * f[1] + f[0]) / h ** 2
    return x * x * d2 + x * d1 + (ell * ell - x * x) * f[1]


def test_bessel_matches_quadrature_oracle_at_zero_order():
    assert abs(numerics.bessel_K_imag(0.0, 1.0) - quad_K0(1.0)) <= 1e-10


def test_bessel_cross_check_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for ell, x in [(1.0, 0.5), (4.0, 2.0), (8.0, 1.0), (8.0, 12.0), (0.7, 3.0)]:
        ref = float(complex(mpmath.besselk(1j * ell, x)).real)
        got = numerics.bessel_K_imag(ell, x)
        assert abs(got - ref) <= 1e-8 * max(abs(ref), 1e-12)


def test_bessel_sign_change_census_ell_8():
    xs = np.linspace(0.05, 8.0, 400)
    osc = numerics.bessel_K_imag(8.0, xs)
    assert np.sum(np.sign(osc[:-1]) * np.sign(osc[1:]) < 0) >= 1
    xs = np.linspace(8.0, 30.0, 400)
    tail = numerics.bessel_K_imag(8.0, xs)
    assert np.sum(np.sign(tail[:-1]) * np.sign(tail[1:]) < 0) == 0


@pytest.mark.parametrize("ell", [0.0, 1.0, 4.0, 8.0])
def test_bessel_ode_residual(ell):
    for x in np.linspace(0.5, 20.0, 14):
        assert abs(ode_residual(ell, float(x))) <= 1e-6


@pytest.mark.parametrize("ell", [0.0, 4.0])
def test_bessel_monotone_decay_beyond_turning_point(ell):
    xs = np.linspace(ell + 5.0, 30.0, 120)
    vals = numerics.bessel_K_imag(ell, xs)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_bessel_rejects_nonpositive_x_and_negative_ell():
    with pytest.raises(ValueError):
        numerics.bessel_K_imag(1.0, 0.0)
    with pytest.raises(ValueError):
        numerics.bessel_K_imag(1.0, -2.0)
    with pytest.raises(ValueError):
        numerics.bessel_K_imag(-0.5, 1.0)
    with pytest.raises(ValueError, match="both be arrays"):
        numerics.bessel_K_imag(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def amplitude_units(ell):
    # errors of K_{i ell} in units of its size A(ell); K_0 is compared absolutely
    return float(numerics.bessel_amplitude(ell)) if ell > 0 else 1.0


def test_bessel_series_matches_mpmath_in_amplitude_units():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for ell in (0.0, 1e-4, 0.3, 1.0, 8.0, 19.99, 40.0):
            for x in (1e-6, 1e-4, 0.0125, 0.1, 1.0, 2.0):
                ref = float(mpmath.besselk(1j * mpmath.mpf(ell), mpmath.mpf(x)).real)
                got = numerics.bessel_K_imag(ell, x)
                assert abs(got - ref) <= 1e-12 * amplitude_units(ell), (ell, x)


def series_seam(ell):
    # the last x that the ascending series serves
    return max(numerics._SERIES_X_MAX, numerics._SERIES_PER_ELL * ell)


@pytest.mark.parametrize("ell", [0.5, 8.0, 20.0, 40.0])
def test_bessel_series_meets_quadrature_at_seam(ell):
    seam = series_seam(ell)
    at_seam = numerics.bessel_K_imag(ell, seam)
    above = numerics.bessel_K_imag(ell, float(np.nextafter(seam, np.inf)))
    assert abs(at_seam - above) <= 1e-12 * amplitude_units(ell)


def mpmath_errors_above_2(ell):
    """|K - K_mpmath| / A(ell) on x in (2, 60], both sides of the seam."""
    mpmath = pytest.importorskip("mpmath")
    seam = series_seam(ell)
    xs = {float(np.nextafter(2.0, 3.0)), 2.5, 4.0, 8.0, 15.0, 30.0, 60.0,
          seam, float(np.nextafter(seam, np.inf))}
    xs = np.array(sorted(x for x in xs if x > 2.0))
    got = numerics.bessel_K_imag(ell, xs)
    with mpmath.workdps(40):
        ref = [float(mpmath.besselk(1j * mpmath.mpf(ell), mpmath.mpf(x)).real)
               for x in xs]
    return np.abs(got - ref) / amplitude_units(ell)


@pytest.mark.parametrize("ell", [0.5, 4.0, 8.0, 12.0, 16.0, 20.0, 25.0, 30.0, 35.0])
def test_bessel_above_2_matches_mpmath_in_amplitude_units(ell):
    assert mpmath_errors_above_2(ell).max() <= 1e-12


@pytest.mark.parametrize("ell", [40.0, 50.0])
def test_bessel_above_2_at_high_order_meets_root_residual(ell):
    # the series loses digits below the x = 1.05 ell seam as ell grows; the
    # root search needs 1e-8 A(ell), and this keeps a margin of 100
    assert mpmath_errors_above_2(ell).max() <= 1e-10


def test_bessel_amplitude_is_finite_at_high_order():
    with np.errstate(all="raise"):
        amp = numerics.bessel_amplitude(np.array([1e-3, 1.0, 200.0]))
    expected = [np.sqrt(np.pi / (ell * np.sinh(np.pi * ell))) for ell in (1e-3, 1.0)]
    assert np.abs(amp[:2] / expected - 1.0).max() <= 1e-14
    assert 0.0 < amp[2] < 1e-130
    assert numerics.bessel_amplitude(0.0) == np.inf


@pytest.mark.parametrize("x", [20.0, 40.0, 50.0])
def test_bessel_quadrature_failure_is_numerical_error(monkeypatch, x):
    # no estimate meets a negative tolerance, so every x must fail, however
    # small K is there; an absolute floor in the test would let large x pass
    monkeypatch.setattr(numerics, "_QUAD_REL_TOL", -1.0)
    monkeypatch.setattr(numerics, "_MAX_DOUBLINGS", 3)
    with pytest.raises(numerics.NumericalError, match="quadrature"):
        numerics.bessel_K_imag(8.0, x)


# a full batch whose quadrature never converges, in a process whose address
# space is capped at 2 GiB: the halving must give up before its grid does
_UNCONVERGED_BATCH = """
import resource
import numpy as np
from entlab import numerics
resource.setrlimit(resource.RLIMIT_AS,
                   (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
numerics._QUAD_REL_TOL = -1.0
try:
    numerics.bessel_K_imag(8.0, np.linspace(8.5, 30.0, 2048))
except numerics.NumericalError as exc:
    print(type(exc).__name__, exc)
"""


def test_unconverged_quadrature_batch_fails_in_bounded_memory():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _UNCONVERGED_BATCH], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "NumericalError Bessel quadrature did not converge\n"


# dmrg at mass 1000, local_dim 4, gs_tolerance 1e-13 hands its solves over to
# ARPACK, whose first call loads scipy's own OpenBLAS; then the thread count
# of every OpenBLAS in the process
_FALLBACK_THREADS = """
import ctypes, json, os
from entlab import dmrg, numerics
fallbacks = []
eigsh = numerics.eigsh

def counted_eigsh(*args, **kwargs):
    fallbacks.append(kwargs["tol"])
    return eigsh(*args, **kwargs)

numerics.eigsh = counted_eigsh
dmrg.run(dmrg.DmrgConfig(mass=1000.0, local_dim=4, gs_tolerance=1e-13))
with open("/proc/self/maps") as fh:
    paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
threads = {}
for path in (p for p in paths if p.startswith("/")):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        get = getattr(lib, symbol, None)
        if get is not None:
            get.restype = ctypes.c_int
            threads[os.path.basename(path)] = get()
            break
print(json.dumps({"fallbacks": len(fallbacks), "threads": threads}))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads /proc/self/maps")
def test_arpack_fallback_runs_every_openblas_on_one_thread():
    # OpenBLAS starts one thread per core unless told otherwise
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _FALLBACK_THREADS], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["fallbacks"] > 0
    assert report["threads"] and set(report["threads"].values()) == {1}, report


def test_k0_is_evaluated_only_where_it_is_kept(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    sizes = []
    k0 = numerics.k0

    def recording_k0(x):
        sizes.append(np.size(x))
        return k0(x)

    monkeypatch.setattr(numerics, "k0", recording_k0)
    numerics.bessel_K_imag(8.0, np.linspace(0.5, 30.0, 600))
    assert sizes == []  # no point of an ell = 8 batch is of order zero
    xs = np.linspace(0.05, 2.0, 40)  # the series side, where K_{i0} = K_0
    with mpmath.workdps(40):
        reference = np.array([float(mpmath.besselk(0, mpmath.mpf(x))) for x in xs])
    assert np.abs(numerics.bessel_K_imag(0.0, xs) / reference - 1.0).max() <= 4e-15
    assert sum(sizes) == xs.size


def test_k0_matches_mpmath_where_the_zero_order_branch_reaches():
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([np.geomspace(1e-300, 1e-8, 30), np.geomspace(1e-8, 2.0, 300),
                         np.linspace(1.0, 2.0, 300)])
    with mpmath.workdps(40):
        reference = np.array([float(mpmath.besselk(0, mpmath.mpf(x))) for x in xs])
    assert np.abs(numerics.k0(xs) / reference - 1.0).max() <= 4e-15


def test_arg_gamma_matches_mpmath_on_its_continuous_branch():
    mpmath = pytest.importorskip("mpmath")
    ells = np.concatenate([np.geomspace(1e-8, 1.0, 100), np.linspace(1.0, 200.0, 1000)])
    with mpmath.workdps(40):
        reference = np.array([float(mpmath.loggamma(mpmath.mpc(1, ell)).imag)
                              for ell in ells])
    assert reference[-1] > 800.0  # far past pi: the branch does not wrap
    # four ulp of |arg Gamma| ~ 860 at ell = 200; scipy's loggamma reaches three
    assert np.abs(numerics.arg_gamma(ells) - reference).max() <= 5e-13


def test_bessel_array_paths_agree_with_scalars():
    ells = np.array([0.5, 2.0, 7.0])
    for x in (1.3, 25.0):  # the series, then the quadrature
        batch = numerics.bessel_K_imag(ells, x)
        singles = [numerics.bessel_K_imag(float(l), x) for l in ells]
        assert np.abs(batch - singles).max() <= 1e-13
    xs = np.array([0.7, 2.2, 9.0])
    batch = numerics.bessel_K_imag(2.0, xs)
    singles = [numerics.bessel_K_imag(2.0, float(x)) for x in xs]
    assert np.abs(batch - singles).max() <= 1e-13


# overflow of (x - ell)(x + ell) at 1e300 would be a RuntimeWarning
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bessel_batch_with_underflowing_points_matches_single_points():
    # K_{i8}(1e4) and beyond underflow; their peaks, of width ~ x^{-1/2}, are
    # too narrow for the trapezoid grid that x = 30 needs, so they stay out of it
    xs = np.array([5.0, 30.0, 1e4, 1e7, 1e300])
    batch = numerics.bessel_K_imag(8.0, xs)
    assert np.array_equal(batch, [numerics.bessel_K_imag(8.0, float(x)) for x in xs])
    assert batch[1] > 0.0 and not batch[2:].any()


# --- find_roots ----------------------------------------------------------------

def test_find_roots_sine():
    roots = numerics.find_roots(np.sin, (0.1, 10.0))
    assert roots.size == 3
    assert np.abs(roots - np.array([np.pi, 2 * np.pi, 3 * np.pi])).max() <= 1e-9


def test_find_roots_linear():
    roots = numerics.find_roots(lambda x: x - 2.0, (0.0, 5.0))
    assert roots.size == 1 and abs(roots[0] - 2.0) <= 1e-9


def test_find_roots_keeps_roots_closer_than_the_scan_step():
    # two sign changes 2e-4 apart, less than the 1e-3 scan step
    f = lambda x: 1e3 * (x - 0.4999) * (x - 0.5001)
    roots = numerics.find_roots(f, (0.0, 1.0))
    assert roots.size == 2
    assert np.abs(f(roots)).max() <= 1e-8
    assert np.abs(roots - [0.4999, 0.5001]).max() <= 1e-9


def bisect_one_bracket_at_a_time(f, lo, hi):
    """Reference: the same scan, then each bracket bisected on its own with
    scalar calls, ceil(log2(h / 1e-12)) times for a scan step h; a bracket
    that does not close onto |f| <= 1e-8 raises."""
    n = int(np.ceil((hi - lo) * 1000.0))
    grid = np.linspace(lo, hi, n + 1)
    values = f(grid)
    roots = list(grid[values == 0.0])
    for i in np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]:
        a, b, fa = grid[i], grid[i + 1], values[i]
        for _ in range(int(np.ceil(np.log2((hi - lo) / n / 1e-12)))):
            mid = 0.5 * (a + b)
            fm = f(np.array([mid]))[0]
            if fm == 0.0:
                a = b = mid
                break
            if np.sign(fm) == np.sign(fa):
                a, fa = mid, fm
            else:
                b = mid
        assert b - a <= 1e-12
        r = 0.5 * (a + b)
        if not abs(f(np.array([r]))[0]) <= 1e-8:
            raise numerics.NumericalError(f"sign change at {r:.12g} is not a root")
        roots.append(r)
    return np.sort(roots)


@pytest.mark.parametrize("f, bracket", [
    (lambda x: np.sin(7.0 * x) * (x - 0.5), (0.1, 3.0)),
    (lambda x: np.cos(x * x), (0.05, 9.0)),
    (lambda x: x - 2.0, (0.0, 5.0)),
])
def test_find_roots_matches_one_bracket_at_a_time(f, bracket):
    lockstep = numerics.find_roots(f, bracket)
    assert lockstep.size >= 1
    assert np.array_equal(lockstep, bisect_one_bracket_at_a_time(f, *bracket))


def test_find_roots_rejects_sign_change_that_is_not_a_root():
    # a jump from 1 to -1 at x = 2 bisects onto 2, where |f| = 1
    jump = lambda x: np.where(x < 2.0, 1.0, -1.0)
    with pytest.raises(numerics.NumericalError, match="sign change at 2 is not a root"):
        numerics.find_roots(jump, (0.0, 5.0))
    with pytest.raises(numerics.NumericalError, match="sign change at 2 is not a root"):
        bisect_one_bracket_at_a_time(jump, 0.0, 5.0)

