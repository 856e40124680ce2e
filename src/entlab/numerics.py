"""Dense and iterative linear algebra plus the special functions shared by the
other modules: symmetric eigensolves, SVD, a ground-state solver for
matrix-free operators of any dimension, imaginary-order modified Bessel
functions K_{i ell}(x) with the phase arg Gamma(1 + i ell) and K_0 they use,
a bracketing root finder, and the switch that runs BLAS on one thread,
thrown once when this module is imported and again when the ARPACK fallback
first imports scipy.

All functions except that switch are pure and thread-safe.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NumericalError",
    "EigensolverError",
    "RootCountWarning",
    "use_one_blas_thread",
    "require_symmetric",
    "sym_eig",
    "svd",
    "smallest_eigenpair",
    "bessel_K_imag",
    "bessel_amplitude",
    "find_roots",
]


class NumericalError(RuntimeError):
    """A numerical method failed to converge or to meet its accuracy
    contract."""


class EigensolverError(NumericalError):
    """Eigensolver failed to meet its residual contract.

    `iterations` is the number of operator applications made before giving
    up."""

    def __init__(self, message: str, iterations: int):
        super().__init__(f"{message} ({iterations} operator applications)")
        self.iterations = iterations


class RootCountWarning(UserWarning):
    """A root search found no roots."""


def _require_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")


# set_num_threads of OpenBLAS as numpy's and scipy's wheels export it
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def use_one_blas_thread() -> None:
    """Run every OpenBLAS loaded into this process on one thread.

    The products here (256 x 256 in DMRG) are faster on one thread, and
    their rounding, so every reported digit, would otherwise depend on the
    thread count.  The libraries are found through /proc/self/maps; where
    that file, a library or its set_num_threads symbol is missing, nothing
    changes.  Importing this module calls it, after numpy has loaded its
    OpenBLAS, and so does the first ARPACK fallback, after scipy has loaded
    its own, so every caller of entlab runs single-threaded.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # the mapped file is gone or not a library
            continue
        for symbol in _BLAS_SET_THREADS:
            set_threads = getattr(lib, symbol, None)
            if set_threads is not None:
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                set_threads(1)
                break


def require_symmetric(matrix: np.ndarray) -> np.ndarray:
    """The matrix as an array, if it is finite, square and symmetric (or
    Hermitian) to 1e-12 of its largest entry; ValueError otherwise."""
    m = np.asarray(matrix)
    _require_finite(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    if np.abs(m - m.conj().T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric/Hermitian")
    return m


def sym_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (values, vectors) of a real symmetric (or complex
    Hermitian) matrix, checked by require_symmetric; eigenvalues come back
    ascending with orthonormal eigenvector columns."""
    return np.linalg.eigh(require_symmetric(matrix))


def svd(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition (u, s, v), A = u @ diag(s) @
    v.conj().T, with s descending and u, v orthonormal."""
    a = np.asarray(matrix)
    _require_finite(a, "matrix")
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u, s, vh.conj().T


# Davidson's basis holds at most this many vectors, as rows; a larger one
# saved few applications in DMRG and costs peak memory.
_DAVIDSON_BASIS = 8
_MAX_RESTARTS = 20000


@functools.cache
def _arpack():
    """scipy.sparse.linalg, imported on the first ARPACK fallback: the import
    costs more than most runs compute, and loads scipy's own OpenBLAS, which
    is then set to one thread as well."""
    from scipy.sparse import linalg

    use_one_blas_thread()
    return linalg


def eigsh(operator, **kwargs):
    """ARPACK's Lanczos, scipy.sparse.linalg.eigsh, imported on first call."""
    return _arpack().eigsh(operator, **kwargs)


def smallest_eigenpair(
    apply: Callable[[np.ndarray], np.ndarray],
    diagonal: np.ndarray,
    tol: float = 1e-10,
    v0: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and eigenvector of a real self-adjoint operator H.

    `apply` maps a vector to H @ v and `diagonal` is H's diagonal, whose
    length (1 or more) is the dimension.  Davidson's iteration (J. Comput.
    Phys. 17, 87, 1975) runs on a basis of at most _DAVIDSON_BASIS vectors,
    restarted from the two lowest Ritz vectors, with the correction
    r / (diagonal - E) less its part along the Ritz vector, from v0 or else
    the unit vector at the smallest diagonal entry.  It stops at a running
    residual <= tol / 2, and one more application of H verifies the
    contract ||H v - E v|| <= tol.  When that check fails, when the running
    residual has not halved over _DAVIDSON_BASIS applications, or when the
    correction lies in the basis's span, ARPACK's Lanczos continues from
    Davidson's best vector at tol / max(1, |E|) (it stops at a residual of
    tol |E|), once, and its result is verified the same way.  scipy is
    imported for this fallback only.  The stall rule bounds Davidson: from
    a first residual r_1 it ends within 8 (ceil(log2(2 r_1 / tol)) + 1)
    applications.

    Raises ValueError on a non-finite diagonal, a tol <= 0 or a zero v0,
    and EigensolverError on a non-finite H v or an ARPACK failure, or when
    the Lanczos result misses the contract.
    """
    diagonal = np.asarray(diagonal, dtype=np.float64)
    dim = diagonal.size
    if diagonal.ndim != 1 or dim < 1:
        raise ValueError("diagonal must be a nonempty 1-d array")
    _require_finite(diagonal, "diagonal")
    if not tol > 0.0:  # written so that NaN fails
        raise ValueError("tol must be positive")
    if v0 is None:
        v0 = np.zeros(dim)
        v0[np.argmin(diagonal)] = 1.0
    v0 = np.asarray(v0, dtype=np.float64)
    if not np.any(v0):
        raise ValueError("v0 must be nonzero")

    applications = 0

    def counted(vec):
        nonlocal applications
        applications += 1
        return apply(vec)

    basis = np.empty((_DAVIDSON_BASIS, dim))
    images = np.empty((_DAVIDSON_BASIS, dim))
    projected = np.empty((_DAVIDSON_BASIS, _DAVIDSON_BASIS))
    norms = []  # the running residual after each application
    size = 0
    vector = v0 / np.linalg.norm(v0)
    while True:
        basis[size] = vector
        images[size] = counted(vector)
        if not np.isfinite(images[size]).all():
            raise EigensolverError("H v is not finite", applications)
        projected[size, :size + 1] = basis[:size + 1] @ images[size]
        projected[:size, size] = projected[size, :size]
        size += 1
        values, ritz = np.linalg.eigh(projected[:size, :size])
        value = float(values[0])
        best = ritz[:, 0] @ basis[:size]
        residual = ritz[:, 0] @ images[:size] - value * best
        norms.append(float(np.linalg.norm(residual)))
        if norms[-1] <= tol / 2:
            if np.linalg.norm(counted(best) - value * best) <= tol:
                return value, best
            break
        # a residual that has not halved over a whole basis of applications
        # has stalled, typically at the rounding of H v near one ulp of |E|
        if (len(norms) > _DAVIDSON_BASIS
                and min(norms[-_DAVIDSON_BASIS:]) > 0.5 * min(norms[:-_DAVIDSON_BASIS])):
            break
        if size == _DAVIDSON_BASIS:
            basis[:2] = ritz[:, :2].T @ basis[:size]
            images[:2] = ritz[:, :2].T @ images[:size]
            projected[:2, :2] = np.diag(values[:2])
            size = 2
        # Olsen's correction (Chem. Phys. Lett. 169, 463, 1990): where the
        # diagonal is close to H, r / (diagonal - E) is close to the Ritz
        # vector itself, so take out its part along that vector
        shift = diagonal - value
        shift[np.abs(shift) < 1e-8] = 1e-8
        scaled = best / shift
        residual /= shift
        residual -= (best @ residual) / (best @ scaled) * scaled
        # Gram-Schmidt twice (Kahan's "twice is enough", Parlett): a second
        # pass that removes half of what the first left means the correction
        # lies in the span to rounding, and would make the basis dependent
        residual -= (basis[:size] @ residual) @ basis[:size]
        first = np.linalg.norm(residual)
        residual -= (basis[:size] @ residual) @ basis[:size]
        norm = np.linalg.norm(residual)
        if not norm > 0.5 * first:
            break
        vector = residual / norm

    arpack = _arpack()
    op = arpack.LinearOperator((dim, dim), matvec=counted, dtype=np.float64)
    try:
        values, vectors = eigsh(op, k=1, which="SA", v0=best,
                                tol=tol / max(1.0, abs(value)), maxiter=_MAX_RESTARTS)
    except arpack.ArpackError as exc:  # ArpackNoConvergence among them
        raise EigensolverError(f"Lanczos failed: {exc}", applications) from exc
    value, best = float(values[0]), vectors[:, 0]
    residual = float(np.linalg.norm(counted(best) - value * best))
    if residual <= tol:
        return value, best
    raise EigensolverError(
        f"residual {residual:.3e} still above tolerance {tol:.3e} after "
        "Davidson and 1 Lanczos attempt", applications)


# --- imaginary-order modified Bessel function ------------------------------
#
# For x <= max(2, 1.05 ell), K_{i ell}(x) comes from the ascending series of
# I_{i ell} (DLMF 10.25.2, 10.27.4), which has no cancellation at x <= 2:
#
#     K_{i ell}(x) = -A(ell) Im[e^{i phi} sum_k t_k],
#     t_0 = 1,  t_k = t_{k-1} (x^2/4) / (k (k + i ell)),
#     phi = ell ln(x/2) - arg Gamma(1 + i ell),
#
# where A(ell) = sqrt(pi / (ell sinh(pi ell))) is the amplitude of the
# small-x wave (DLMF 10.45).  At larger x, K_{i ell}(x) = integral_0^inf
# exp(-x cosh t) cos(ell t) dt (DLMF 10.32.9) is taken on the steepest-descent
# path t = u + i v(u), sin v = ell u / (x sinh u), where the exponent is real
# and the odd i v' term drops out (Gil, Segura and Temme, ACM TOMS 30, 145):
#
#     K_{i ell}(x) = integral_0^inf exp(-F(u)) du,  F = x cosh u cos v + ell v.
#
# The integrand is positive and falls from its peak at u = 0, so nothing
# cancels, and the trapezoid rule with step halving converges geometrically
# to a relative tolerance that binds at every x.  As F(u) >= cosh u
# sqrt(x^2 - ell^2), exp(F(0) - F(u)) < 1e-18 past cosh T = (F(0) + ln 1e18)
# / sqrt(x^2 - ell^2).  Only the series loses digits, just below the seam:
# its terms reach e^{x^2 / (4 ell)} while K is of size A ~ e^{-pi ell / 2}.
# Against 40-digit mpmath on x in (2, 60] the error is <= 2.3e-14 A for
# ell <= 20, 1.2e-12 A at 40 and 2.1e-11 A at 50; above the seam it is
# <= 1.3e-15 A.  Both methods run in plain double precision.

_SERIES_X_MAX = 2.0
_SERIES_PER_ELL = 1.05
_SERIES_REL_TOL = 1e-17
# K_{i ell} - K_0 = O(ell^2), below double precision for ell < 1e-8
_ZERO_ORDER = 1e-8

_QUAD_REL_TOL = 1e-10
_MAX_DOUBLINGS = 8  # 4 at most were needed; caps the grid at 2048 x 2048
_CHUNK = 2048  # points per quadrature batch: bounds the (batch x grid) matrix


# Stirling's series for ln Gamma(z) (DLMF 5.11.1): B_2k / (2k (2k - 1)) for
# k = 7 down to 1; at |z| >= 9 the first term left out is below 1.5e-16
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
# Gamma(9 + i ell) = (1 + i ell) ... (8 + i ell) Gamma(1 + i ell): the phases
# arctan(ell / k) of those factors, k = 1..8, and of z = 9 + i ell, which
# Im[(z - 1/2) ln z] weighs by 8.5, are taken in one batch
_PHASE_DIVISORS = np.arange(1.0, 10.0)[:, None]
_PHASE_WEIGHTS = np.array([-1.0] * 8 + [8.5])


def arg_gamma(ell: np.ndarray) -> np.ndarray:
    """arg Gamma(1 + i ell) on its continuous branch, for a 1-d ell >= 0.

    Stirling's series at z = 9 + i ell, less the phases of the eight factors
    that shift 1 + i ell to z; against 40-digit mpmath the error is at most
    2.3e-13, two ulp of |arg Gamma| ~ 860, on ell in (0, 200].  Written
    with few temporaries: the root scan calls it on 20,000 points at once,
    where each costs fresh pages, and the bisection on a few points at a
    time, where each numpy call costs more than its arithmetic.
    """
    z = 9.0 + 1j * ell
    w = z * z
    np.reciprocal(w, out=w)
    series = _STIRLING[0] * w
    for c in _STIRLING[1:-1]:  # Horner's rule in 1 / z^2
        series += c
        series *= w
    series += _STIRLING[-1]
    series /= z
    phases = ell / _PHASE_DIVISORS
    np.arctan(phases, out=phases)
    # Im[(z - 1/2) ln z - z] = 8.5 arg z + ell (ln|z| - 1)
    return (ell * (np.log(np.hypot(9.0, ell)) - 1.0) + series.imag
            + _PHASE_WEIGHTS @ phases)


def k0(x: np.ndarray) -> np.ndarray:
    """K_0(x) by its ascending series (DLMF 10.31.2), for a 1-d 0 < x <= 2:

        K_0(x) = sum_k (H_k - ln(x/2) - gamma) (x^2/4)^k / (k!)^2,

    with H_k the harmonic numbers; 1.6e-15 relative against mpmath.
    """
    q = 0.25 * x * x
    log_term = np.log(0.5 * x) + np.euler_gamma
    term = np.ones_like(x)
    total = -log_term
    harmonic = 0.0
    k = 0
    while np.any(term > 1e-17):
        k += 1
        harmonic += 1.0 / k
        term = term * q / (k * k)
        total = total + (harmonic - log_term) * term
    return total


def bessel_amplitude(ell):
    """Amplitude A(ell) = sqrt(pi / (ell sinh(pi ell))) of the small-x wave,
    K_{i ell}(x) ~ -A(ell) sin(ell ln(x/2) - arg Gamma(1 + i ell)) as x -> 0.

    Written in e^{-pi ell} so that it never overflows; infinite at ell = 0.
    """
    ell = np.asarray(ell, dtype=float)
    with np.errstate(divide="ignore"):
        return (np.sqrt(2.0 * np.pi / (ell * -np.expm1(-2.0 * np.pi * ell)))
                * np.exp(-0.5 * np.pi * ell))


def _series_K(ells: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Ascending series at paired 1-d ells (>= _ZERO_ORDER) and xs
    (<= max(2, 1.05 ell))."""
    q = 0.25 * xs * xs
    term = np.ones(xs.shape, dtype=complex)
    total = term.copy()
    k = 0
    while np.any(np.abs(term) > _SERIES_REL_TOL * np.abs(total)):
        k += 1
        term = term * q / (k * (k + 1j * ells))
        total += term
    phase = ells * np.log(0.5 * xs) - arg_gamma(ells)
    return -bessel_amplitude(ells) * (np.exp(1j * phase) * total).imag


def _descent_K(ells: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Trapezoid rule on the steepest-descent path at paired 1-d ells and
    xs, with x > ell.  K is 0 where e^{-F(0)} underflows, and those points
    stay out of the shared grid, whose step could not resolve their peaks
    of width ~ x^{-1/2}."""
    with np.errstate(over="ignore"):  # past x ~ 1.3e154, where K is 0 anyway
        root = np.sqrt((xs - ells) * (xs + ells))
    peak = root + ells * np.arcsin(ells / xs)  # F(0)
    out = np.exp(-peak)
    live = out > 0.0
    if not live.any():
        return out
    T = float(np.arccosh(np.max((peak[live] + np.log(1e18)) / root[live])))
    ratio, x, ell, f0 = (a[live, None] for a in (ells / xs, xs, ells, peak))

    def scaled(u):  # exp(F(0) - F(u)), shape (live points, len(u))
        u_over_sinh = np.ones_like(u)
        np.divide(u, np.sinh(u), out=u_over_sinh, where=u > 0.0)
        sin_v = ratio * u_over_sinh
        return np.exp(f0 - x * np.cosh(u) * np.sqrt(1.0 - sin_v * sin_v)
                      - ell * np.arcsin(sin_v))

    n, h = 16, T / 16
    w = scaled(np.linspace(0.0, T, n + 1))
    estimate = h * (w.sum(axis=1) - 0.5 * (w[:, 0] + w[:, -1]))
    for _ in range(_MAX_DOUBLINGS):
        refined = 0.5 * (estimate + h * scaled(h * (np.arange(n) + 0.5)).sum(axis=1))
        n, h = 2 * n, 0.5 * h
        converged = np.all(np.abs(refined - estimate) <= _QUAD_REL_TOL * refined)
        estimate = refined
        if converged:
            out[live] *= estimate
            return out
    raise NumericalError("Bessel quadrature did not converge")


def bessel_K_imag(ell, x):
    """Modified Bessel function of imaginary order, K_{i ell}(x), real-valued.

    Requires x > 0 and ell >= 0.  One argument may be a 1-d array while the
    other is scalar.  Points with x <= max(2, 1.05 ell) use the ascending
    series; the rest use the trapezoid rule on the steepest-descent path,
    one shared grid per batch of up to 2048 points.
    """
    ell_arr = np.atleast_1d(np.asarray(ell, dtype=float))
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if ell_arr.ndim > 1 or x_arr.ndim > 1:
        raise ValueError("ell and x must be scalars or 1-d arrays")
    if ell_arr.size > 1 and x_arr.size > 1:
        raise ValueError("ell and x cannot both be arrays")
    _require_finite(ell_arr, "ell")
    _require_finite(x_arr, "x")
    if np.any(x_arr <= 0.0):
        raise ValueError("x must be positive: the wave is undefined at x=0")
    if np.any(ell_arr < 0.0):
        raise ValueError("ell must be nonnegative")

    scalar = np.ndim(ell) == 0 and np.ndim(x) == 0

    ells, xs = np.broadcast_arrays(ell_arr, x_arr)
    out = np.empty(xs.shape)
    near = xs <= np.maximum(_SERIES_X_MAX, _SERIES_PER_ELL * ells)
    zero = near & (ells < _ZERO_ORDER)
    if zero.any():
        out[zero] = k0(xs[zero])
    series = near & ~zero
    if series.any():
        out[series] = _series_K(ells[series], xs[series])
    far = np.flatnonzero(~near)
    for i in range(0, far.size, _CHUNK):
        chunk = far[i:i + _CHUNK]
        out[chunk] = _descent_K(ells[chunk], xs[chunk])
    return float(out[0]) if scalar else out


_SCAN_POINTS_PER_UNIT = 1000.0
_ROOT_XTOL = 1e-12
_ROOT_F_TOL = 1e-8


def find_roots(f: Callable, bracket: Sequence[float]) -> np.ndarray:
    """Roots of a continuous function on an interval, ascending.

    `f` must accept a 1-d array and return the values elementwise.  Scans
    the bracket (10^3 points per unit length) and bisects each sign change
    to one root, all in lock-step, one call of `f` per halving; each
    bracket starts one scan step h wide, so ceil(log2(h / 1e-12)) halvings
    take it to 1e-12.  Every returned root satisfies |f(r)| <= 1e-8; a sign
    change that does not close onto such a root (a jump) raises
    NumericalError.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("bracket must satisfy lo < hi")
    n_scan = max(8, int(np.ceil((hi - lo) * _SCAN_POINTS_PER_UNIT)))
    grid = np.linspace(lo, hi, n_scan + 1)
    values = np.asarray(f(grid), dtype=float)
    _require_finite(values, "f(scan grid)")

    sign = np.sign(values)
    flips = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    a, b, fa = grid[flips], grid[flips + 1], values[flips]
    halvings = int(np.ceil(np.log2((hi - lo) / n_scan / _ROOT_XTOL))) if flips.size else 0
    for _ in range(halvings):
        mid = 0.5 * (a + b)
        fm = np.asarray(f(mid), dtype=float)
        same = np.sign(fm) == np.sign(fa)
        # an exact zero closes its bracket onto the midpoint
        a = np.where(same | (fm == 0.0), mid, a)
        b = np.where(same, b, mid)
        fa = np.where(same, fm, fa)
    r = 0.5 * (a + b)
    if r.size:
        residual = np.abs(np.asarray(f(r), dtype=float))
        bad = np.flatnonzero(~(residual <= _ROOT_F_TOL))
        if bad.size:
            raise NumericalError(
                f"sign change at {r[bad[0]]:.12g} is not a root: "
                f"|f| = {residual[bad[0]]:.3e} above {_ROOT_F_TOL}")
    return np.sort(np.concatenate([grid[values == 0.0], r]))


use_one_blas_thread()
