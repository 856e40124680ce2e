"""Angular quantization of the half-space: real angular waves K_{i ell}(m x),
their turning-point structure, the discrete frequency spectrum under a
short-distance regulator, Boltzmann weights of the 2*pi-thermal state,
geometric entropy, and the Kruskal-Szekeres chart of the Schwarzschild
exterior.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics
from .quantum_state import bose_entropy

__all__ = [
    "AngularSpectrum",
    "angular_wave",
    "sign_changes",
    "scaled_wave",
    "discrete_spectrum",
    "thermal_weights",
    "geometric_entropy",
    "to_kruskal",
    "from_kruskal",
]

BETA = 2.0 * np.pi  # inverse temperature of the half-space state
# A(ell) ~ e^{-pi ell/2} leaves the normal double range near ell = 451
_ELL_MAX = 400.0
_TINY = np.finfo(float).tiny  # the smallest normal float


@dataclass(frozen=True)
class AngularSpectrum:
    """Discrete angular frequencies selected by the boundary condition
    K_{i ell}(mass * epsilon) = 0 at the regulator distance epsilon."""

    epsilon: float
    ell_values: np.ndarray

    def __post_init__(self):
        if not self.epsilon > 0.0:  # written so that NaN fails
            raise ValueError("epsilon must be positive")
        ells = np.asarray(self.ell_values, dtype=float)
        if np.any(np.diff(ells) <= 0.0):
            raise ValueError("ell_values must be strictly ascending")
        ells.setflags(write=False)
        object.__setattr__(self, "ell_values", ells)

    def __len__(self) -> int:
        return self.ell_values.size


def angular_wave(ell: float, x, mass: float) -> float | np.ndarray:
    """Real angular wave K_{i ell}(mass * x) of frequency ell >= 0;
    oscillatory below the turning point x* = ell / mass, exponentially
    decaying above it.  x must be positive (the wavelength vanishes at the
    origin)."""
    if not mass > 0.0:  # written so that NaN fails
        raise ValueError("mass must be positive")
    return numerics.bessel_K_imag(ell, mass * np.asarray(x, dtype=float))


def sign_changes(values: np.ndarray) -> int:
    """Number of sign changes in a sequence of values, skipping exact
    zeros."""
    s = np.sign(values)
    s = s[s != 0.0]
    return int(np.sum(s[:-1] * s[1:] < 0))


def scaled_wave(ell, x):
    """K_{i ell}(x) / A(ell): the wave in units of its small-x amplitude
    A(ell) = sqrt(pi / (ell sinh(pi ell))), a function of size one at every
    ell; zero at ell = 0, where A is infinite."""
    return numerics.bessel_K_imag(ell, x) / numerics.bessel_amplitude(ell)


def discrete_spectrum(
    mass: float,
    epsilon: float,
    ell_max: float,
) -> AngularSpectrum:
    """Discrete angular frequencies: the roots of ell -> K_{i ell}(m epsilon)
    in (0, ell_max], ascending.

    Every root satisfies |K_{i ell}(m epsilon)| <= 1e-8 A(ell) (see
    `scaled_wave`); numerics.find_roots raises NumericalError for a sign
    change that is not a root.  An empty spectrum (no roots in range) is
    returned with a warning, without a scan where m epsilon >= ell_max:
    K_{i ell}(x) has no zero at ell <= x, and underflows to 0 from
    x ~ 745 on.
    """
    if not mass > 0.0:  # written so that NaN fails, as is every check below
        raise ValueError("mass must be positive")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < ell_max <= _ELL_MAX:
        raise ValueError(f"ell_max must be in (0, {_ELL_MAX:g}]: K_{{i ell}} "
                         "underflows double precision above")
    x0 = mass * epsilon
    lo = min(1e-4, ell_max / 2.0)
    roots = (numerics.find_roots(lambda ell: scaled_wave(ell, x0), (lo, ell_max))
             if x0 < ell_max else np.empty(0))
    if roots.size == 0:
        warnings.warn(
            f"no angular frequencies below ell_max={ell_max} at "
            f"epsilon={epsilon}", numerics.RootCountWarning)
    return AngularSpectrum(epsilon=epsilon, ell_values=roots)


def thermal_weights(spectrum: AngularSpectrum, n_max: int) -> np.ndarray:
    """Occupation weights of the 2*pi-thermal state, one row per mode:
    p(n) = (1 - e^{-2 pi ell}) e^{-2 pi ell n} for n = 0..n_max.

    Weights below the double-precision floor underflow to exact zero.
    """
    if len(spectrum) == 0:
        raise ValueError("spectrum is empty")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    ells = spectrum.ell_values[:, None]
    n = np.arange(n_max + 1)[None, :]
    log_p = np.log1p(-np.exp(-BETA * ells)) - BETA * ells * n
    with np.errstate(under="ignore"):
        return np.exp(log_p)


def geometric_entropy(spectrum: AngularSpectrum) -> float:
    """Total entropy of the regulated thermal state, summed over modes;
    zero for an empty spectrum and growing as the spectrum gains low-ell
    modes."""
    return float(bose_entropy(BETA * spectrum.ell_values).sum())


# --- Kruskal-Szekeres chart of the Schwarzschild exterior -------------------


def to_kruskal(r, t, mass: float):
    """Chart map (r, t) -> (u, v) of the exterior of a black hole of mass M,
    elementwise over scalars or arrays: u v = 16 M^2 (r/2M - 1) exp(r/2M - 1),
    u/v = exp(t/2M).  Raises ValueError unless M > 0, every r > 2M, and every
    u and v is a finite normal float, which a non-finite r or t is not."""
    if not mass > 0.0:  # written so that NaN fails, as is every check below
        raise ValueError("mass must be positive")
    r, t = np.asarray(r, dtype=float), np.asarray(t, dtype=float)
    rho = r / (2.0 * mass)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN at r < 2M or inf * 0, rejected below
        # the root of u v, taken factor by factor: u v itself overflows first
        root = 4.0 * mass * np.sqrt(rho - 1.0) * np.exp(0.5 * (rho - 1.0))
        u, v = root * np.exp(t / (4.0 * mass)), root * np.exp(-t / (4.0 * mass))
    # a subnormal u or v has lost digits: the round trip would miss by up to 1e-5
    if not np.all((r > 2.0 * mass) & (u >= _TINY) & (u < np.inf) & (v >= _TINY) & (v < np.inf)):
        raise ValueError(f"not in the exterior r > 2M = {2 * mass}, or r or t not finite, "
                         "or u or v overflows or underflows the float range")
    return u, v


def _lambert_w0(log_z, z):
    """Principal branch W_0 of w e^w = z > 0, elementwise, from ln z, a float
    where z is not: four Newton steps on y + e^y = ln z, y = ln w, from
    ln ln z above ln z = 1 and from ln z - 1 below it, one on w + ln w = ln z,
    and one on w e^w = z where z is finite, which restores the last ulp."""
    y = np.where(log_z > 1.0, np.log(np.maximum(log_z, 1.0)), log_z - 1.0)
    for _ in range(4):
        y = y - (y + np.exp(y) - log_z) / (1.0 + np.exp(y))
    w = np.exp(y) * (1.0 + log_z - y) / (1.0 + np.exp(y))
    return np.where(z < np.inf, w - (w - z * np.exp(-w)) / (1.0 + w), w)


def from_kruskal(u, v, mass: float):
    """Inverse chart map (u, v) -> (r, t) on the exterior branch, elementwise:
    r = 2M (1 + W_0(u v / 16 M^2)) and t = 2M ln(u/v).  Raises ValueError
    unless M > 0 and every u and v is finite and positive."""
    if not mass > 0.0:
        raise ValueError("mass must be positive")
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if not np.all((u > 0.0) & (u < np.inf) & (v > 0.0) & (v < np.inf)):
        raise ValueError("exterior branch requires finite u > 0 and v > 0")
    log_u, log_v = np.log(u), np.log(v)
    # inf, inf * 0 = NaN and ln 0 where z or u/v leaves the float range: ln z and
    # ln u - ln v, which cannot cancel where |ln(u/v)| >= 700, stand in there
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = _lambert_w0(log_u + log_v - 2.0 * np.log(4.0 * mass),
                        (u / (4.0 * mass)) * (v / (4.0 * mass)))
        log_ratio = np.where(np.abs(log_u - log_v) < 700.0, np.log(u / v), log_u - log_v)
    return 2.0 * mass * (1.0 + w), 2.0 * mass * log_ratio
