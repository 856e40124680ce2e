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
from scipy.special import lambertw

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
    returned with a warning.
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
    roots = numerics.find_roots(lambda ell: scaled_wave(ell, x0), (lo, ell_max))
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
    u/v = exp(t/2M).  Raises ValueError unless M > 0 and every r > 2M."""
    if not mass > 0.0:  # written so that NaN fails, as is every check below
        raise ValueError("mass must be positive")
    r = np.asarray(r, dtype=float)
    if not np.all(r > 2.0 * mass):
        raise ValueError(f"r not outside the horizon r > 2M = {2 * mass}; "
                         "the chart covers the exterior branch only")
    rho = r / (2.0 * mass)
    root = np.sqrt(16.0 * mass * mass * (rho - 1.0) * np.exp(rho - 1.0))
    t = np.asarray(t, dtype=float)
    return root * np.exp(t / (4.0 * mass)), root * np.exp(-t / (4.0 * mass))


def from_kruskal(u, v, mass: float):
    """Inverse chart map (u, v) -> (r, t) on the exterior branch, elementwise,
    via the Lambert W function.  Raises ValueError unless M > 0 and every
    u > 0 and v > 0."""
    if not mass > 0.0:
        raise ValueError("mass must be positive")
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if not (np.all(u > 0.0) and np.all(v > 0.0)):
        raise ValueError("exterior branch requires u > 0 and v > 0")
    w = lambertw(u * v / (16.0 * mass * mass)).real
    return 2.0 * mass * (1.0 + w), 2.0 * mass * np.log(u / v)
