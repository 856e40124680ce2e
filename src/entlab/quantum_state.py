"""Bipartite pure states and the information-theoretic machinery built on
them: reduced density matrices, von Neumann entropy, Schmidt decomposition
and the distance of a truncated state.

States are immutable after construction; entropies are in nats.  Leading
axes of an array, where a function allows them, index a stack of matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics

__all__ = [
    "BipartiteState",
    "DensityMatrix",
    "reduced_density_right",
    "reduced_density_left",
    "entropy_from_probs",
    "bose_entropy",
    "von_neumann_entropy",
    "schmidt",
    "truncation_distance",
    "evolve_product",
    "random_state",
    "haar_unitary",
]

_TOL = 1e-12  # of each DensityMatrix check: Hermiticity, trace, eigenvalues


@dataclass(frozen=True)
class BipartiteState:
    """Pure state of a left (dim d_L) times right (dim d_R) system, stored as
    the coefficient matrix coeff[..., a, A] over the product basis.  The
    constructor normalizes each matrix, so sum |coeff|^2 == 1.  A real matrix
    is kept as float64 and a complex one as complex128."""

    coeff: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeff,
                       dtype=complex if np.iscomplexobj(self.coeff) else float)
        if c.ndim < 2 or c.size == 0:
            raise ValueError(f"coefficient matrices must be 2-d or stacked, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficient matrix has non-finite entries")
        row = c.reshape(*c.shape[:-2], 1, -1)  # per matrix, np.linalg.norm's dot products
        parts = (row.real, row.imag) if np.iscomplexobj(c) else (row,)
        norm = np.sqrt(sum(x @ x.swapaxes(-1, -2) for x in parts))
        if not np.all(norm):
            raise ValueError("coefficient matrix is zero")
        c = c / norm
        c.setflags(write=False)
        object.__setattr__(self, "coeff", c)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix (or stack); each
    is validated on construction (tolerance 1e-12) from its eigenvalues,
    which it keeps descending in `eigenvalues`.  Both are read-only."""

    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rho = np.array(self.entries)
        if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
            raise ValueError(f"density matrix must be square, got {rho.shape}")
        # `not worst <= tol`: a NaN anywhere makes the worst NaN, which fails
        if not np.abs(rho - rho.conj().swapaxes(-1, -2)).max() <= _TOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        deviation = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max()
        if not deviation <= _TOL:
            raise ValueError(f"trace differs from 1 by {deviation:.3e}, beyond 1e-12")
        values = np.linalg.eigvalsh(rho)
        if not values.min() >= -_TOL:
            raise ValueError("density matrix has eigenvalue below -1e-12")
        for name, array in (("entries", rho), ("eigenvalues", values[..., ::-1])):
            array.setflags(write=False)
            object.__setattr__(self, name, array)


def reduced_density_right(state: BipartiteState) -> DensityMatrix:
    """Trace out the left part: rho_R = psi^dagger psi / Tr."""
    rho = state.coeff.conj().swapaxes(-1, -2) @ state.coeff
    return DensityMatrix(rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None])


def reduced_density_left(state: BipartiteState) -> DensityMatrix:
    """Trace out the right part: rho_L = psi^* psi^T / Tr."""
    rho = state.coeff.conj() @ state.coeff.swapaxes(-1, -2)
    return DensityMatrix(rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None])


def entropy_from_probs(p):
    """Shannon entropy -sum p ln p in nats along the last axis, along which
    p sums to 1, with the 0 ln 0 = 0 convention; a float for one vector.
    Entries are clamped to [0, 1] before the log; a non-finite entry raises
    ValueError.  The largest entry p_0 adds -p_0 log1p(-sum of the others),
    which keeps that term where p_0 rounds to 1."""
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities have non-finite entries")
    p = np.clip(p, 0.0, 1.0)
    top = p.argmax(axis=-1)[..., None]
    largest = np.take_along_axis(p, top, axis=-1)[..., 0]
    np.put_along_axis(p, top, 0.0, axis=-1)
    # ln 1 stands in for ln 0; a pure state gets 0.0 - 0.0 - -0.0 = +0.0
    s = (0.0 - (p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)
         - largest * np.log1p(-p.sum(axis=-1)))
    return float(s) if s.ndim == 0 else s


def bose_entropy(eps):
    """Entropy (nats) of a bosonic mode with Boltzmann factor e^{-eps}:
    s = eps/(e^eps - 1) - ln(1 - e^{-eps}), written in q = e^{-eps} so that
    nothing overflows at large eps.  Elementwise on arrays."""
    q = np.exp(-eps)
    return eps * q / -np.expm1(-eps) - np.log1p(-q)


def von_neumann_entropy(rho: DensityMatrix):
    """S = -Tr rho ln rho in nats, from the eigenvalues of rho (of each)."""
    return entropy_from_probs(rho.eigenvalues)


def schmidt(state: BipartiteState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt decomposition coeff = u diag(s) v^dagger as numerics.svd's
    (u, s, v): the coefficients s are nonnegative and descending with
    sum s^2 == 1, and the columns of u and v are orthonormal.

    Degenerate coefficients leave the vector families non-unique (any basis
    of the degenerate subspace works); only the spectrum is contract-bearing.
    """
    return numerics.svd(state.coeff)


def truncation_distance(original, reduced) -> float:
    """Squared norm distance || reduced - original ||^2 between coefficient
    matrices.

    Either argument may be a BipartiteState or a raw (possibly
    unnormalized) coefficient matrix; the raw form is needed for the
    distance to a projection before renormalization.
    """
    a = original.coeff if isinstance(original, BipartiteState) else np.asarray(original)
    b = reduced.coeff if isinstance(reduced, BipartiteState) else np.asarray(reduced)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(b - a) ** 2)


def evolve_product(
    rho_left: DensityMatrix,
    rho_right: DensityMatrix,
    unitary: np.ndarray,
) -> tuple[DensityMatrix, DensityMatrix]:
    """Evolve the product state rho_L x rho_R by a unitary on the composite
    space and return the partial traces of the result, stacks matrix by
    matrix."""
    d_l, d_r = rho_left.entries.shape[-1], rho_right.entries.shape[-1]
    u = np.asarray(unitary, dtype=complex)
    dim = d_l * d_r
    if u.shape[-2:] != (dim, dim):
        raise ValueError(f"unitary must act on dimension {dim}, got {u.shape}")
    defect = float(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(dim)).max())
    if not defect <= 1e-10:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e}")
    kron = np.einsum("...ab,...AB->...aAbB", rho_left.entries, rho_right.entries)
    rho = u @ kron.reshape(*kron.shape[:-4], dim, dim) @ u.conj().swapaxes(-1, -2)
    rho = rho.reshape(*rho.shape[:-2], d_l, d_r, d_l, d_r)
    # the partial traces, re-symmetrized against rounding noise before validation
    outs = (np.einsum(spec, rho) for spec in ("...aAbA->...ab", "...aAaB->...AB"))
    return tuple(DensityMatrix(0.5 * (out + out.conj().swapaxes(-1, -2))) for out in outs)


def random_state(d_left: int, d_right: int, rng: np.random.Generator) -> BipartiteState:
    """Random pure state with independent complex Gaussian coefficients."""
    c = rng.standard_normal((d_left, d_right)) + 1j * rng.standard_normal((d_left, d_right))
    return BipartiteState(c)


def haar_unitary(gaussian: np.ndarray) -> np.ndarray:
    """Haar random unitary from each complex Gaussian matrix: the Q of its QR,
    column phases fixed by the R diagonal (Mezzadri, math-ph/0609050)."""
    q, r = np.linalg.qr(gaussian)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
