"""Bipartite pure states and the information-theoretic machinery built on
them: reduced density matrices, von Neumann entropy, Schmidt decomposition
and optimal low-rank truncation.

States are immutable after construction; entropies are in nats.
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
    "truncate",
    "truncation_distance",
    "evolve_product",
    "random_state",
    "random_unitary",
]

_HERM_TOL = 1e-12
_EVAL_TOL = 1e-12
_TRACE_TOL = 1e-12


@dataclass(frozen=True)
class BipartiteState:
    """Pure state of a left (dim d_L) times right (dim d_R) system, stored as
    the coefficient matrix coeff[a, A] over the product basis.  The
    constructor normalizes, so sum |coeff|^2 == 1.  A real matrix is kept
    as float64 and a complex one as complex128."""

    coeff: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeff,
                       dtype=complex if np.iscomplexobj(self.coeff) else float)
        if c.ndim != 2 or c.size == 0:
            raise ValueError(f"coefficient matrix must be 2-d, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficient matrix has non-finite entries")
        norm = np.linalg.norm(c)
        if norm == 0.0:
            raise ValueError("coefficient matrix is zero")
        c = c / norm
        c.setflags(write=False)
        object.__setattr__(self, "coeff", c)

    @property
    def d_left(self) -> int:
        return self.coeff.shape[0]

    @property
    def d_right(self) -> int:
        return self.coeff.shape[1]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix; validated on
    construction (tolerance 1e-12) from its one eigendecomposition, which
    it keeps: `eigenvalues` descending and `eigenvectors` the matching
    orthonormal columns.  All three arrays are read-only."""

    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rho = np.array(self.entries)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got {rho.shape}")
        if not np.abs(rho - rho.conj().T).max() <= _HERM_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        trace = complex(np.trace(rho))
        if not abs(trace - 1.0) <= _TRACE_TOL:
            raise ValueError(f"trace {trace} differs from 1 beyond 1e-12")
        values, vectors = np.linalg.eigh(rho)
        if not values[0] >= -_EVAL_TOL:
            raise ValueError("density matrix has eigenvalue below -1e-12")
        for name, array in (("entries", rho), ("eigenvalues", values[::-1]),
                            ("eigenvectors", vectors[:, ::-1])):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def reduced_density_right(state: BipartiteState) -> DensityMatrix:
    """Trace out the left part: rho_R = psi^dagger psi / Tr."""
    psi = state.coeff
    rho = psi.conj().T @ psi
    return DensityMatrix(rho / np.trace(rho).real)


def reduced_density_left(state: BipartiteState) -> DensityMatrix:
    """Trace out the right part: rho_L = psi^* psi^T / Tr."""
    psi = state.coeff
    rho = psi.conj() @ psi.T
    return DensityMatrix(rho / np.trace(rho).real)


def entropy_from_probs(p) -> float:
    """Shannon entropy -sum p ln p in nats of a probability vector, with the
    0 ln 0 = 0 convention.  Entries are clamped to [0, 1] before the log."""
    p = np.clip(p, 0.0, 1.0)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def bose_entropy(eps):
    """Entropy (nats) of a bosonic mode with Boltzmann factor e^{-eps}:
    s = eps/(e^eps - 1) - ln(1 - e^{-eps}), written in q = e^{-eps} so that
    nothing overflows at large eps.  Elementwise on arrays."""
    q = np.exp(-eps)
    return eps * q / -np.expm1(-eps) - np.log1p(-q)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S = -Tr rho ln rho in nats, from the eigenvalues of rho."""
    return entropy_from_probs(rho.eigenvalues)


def schmidt(state: BipartiteState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt decomposition coeff = u diag(s) v^dagger as numerics.svd's
    (u, s, v): the coefficients s are nonnegative and descending with
    sum s^2 == 1, and the columns of u and v are orthonormal.

    Degenerate coefficients leave the vector families non-unique (any basis
    of the degenerate subspace works); only the spectrum is contract-bearing.
    """
    return numerics.svd(state.coeff)


def truncate(state: BipartiteState, m: int) -> tuple[BipartiteState, float]:
    """Project onto the m largest-eigenvalue eigenstates of rho_L and
    renormalize.

    Returns the truncated state and the discarded weight sum_{k>m} c_k^2
    (measured before renormalization).
    """
    if not 1 <= m <= state.d_left:
        raise ValueError(f"m={m} out of range [1, {state.d_left}]")
    u, s, v = numerics.svd(state.coeff)
    kept = u[:, :m] @ (s[:m, None] * v[:, :m].conj().T)
    weight = float((s[m:] ** 2).sum())
    return BipartiteState(kept), weight


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
    space and return the partial traces of the result."""
    d_l, d_r = rho_left.dim, rho_right.dim
    u = np.asarray(unitary, dtype=complex)
    dim = d_l * d_r
    if u.shape != (dim, dim):
        raise ValueError(f"unitary must act on dimension {dim}, got {u.shape}")
    defect = float(np.abs(u.conj().T @ u - np.eye(dim)).max())
    if not defect <= 1e-10:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e}")
    rho = u @ np.kron(rho_left.entries, rho_right.entries) @ u.conj().T
    rho = rho.reshape(d_l, d_r, d_l, d_r)
    out_left = np.einsum("aAbA->ab", rho)
    out_right = np.einsum("aAaB->AB", rho)
    # re-symmetrize rounding noise before validation
    out_left = 0.5 * (out_left + out_left.conj().T)
    out_right = 0.5 * (out_right + out_right.conj().T)
    return DensityMatrix(out_left), DensityMatrix(out_right)


def random_state(d_left: int, d_right: int, rng: np.random.Generator) -> BipartiteState:
    """Random pure state with independent complex Gaussian coefficients."""
    c = rng.standard_normal((d_left, d_right)) + 1j * rng.standard_normal((d_left, d_right))
    return BipartiteState(c)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like random unitary: QR of a complex Gaussian matrix with the
    phase convention fixed by the R diagonal."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
