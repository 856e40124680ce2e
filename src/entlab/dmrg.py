"""Infinite-system density-matrix renormalization group for the harmonic
chain with truncated local Fock spaces.

A run starts from the empty block.  Each step adjoins one site at the
block's origin-facing edge, solves the enlarged block and its mirror image as
a superblock, and truncates the block to the dominant eigenstates of its
reduced density matrix.  No free sites are inserted between block and mirror.
Each solve after the first starts from McCulloch's prediction of its ground
state from the two steps before it (arXiv:0804.2509; White, PRL 77, 3633,
1996).

H = sum pi^2/2 + phi^T V phi/2 is even under phi -> -phi, so every block
basis state carries a Z2 parity, the block Hamiltonian conserves it and the
edge field flips it (White, PRB 48, 10345, 1993).  The solve and the
truncation work sector by sector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .harmonic_chain import oscillator_ops
from .quantum_state import BipartiteState, entropy_from_probs, reduced_density_left

__all__ = [
    "DmrgConfig",
    "DmrgBlock",
    "DmrgIterate",
    "Superblock",
    "dmrg_step",
    "run",
]

_SUPERBLOCK_LIMIT = 1 << 20
_SQRT2 = np.sqrt(2.0)
_PREDICTION_CUTOFF = 1e-12


@dataclass(frozen=True)
class DmrgConfig:
    mass: float = 1.0
    local_dim: int = 8
    kept_states: int = 16
    target_length: int = 20
    gs_tolerance: float = 1e-10

    def __post_init__(self):
        for name in ("local_dim", "kept_states", "target_length"):
            value = getattr(self, name)
            # a bool is an int to Python
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.local_dim < 2:
            raise ValueError("local_dim must be >= 2")
        if self.local_dim ** 2 > _SUPERBLOCK_LIMIT:
            # the first superblock is local_dim^2; reject before any allocation
            raise ValueError(
                f"local_dim {self.local_dim} gives a first superblock of "
                f"dimension {self.local_dim ** 2}, above limit {_SUPERBLOCK_LIMIT}")
        if self.kept_states < 1:
            raise ValueError("kept_states must be >= 1")
        if self.target_length < 2 or self.target_length % 2:
            raise ValueError("target_length must be a positive even integer")
        # so that mass ** 2 is a finite float, for an int mass too
        if not 0.0 <= self.mass <= np.sqrt(np.finfo(float).max):
            raise ValueError("mass must be nonnegative, with a finite square")
        if not 0.0 < self.gs_tolerance < np.inf:
            raise ValueError("gs_tolerance must be finite and positive")

    @property
    def site_frequency(self) -> float:
        # fixed-end chain: every site sees self-frequency sqrt(2 + mass^2)
        return float(np.sqrt(2.0 + self.mass ** 2))


@dataclass(frozen=True)
class DmrgBlock:
    """Block of `length` sites in a (possibly truncated) basis.

    edge_phi is the field operator of the origin-facing boundary site on the
    leading tensor factor of the basis, so the block's edge field is
    kron(edge_phi, I).  That factor is the bare site in an enlarged block,
    and the whole basis in a truncated or the empty one.  All matrices are
    real.  parity labels each basis state +1 or -1 under phi -> -phi; a
    truncated block lists its even states first.  ground_state, in a
    truncated block, is the superblock ground state it was cut from, as a
    (block x mirror) matrix in the kept basis; run's empty block has [[1]].
    prediction, in a truncated block cut from a block with a ground state,
    is a factor F of the next step's predicted ground state F F^T, over
    the enlarged basis (new site) x (this block); see _prediction.
    """

    length: int
    hamiltonian: np.ndarray
    edge_phi: np.ndarray
    parity: np.ndarray
    ground_state: np.ndarray | None = field(default=None, compare=False)
    prediction: np.ndarray | None = field(default=None, compare=False)

    @property
    def basis_size(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class DmrgIterate:
    chain_length: int
    ground_energy: float
    half_chain_entropy: float
    truncation_weight: float
    kept: int


@dataclass(frozen=True)
class Superblock:
    """Block + mirror image coupled across the origin by -phi_edge phi'_edge.

    Acts on vectors of length basis_size**2 (the block x mirror product
    space) without materializing the matrix.  edge_phi is the block's edge
    field on its leading tensor factor (see DmrgBlock), so the coupling is
    applied on that factor's index of each side (Schollwoeck, RMP 77, 259,
    2005): the matvec costs the two n^3 products of the block Hamiltonian.
    """

    hamiltonian: np.ndarray
    edge_phi: np.ndarray

    @property
    def block_dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def dim(self) -> int:
        return self.block_dim ** 2

    def _edge_term(self, m: np.ndarray) -> np.ndarray:
        """(phi x I) M (phi x I)^T: phi on the site index of the rows, then,
        row by row, on the site index of the columns."""
        n = self.block_dim
        k = self.edge_phi.shape[0]
        rows = (self.edge_phi @ m.reshape(k, -1)).reshape(n, k, n // k)
        return np.matmul(self.edge_phi, rows).reshape(n, n)

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        n = self.block_dim
        m = vec.reshape(n, n)
        out = self.hamiltonian @ m
        out += m @ self.hamiltonian
        out -= self._edge_term(m)
        return out.ravel()

    def sector(self, parity: np.ndarray):
        """The operator on the ground state's sector, in orthonormal packed
        coordinates: the functions (pack, unpack, apply) and apply's
        diagonal.

        parity labels the block basis +-1 and is the Kronecker product of
        labels on edge_phi's factor and on the rest of the basis; the block
        Hamiltonian conserves it and edge_phi flips it.  The ground state M
        is then symmetric and pairs equal labels only, M = M_ee + M_oo.  A
        packed vector holds, even sector first, each sector's diagonal and
        then sqrt(2) times its strict upper triangle, so pack is an isometry
        onto length n_e(n_e+1)/2 + n_o(n_o+1)/2, unpack returns an exactly
        symmetric M, and apply = pack . matvec . unpack is self-adjoint.  In
        sector s the matvec is X + X^T with X = H_s M_ss - Phi M_tt Phi^T / 2,
        t the other sector and Phi the edge field from t to s: two (n/2)^3
        products of the block Hamiltonian when the sectors are equal.  The
        diagonal is h_ii + h_jj at packed entry (i, j); the edge term has
        none, since it maps each sector onto the other.
        """
        n = self.block_dim
        k = self.edge_phi.shape[0]
        lead = parity[::n // k] * parity[0]  # labels on edge_phi's factor
        rest = parity[:n // k]
        if not np.array_equal(np.outer(lead, rest).ravel(), parity):
            raise ValueError("parity is not a product of edge-factor and rest labels")
        even, odd = lead > 0, lead < 0
        phi_eo = self.edge_phi[np.ix_(even, odd)]
        phi_oe = self.edge_phi[np.ix_(odd, even)]
        # sector s holds the states (lead even, rest s), then (lead odd, rest -s):
        # the edge field maps the second part of sector -s onto the first part
        # of sector s, and the first part onto the second
        grid = np.arange(n).reshape(k, -1)
        index = [np.concatenate([grid[np.ix_(even, rest == s)].ravel(),
                                 grid[np.ix_(odd, rest == -s)].ravel()])
                 for s in (1, -1)]
        heads = [even.sum() * (rest == -s).sum() for s in (1, -1)]
        hams = [self.hamiltonian[np.ix_(i, i)] for i in index]
        sizes = [i.size for i in index]

        def edge(m: np.ndarray, head: int) -> np.ndarray:
            """The edge field on the rows of m, which run over one sector
            whose first part has head states; the rows of the result run
            over the other sector."""
            cols = m.shape[1]
            return np.concatenate([
                (phi_eo @ m[head:].reshape(phi_eo.shape[1], -1)).reshape(-1, cols),
                (phi_oe @ m[:head].reshape(phi_oe.shape[1], -1)).reshape(-1, cols)])

        triangles = [_triangle(size) for size in sizes]
        split = sizes[0] * (sizes[0] + 1) // 2

        def blocks(vec: np.ndarray) -> list[np.ndarray]:
            out = []
            for part, (_, scatter), size in zip(np.split(vec, [split]), triangles, sizes):
                part = part.copy()
                part[size:] /= _SQRT2
                out.append(part[scatter].reshape(size, size))
            return out

        def pack_blocks(ms: list[np.ndarray]) -> np.ndarray:
            parts = []
            for m, (gather, _) in zip(ms, triangles):
                part = m.ravel()[gather]
                part[m.shape[0]:] *= _SQRT2
                parts.append(part)
            return np.concatenate(parts)

        def pack(m: np.ndarray) -> np.ndarray:
            return pack_blocks([m[np.ix_(i, i)] for i in index])

        def unpack(vec: np.ndarray) -> np.ndarray:
            m = np.zeros((n, n))
            for i, block in zip(index, blocks(vec)):
                m[np.ix_(i, i)] = block
            return m

        def apply(vec: np.ndarray) -> np.ndarray:
            ms = blocks(vec)
            out = []
            for h, mine, other, head in zip(hams, ms, ms[::-1], heads):
                x = h @ mine
                # Phi M_tt Phi^T, transposed once: M_tt is symmetric
                x -= 0.5 * edge(edge(other, head).T, head)
                out.append(x + x.T)
            return pack_blocks(out)

        h = np.diag(self.hamiltonian)
        diagonal = np.concatenate([np.add.outer(h[i], h[i]).ravel()[gather]
                                   for i, (gather, _) in zip(index, triangles)])
        return pack, unpack, apply, diagonal

    def dense(self) -> np.ndarray:
        n = self.block_dim
        edge = _edge_field(self.edge_phi, n)
        h = np.kron(self.hamiltonian, np.eye(n))
        h += np.kron(np.eye(n), self.hamiltonian)
        h -= np.kron(edge, edge)
        return h


def _triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Packing of a symmetric n x n matrix: the flat index of its diagonal,
    then of its strict upper triangle row by row; and the packed index of
    each entry, the lower triangle mirrored.  The packed strict triangle is
    scaled by sqrt(2), which makes the packing an isometry."""
    row, col = np.triu_indices(n, 1)
    diagonal = np.arange(n)
    gather = np.concatenate([diagonal * (n + 1), row * n + col])
    scatter = np.empty((n, n), dtype=np.intp)
    scatter[diagonal, diagonal] = diagonal
    scatter[row, col] = scatter[col, row] = np.arange(n, gather.size)
    return gather, scatter.ravel()


def _edge_field(edge_phi: np.ndarray, n: int) -> np.ndarray:
    """The edge field on the whole n-dimensional block basis."""
    return np.kron(edge_phi, np.eye(n // edge_phi.shape[0]))


def _enlarge(block: DmrgBlock, config: DmrgConfig) -> DmrgBlock:
    """Adjoin one bare site at the origin-facing edge; the enlarged basis is
    (new site) x (block).  Raises ValueError, before any matrix is built,
    when the enlarged block's superblock exceeds the dimension limit."""
    d = config.local_dim
    n = block.basis_size
    if (d * n) ** 2 > _SUPERBLOCK_LIMIT:
        raise ValueError(
            f"superblock dimension {(d * n) ** 2} exceeds limit "
            f"{_SUPERBLOCK_LIMIT}")
    h1, phi1 = oscillator_ops(config.site_frequency, d)
    ham = (np.kron(h1, np.eye(n))
           + np.kron(np.eye(d), block.hamiltonian)
           - np.kron(phi1, _edge_field(block.edge_phi, n)))
    parity = np.kron((-1) ** np.arange(d), block.parity)
    return DmrgBlock(length=block.length + 1, hamiltonian=ham, edge_phi=phi1,
                     parity=parity)


def _truncate(matrix: np.ndarray, parity: np.ndarray, kept_states: int):
    """The kept basis of a block from the superblock ground state M = M_ee +
    M_oo: the min(kept_states, n) dominant eigenvectors of rho_L = M M^T,
    which is block diagonal too, so each sector is diagonalised alone and
    its weights scaled by ||M_ss||^2.  A sector whose block of M is zero
    adds zero-weight states.

    Returns (basis, its parity, all weights descending, number kept): the
    basis columns are in the block basis, even states first.
    """
    weights, vectors, labels = [], [], []
    for sign in (1, -1):
        index = np.flatnonzero(parity == sign)
        block = matrix[np.ix_(index, index)]
        vec = np.zeros((matrix.shape[0], index.size))
        if np.any(block):
            # M is real, so rho and its eigenvectors are; weights come descending
            rho = reduced_density_left(BipartiteState(block))
            weights.append(rho.eigenvalues * np.vdot(block, block))
            vec[index] = rho.eigenvectors
        else:
            weights.append(np.zeros(index.size))
            vec[index] = np.eye(index.size)
        vectors.append(vec)
        labels.append(np.full(index.size, sign))
    order = np.argsort(-np.concatenate(weights), kind="stable")
    # a density matrix has no negative eigenvalue: those eigh returns are rounding
    w = np.clip(np.concatenate(weights)[order], 0.0, None)

    kept = min(kept_states, w.size)
    chosen = order[:kept]
    labels = np.concatenate(labels)
    chosen = chosen[np.argsort(labels[chosen] < 0, kind="stable")]  # even first
    return np.hstack(vectors)[:, chosen], labels[chosen], w, kept


def _prediction(rotated: np.ndarray, previous: np.ndarray | None) -> np.ndarray | None:
    """McCulloch's prediction of the next step's superblock ground state
    (arXiv:0804.2509), as a factor F of it, F F^T.

    rotated = U^T M is the ground state just solved with its block side in
    the kept basis U, and previous the ground state Lambda of the step
    before, in the basis of the block this step enlarged.  The next step's
    new block site is the mirror's edge site of M, and the mirror block
    behind that site is carried over to the other side through Lambda^-1,
    so the prediction is T Lambda^-1 T^T, T = U^T M with rows (site,
    kept).  F = T V |w|^-1/2 from Lambda = V diag(w) V^T, dropping the w at
    or below _PREDICTION_CUTOFF times the largest |w|.  None without a
    previous ground state.
    """
    if previous is None:
        return None
    kept, before = rotated.shape[0], previous.shape[0]
    t = rotated.reshape(kept, -1, before).transpose(1, 0, 2).reshape(-1, before)
    w, v = np.linalg.eigh(previous)
    w = np.abs(w)
    live = w > _PREDICTION_CUTOFF * w.max()
    return t @ (v[:, live] / np.sqrt(w[live]))


def dmrg_step(block: DmrgBlock, config: DmrgConfig) -> tuple[DmrgBlock, DmrgIterate]:
    """One growth step: adjoin a site to the block, solve the superblock of
    the enlarged block and its mirror, and truncate the enlarged block to the
    kept_states dominant density-matrix eigenstates.

    The solve starts from the block's prediction when it has one, and from
    the unit vector at the sector's smallest diagonal entry otherwise.
    Returns the truncated block, which carries the ground state and, when
    the block had one, the prediction for the next step, and the iterate
    record for the superblock just solved (chain length 2 x enlarged block
    length).  Raises EigensolverError when the ground state misses the
    residual contract on the full superblock.
    """
    enlarged = _enlarge(block, config)
    n = enlarged.basis_size
    superblock = Superblock(enlarged.hamiltonian, enlarged.edge_phi)
    # the superblock is reflection symmetric and conserves parity: its ground
    # state M = M^T pairs equal parities only, so solve on that sector alone
    pack, unpack, apply, diagonal = superblock.sector(enlarged.parity)
    warm = None
    if block.prediction is not None:
        # the n x n guess F F^T lives only until it is packed
        warm = pack(block.prediction @ block.prediction.T)
        warm /= np.linalg.norm(warm)
    energy, psi = numerics.smallest_eigenpair(
        apply, diagonal, tol=config.gs_tolerance, v0=warm)

    matrix = unpack(psi)
    residual = float(np.linalg.norm(superblock.matvec(matrix.ravel())
                                    - energy * matrix.ravel()))
    if not residual <= config.gs_tolerance:
        raise numerics.EigensolverError(
            f"full-superblock residual {residual:.3e} above tolerance "
            f"{config.gs_tolerance:.3e}", 1)

    basis, parity, w, kept = _truncate(matrix, enlarged.parity, config.kept_states)
    kept_ham = basis.T @ enlarged.hamiltonian @ basis
    rotated = basis.T @ matrix
    truncated = DmrgBlock(length=enlarged.length,
                          hamiltonian=0.5 * (kept_ham + kept_ham.T),
                          edge_phi=basis.T @ _edge_field(enlarged.edge_phi, n) @ basis,
                          parity=parity,
                          ground_state=rotated @ basis,
                          prediction=_prediction(rotated, block.ground_state))
    iterate = DmrgIterate(chain_length=2 * enlarged.length,
                          ground_energy=float(energy),
                          half_chain_entropy=entropy_from_probs(w),
                          truncation_weight=float(w[kept:].sum()),
                          kept=kept)
    return truncated, iterate


def run(config: DmrgConfig) -> list[DmrgIterate]:
    """Grow the chain from the empty block until the superblock reaches
    target_length, recording one iterate per step; each step adds two
    sites."""
    block = DmrgBlock(length=0, hamiltonian=np.zeros((1, 1)),
                      edge_phi=np.zeros((1, 1)), parity=np.ones(1, dtype=int),
                      ground_state=np.ones((1, 1)))
    iterates: list[DmrgIterate] = []
    for _ in range(config.target_length // 2):
        block, iterate = dmrg_step(block, config)
        iterates.append(iterate)
    return iterates
