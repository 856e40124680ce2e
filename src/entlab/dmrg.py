"""Infinite-system density-matrix renormalization group for the harmonic
chain with truncated local Fock spaces.

A run starts from the empty block.  Each step adjoins one site at the
block's origin-facing edge, solves the enlarged block and its mirror image as
a superblock, and truncates the block to its dominant Schmidt vectors.  No
free sites are inserted between block and mirror.  Each solve after the
first starts from McCulloch's prediction of its ground state from the two
steps before it (arXiv:0804.2509; White, PRL 77, 3633, 1996).

H = sum pi^2/2 + phi^T V phi/2 is even under phi -> -phi, so every block
basis state carries a Z2 parity, the block Hamiltonian conserves it and the
edge field flips it (White, PRB 48, 10345, 1993).  The solve and the
truncation work sector by sector.  The ground state M is symmetric, so its
eigenpairs are the Schmidt vectors and signed Schmidt values of the cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .harmonic_chain import oscillator_ops
from .quantum_state import entropy_from_probs
from .quantum_state import reduced_density_left  # bench/spans.py wraps it until ROADMAP item 1

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
    """The empty block, or a block of `length` sites truncated to its kept
    basis.

    edge_phi is the field operator of the origin-facing boundary site over
    the whole basis.  All matrices are real.  parity labels each basis
    state +1 or -1 under phi -> -phi; a truncated block lists its states in
    descending weight.  schmidt_values are the signed Schmidt values of the
    kept states in the superblock ground state the block was cut from,
    which is diag(schmidt_values) in the kept basis; run's empty block has
    [1.0].  prediction, in a truncated block, is a factor F of the next
    step's predicted ground state F F^T, over the enlarged basis
    (new site) x (this block); see _prediction.
    """

    length: int
    hamiltonian: np.ndarray
    edge_phi: np.ndarray
    parity: np.ndarray
    schmidt_values: np.ndarray = field(compare=False)
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
    """An enlarged block, (bare site) x (the block it was built from), and
    its mirror image, coupled across the origin by -phi_edge phi'_edge.

    edge_phi is the bare site's field, so the coupling kron(edge_phi, I) is
    applied on the site index of each side (Schollwoeck, RMP 77, 259, 2005)
    and the matvec on the block x mirror space costs the two n^3 products
    of the block Hamiltonian.  parity labels the enlarged basis +-1.
    """

    hamiltonian: np.ndarray
    edge_phi: np.ndarray
    parity: np.ndarray

    @property
    def block_dim(self) -> int:
        return self.hamiltonian.shape[0]

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        n = self.block_dim
        m = vec.reshape(n, n)
        out = self.hamiltonian @ m
        out += m @ self.hamiltonian
        # (phi x I) M (phi x I)^T: phi on the rows' site index, then the columns'
        rows = _on_site(self.edge_phi, m).reshape(n, self.edge_phi.shape[0], -1)
        out -= np.matmul(self.edge_phi, rows).reshape(n, n)
        return out.ravel()

    def sector(self):
        """The operator on the ground state's sector, in orthonormal packed
        coordinates: the functions (pack, unpack, apply) and apply's
        diagonal.

        parity must be the Kronecker product of labels on edge_phi's factor
        and on the rest of the basis, or ValueError is raised; the block
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
        n, parity = self.block_dim, self.parity
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
            return np.concatenate([_on_site(phi_eo, m[head:]), _on_site(phi_oe, m[:head])])

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
        edge = np.kron(self.edge_phi, np.eye(n // self.edge_phi.shape[0]))
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


def _on_site(phi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(phi x I) m: phi on the leading tensor factor of m's rows."""
    return (phi @ m.reshape(phi.shape[1], -1)).reshape(-1, m.shape[1])


def _enlarge(block: DmrgBlock, config: DmrgConfig) -> Superblock:
    """The superblock of the block with one bare site adjoined at its
    origin-facing edge; the enlarged basis is (new site) x (block).
    Raises ValueError, before any matrix is built, when the superblock
    exceeds the limit."""
    d = config.local_dim
    n = block.basis_size
    if (d * n) ** 2 > _SUPERBLOCK_LIMIT:
        raise ValueError(
            f"local_dim {d} x {n} block states: superblock dimension "
            f"{(d * n) ** 2} exceeds limit {_SUPERBLOCK_LIMIT}")
    h1, phi1 = oscillator_ops(config.site_frequency, d)
    ham = (np.kron(h1, np.eye(n))
           + np.kron(np.eye(d), block.hamiltonian)
           - np.kron(phi1, block.edge_phi))
    return Superblock(ham, phi1, np.kron((-1) ** np.arange(d), block.parity))


def _truncate(matrix: np.ndarray, parity: np.ndarray, kept_states: int):
    """The kept basis of a block from the symmetric superblock ground state
    M = M_ee + M_oo: the min(kept_states, n) eigenvectors of M with the
    largest weights lambda^2, the eigenvalues of rho_L = M^2.  Each sector
    block M_ss is diagonalised alone; a zero block gives zero eigenvalues.

    Returns (basis, its parity, every eigenvalue lambda in descending
    lambda^2, number kept): the basis columns are in the block basis, in
    that order.
    """
    values, vectors, labels = [], [], []
    for sign in (1, -1):
        index = np.flatnonzero(parity == sign)
        lam, sector = np.linalg.eigh(matrix[np.ix_(index, index)])
        vec = np.zeros((matrix.shape[0], index.size))
        vec[index] = sector
        values.append(lam)
        vectors.append(vec)
        labels.append(np.full(index.size, sign))
    lam = np.concatenate(values)
    order = np.argsort(-lam ** 2, kind="stable")

    kept = min(kept_states, lam.size)
    chosen = order[:kept]
    return np.hstack(vectors)[:, chosen], np.concatenate(labels)[chosen], lam[order], kept


def _prediction(rotated: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """McCulloch's prediction of the next step's superblock ground state
    (arXiv:0804.2509), as a factor F of it, F F^T.

    rotated = U^T M is the ground state just solved with its block side in
    the kept basis U, and previous the Schmidt values lambda of the step
    before, whose ground state is diag(lambda) in the basis of the block
    this step enlarged.  The next step's new block site is the mirror's edge
    site of M, and the mirror block behind that site is carried over to the
    other side through diag(lambda)^-1, so the prediction is
    T diag(lambda)^-1 T^T, T = U^T M with rows (site, kept).
    F = T |lambda|^-1/2 columnwise, dropping the lambda at or below
    _PREDICTION_CUTOFF times the largest |lambda|.
    """
    kept, before = rotated.shape[0], previous.shape[0]
    t = rotated.reshape(kept, -1, before).transpose(1, 0, 2).reshape(-1, before)
    w = np.abs(previous)
    live = w > _PREDICTION_CUTOFF * w.max()
    return t[:, live] / np.sqrt(w[live])


def dmrg_step(block: DmrgBlock, config: DmrgConfig) -> tuple[DmrgBlock, DmrgIterate]:
    """One growth step: adjoin a site to the block, solve the superblock of
    the enlarged block and its mirror, and truncate the enlarged block to its
    kept_states dominant Schmidt vectors.

    The solve starts from the block's prediction when it has one, and from
    the unit vector at the sector's smallest diagonal entry otherwise.
    Returns the truncated block, which carries the kept Schmidt values and
    the prediction for the next step, and the iterate record for the
    superblock just solved (chain length 2 x enlarged block length).
    Raises EigensolverError when the ground state misses the residual
    contract on the full superblock.
    """
    superblock = _enlarge(block, config)
    # the superblock is reflection symmetric and conserves parity: its ground
    # state M = M^T pairs equal parities only, so solve on that sector alone
    pack, unpack, apply, diagonal = superblock.sector()
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

    basis, parity, lam, kept = _truncate(matrix, superblock.parity, config.kept_states)
    w = lam ** 2
    kept_ham = basis.T @ superblock.hamiltonian @ basis
    # U^T M = Lambda U^T: the kept columns of U are eigenvectors of M
    rotated = lam[:kept, None] * basis.T
    truncated = DmrgBlock(length=block.length + 1,
                          hamiltonian=0.5 * (kept_ham + kept_ham.T),
                          edge_phi=basis.T @ _on_site(superblock.edge_phi, basis),
                          parity=parity,
                          schmidt_values=lam[:kept],
                          prediction=_prediction(rotated, block.schmidt_values))
    iterate = DmrgIterate(chain_length=2 * truncated.length,
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
                      schmidt_values=np.ones(1))
    iterates: list[DmrgIterate] = []
    for _ in range(config.target_length // 2):
        block, iterate = dmrg_step(block, config)
        iterates.append(iterate)
    return iterates
