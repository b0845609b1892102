"""Network graphs, combination matrices and consensus-matrix triples.

All matrices here are K x K and act blockwise on K x M agent stacks;
the Kronecker-expanded KM x KM versions are never materialized.

Every matrix this module returns is a dense ndarray, so callers can index,
compare and measure it like any array.  Where the graph is sparse, the
work goes through CSR copies instead: the squares A^2 and (I - A)^2 of
the table are CSR-by-dense products (O(nnz K) rather than O(K^3)), and
each ``ConsensusTriple`` hands the engine a CSR copy of every matrix whose
share of nonzeros is below ``CSR_DENSITY`` (``A_bar_op``, ``B_sq_op``,
``C_op``).  Every row of the table is a polynomial in one symmetric base
matrix (A, or the Laplacian for DLM), so ``table1_matrices`` also applies
the row's formulas (``table1_spectrum``) to the base's eigenvalues, given
by the caller or from one eigendecomposition, and ``validate_assumptions``
reads the triple's joint spectrum from them.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "ConsensusTriple",
    "SpectralReport",
    "AlgorithmId",
    "build_graph",
    "metropolis_matrix",
    "shift_positive",
    "laplacian_matrix",
    "table1_matrices",
    "table1_spectrum",
    "validate_assumptions",
]

# Eigenvalue of B^2 counts as zero below this (relative) threshold.
NULLSPACE_TOL = 1e-10
# Symmetric eigensolvers return tiny negative noise; PSD means >= -PSD_TOL.
PSD_TOL = 1e-10
# Largest |X - X^T| entry a symmetric matrix may have.
SYMMETRY_TOL = 1e-12
# A matrix with a smaller share of nonzero entries is multiplied through
# a CSR copy.  On a 2-vCPU Xeon with one BLAS thread, a product with a
# K x 30 stack costs 15 us through CSR against 4 us dense at K=20 (85%
# nonzero), and 0.6 ms against 15 ms at K=2000 (0.6% nonzero).
CSR_DENSITY = 0.1


class AlgorithmId(str, Enum):
    """Named rows of the consensus-matrix table."""

    EXACT_DIFFUSION = "ExactDiffusion"
    NIDS = "NIDS"
    AUG_DGM = "AugDGM"
    ATC_TRACKING = "ATCTracking"
    DIGING = "DIGing"
    EXTRA = "EXTRA"
    DLM = "DLM"

    @property
    def on_laplacian(self):
        """Whether the row is built on the Laplacian (DLM: C = c mu L)."""
        return self is AlgorithmId.DLM


@dataclass(frozen=True)
class Graph:
    """Static undirected network of K agents.

    Edges are stored 0-based without self-loops; self-weights arise from
    the Metropolis rule, not from stored edges.
    """

    K: int
    edges: frozenset

    def __post_init__(self):
        if self.K < 2:
            raise ValueError(f"need at least 2 agents, got K={self.K}")
        for (s, k) in self.edges:
            if s == k:
                raise ValueError(f"self-loop stored on agent {s}")
            if not (0 <= s < self.K and 0 <= k < self.K):
                raise ValueError(f"edge ({s},{k}) out of range for K={self.K}")

    def degrees(self):
        d = np.zeros(self.K, dtype=int)
        for (s, k) in self.edges:
            d[s] += 1
            d[k] += 1
        return d

    def adjacency(self):
        adj = np.zeros((self.K, self.K))
        for (s, k) in self.edges:
            adj[s, k] = adj[k, s] = 1.0
        return adj

    def is_connected(self):
        return _is_connected(self.K, self.edges)


@dataclass(frozen=True)
class ConsensusTriple:
    """The (A_bar, B^2, C) matrices parameterizing the primal-dual engine.

    A_bar is doubly stochastic symmetric; B_sq and C are symmetric PSD
    consensus matrices annihilating the all-ones vector.

    ``spectrum``, set by :func:`table1_matrices`, holds the eigenvalues of
    (A_bar, B_sq, C) as three length-K arrays paired in the matrices'
    common eigenbasis; it is None for a hand-built triple, whose matrices
    need not commute.  The matrices are not to be modified after
    construction: ``spectrum`` and the cached properties describe them as
    built.
    """

    A_bar: np.ndarray
    B_sq: np.ndarray
    C: np.ndarray
    spectrum: tuple = None

    @property
    def K(self):
        return self.A_bar.shape[0]

    @cached_property
    def C_is_zero(self):
        """Whether C is the zero matrix, so that the engine can skip the
        product C W."""
        return not self.C.any()

    # The matrices as the engine applies them, decided once per triple.
    @cached_property
    def A_bar_op(self):
        return _combine_operator(self.A_bar)

    @cached_property
    def B_sq_op(self):
        return _combine_operator(self.B_sq)

    @cached_property
    def C_op(self):
        return _combine_operator(self.C)


@dataclass(frozen=True)
class SpectralReport:
    """Spectral quantities and assumption checks for a consensus triple."""

    sigma_max_C: float
    sigma_min_Bsq: float
    lambda2_A: float
    assumption2_ok: bool
    assumption4_ok: bool
    diagnostics: dict = field(default_factory=dict)


def _edge(s, k):
    return (s, k) if s < k else (k, s)


def _combine_operator(X):
    """A CSR copy of X if its share of nonzeros is below CSR_DENSITY,
    else X itself; either one multiplies a dense stack to an ndarray."""
    if np.count_nonzero(X) < CSR_DENSITY * X.size:
        return sp.csr_matrix(X)
    return X


def _is_symmetric(X):
    """max |X - X^T| <= SYMMETRY_TOL, a NaN failing.  Compared tile by
    tile above the diagonal, so that no K x K temporary is built."""
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        return False
    K, tile = X.shape[0], 256
    for i in range(0, K, tile):
        for j in range(i, K, tile):
            diff = X[i:i + tile, j:j + tile] - X[j:j + tile, i:i + tile].T
            if not (np.abs(diff) <= SYMMETRY_TOL).all():
                return False
    return True


def _is_connected(K, edges):
    nbrs = [[] for _ in range(K)]
    for (s, k) in edges:
        nbrs[s].append(k)
        nbrs[k].append(s)
    seen = np.zeros(K, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in nbrs[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return bool(seen.all())


def _prufer_tree(K, rng):
    """Decode a uniformly random Prufer sequence into a spanning tree."""
    if K == 2:
        return {(0, 1)}
    import heapq

    seq = rng.integers(0, K, size=K - 2)
    degree = np.ones(K, dtype=int)
    for v in seq:
        degree[v] += 1
    edges = set()
    leaves = [v for v in range(K) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.add(_edge(leaf, int(v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    # Exactly two leaves remain; they close the tree.
    edges.add(_edge(heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def build_graph(kind, K, seed=0, extra_edge_prob=0.0):
    """Build a connected undirected graph on K agents.

    Parameters
    ----------
    kind : {"ring", "grid", "complete", "random_connected"}
    K : int
        Agent count, at least 2.
    seed : int
        Seed for the random_connected generator (ignored otherwise).
    extra_edge_prob : float
        For random_connected: probability of each non-tree edge, in [0,1].
    """
    if K < 2:
        raise ValueError(f"need at least 2 agents, got K={K}")
    if not (0.0 <= extra_edge_prob <= 1.0):
        raise ValueError(f"extra_edge_prob must be in [0,1], got {extra_edge_prob}")

    if kind == "complete":
        edges = {_edge(s, k) for s in range(K) for k in range(s + 1, K)}
    elif kind == "ring":
        edges = {_edge(k, (k + 1) % K) for k in range(K)}
    elif kind == "grid":
        # Row-major partial grid: always connected for any K.
        rows = int(np.floor(np.sqrt(K)))
        cols = int(np.ceil(K / rows))
        edges = set()
        for v in range(K):
            r, c = divmod(v, cols)
            if c + 1 < cols and v + 1 < K:
                edges.add(_edge(v, v + 1))
            if v + cols < K:
                edges.add(_edge(v, v + cols))
    elif kind == "random_connected":
        rng = np.random.default_rng(seed)
        tree = _prufer_tree(K, rng)
        edges = set(tree)
        # Each non-tree pair (s, k), s < k, in row-major order, takes one
        # uniform draw and becomes an edge if it falls below the
        # probability.  A row's draws come from one call, so that the
        # stream, and the graph of every seed, is that of one draw per pair.
        later_tree_nbrs = [[] for _ in range(K)]
        for (s, k) in tree:
            later_tree_nbrs[s].append(k)
        for s in range(K - 1):
            free = np.ones(K - s - 1, dtype=bool)
            free[np.asarray(later_tree_nbrs[s], dtype=int) - (s + 1)] = False
            ks = np.flatnonzero(free) + (s + 1)
            hits = ks[rng.random(ks.size) < extra_edge_prob]
            edges.update((s, int(k)) for k in hits)
    else:
        raise ValueError(f"unknown graph kind: {kind!r}")

    g = Graph(K=K, edges=frozenset(edges))
    assert g.is_connected()
    return g


def metropolis_matrix(g):
    """Symmetric doubly stochastic combination matrix by the Metropolis rule.

    Edge weight 1/(1 + max(d_s, d_k)); the diagonal absorbs the remainder
    so that rows sum to one exactly.
    """
    if not g.is_connected():
        raise ValueError("graph must be connected")
    d = g.degrees()
    A = np.zeros((g.K, g.K))
    for (s, k) in g.edges:
        w = 1.0 / (1.0 + max(d[s], d[k]))
        A[s, k] = A[k, s] = w
    np.fill_diagonal(A, 1.0 - A.sum(axis=1))
    return A


def shift_positive(A):
    """Map a combination matrix to 0.5(I + A), pushing eigenvalues into [0,1]."""
    return 0.5 * (np.eye(A.shape[0]) + A)


def laplacian_matrix(g):
    """Graph Laplacian D - Adjacency; PSD with L @ ones = 0."""
    if not g.is_connected():
        raise ValueError("graph must be connected")
    adj = g.adjacency()
    return np.diag(adj.sum(axis=1)) - adj


def _table1_row(row, X, I, prod, c, mu):
    """One row of the table as a polynomial in the base matrix X (A, or
    the Laplacian for DLM): matrices for X = the base, I = the identity
    and ``prod`` = the matrix product, eigenvalues for X = the base's
    eigenvalues, I = ones and ``prod`` = the elementwise product."""
    if row is AlgorithmId.EXACT_DIFFUSION:
        return 0.5 * (I + X), 0.5 * (I - X), _zero(I)
    if row is AlgorithmId.NIDS:
        return I - c * (I - X), c * (I - X), _zero(I)
    if row is AlgorithmId.AUG_DGM:
        D = I - X
        return prod(X, X), prod(D, D), _zero(I)
    if row is AlgorithmId.ATC_TRACKING:
        D = I - X
        return X, prod(D, D), D
    if row is AlgorithmId.DIGING:
        D = I - X
        return I, prod(D, D), I - prod(X, X)
    if row is AlgorithmId.EXTRA:
        return I, 0.5 * (I - X), 0.5 * (I - X)
    # DLM
    return I, c * mu * X, c * mu * X


def _zero(I):
    # np.zeros, unlike np.zeros_like, leaves the pages of a large zero
    # matrix untouched (calloc), so that a zero C costs no resident memory.
    return np.zeros(np.shape(I))


def _matrix_product(P, Q):
    return _combine_operator(P) @ Q


def table1_spectrum(row, eigvals, c=None, mu=None):
    """Eigenvalues of a row's (A_bar, B^2, C), paired, from the eigenvalues
    ``eigvals`` of its base (A, or the Laplacian for DLM)."""
    return _table1_row(AlgorithmId(row), eigvals,
                       np.ones(len(eigvals)), np.multiply, c, mu)


def table1_matrices(row, A, c=None, mu=None, L=None, eigvals=None):
    """Consensus triple (A_bar, B^2, C) for a named algorithm.

    Parameters
    ----------
    row : AlgorithmId or str
    A : ndarray
        Symmetric doubly stochastic combination matrix.
    c : float, optional
        Positive scale, required by NIDS and DLM.
    mu : float, optional
        Step-size, required by DLM.
    L : ndarray, optional
        Graph Laplacian, required by DLM.
    eigvals : ndarray, optional
        Eigenvalues of the row's base (A, or L for DLM); computed if omitted.
    """
    row = AlgorithmId(row)
    if row in (AlgorithmId.NIDS, AlgorithmId.DLM) and (c is None or c <= 0):
        raise ValueError(f"{row.value} requires c > 0")
    if row.on_laplacian:
        if mu is None or mu <= 0 or L is None:
            raise ValueError("DLM requires mu > 0 and a Laplacian")
        base = L
    else:
        base = A
    K = base.shape[0]

    matrices = _table1_row(row, base, np.eye(K), _matrix_product, c, mu)
    spectrum = None
    if _is_symmetric(base):
        if eigvals is None:
            eigvals = np.linalg.eigvalsh(base)
        spectrum = table1_spectrum(row, eigvals, c, mu)
    return ConsensusTriple(*matrices, spectrum=spectrum)


def validate_assumptions(t, psd_tol=PSD_TOL):
    """Check the spectral conditions required for linear convergence.

    The primary condition requires I - B^2 - A_bar^2 to be PSD together
    with eigenvalues of C in [0, 2); the alternate (non-ATC) condition
    requires C - B^2 PSD with eigenvalues of C in [0, 1).  Strict upper
    bounds are tested with a margin of ``psd_tol``.

    A triple from :func:`table1_matrices` is checked on its ``spectrum``:
    its matrices share one eigenbasis, so both conditions hold pair by
    pair of eigenvalues.  A hand-built triple takes five eigendecompositions.
    """
    for name in ("A_bar", "B_sq", "C"):
        if not _is_symmetric(getattr(t, name)):
            raise ValueError(f"{name} is not symmetric")

    if t.spectrum is not None:
        eig_A, eig_Bsq, eig_C = t.spectrum
        gap = 1.0 - eig_Bsq - eig_A * eig_A
        cb_gap = eig_C - eig_Bsq
    else:
        eig_C = np.linalg.eigvalsh(t.C)
        eig_Bsq = np.linalg.eigvalsh(t.B_sq)
        eig_A = np.linalg.eigvalsh(t.A_bar)
        gap = np.linalg.eigvalsh(np.eye(t.K) - t.B_sq - t.A_bar @ t.A_bar)
        cb_gap = np.linalg.eigvalsh(t.C - t.B_sq)
    eig_C, eig_Bsq, eig_A, gap, cb_gap = (
        np.sort(e) for e in (eig_C, eig_Bsq, eig_A, gap, cb_gap))

    sigma_max_C = float(eig_C[-1])
    sigma_max_Bsq = float(eig_Bsq[-1])
    nonzero = eig_Bsq[np.abs(eig_Bsq) > NULLSPACE_TOL * max(1.0, sigma_max_Bsq)]
    sigma_min_Bsq = float(nonzero[0]) if nonzero.size else 0.0
    lambda2_A = float(eig_A[-2]) if t.K >= 2 else float("nan")

    c_psd = eig_C[0] >= -psd_tol
    a2_gap_ok = gap[0] >= -psd_tol
    a2_c_ok = c_psd and sigma_max_C <= 2.0 - psd_tol
    a4_gap_ok = cb_gap[0] >= -psd_tol
    a4_c_ok = c_psd and sigma_max_C <= 1.0 - psd_tol

    return SpectralReport(
        sigma_max_C=sigma_max_C,
        sigma_min_Bsq=sigma_min_Bsq,
        lambda2_A=lambda2_A,
        assumption2_ok=bool(a2_gap_ok and a2_c_ok),
        assumption4_ok=bool(a4_gap_ok and a4_c_ok),
        diagnostics={
            "eig_C": eig_C,
            "eig_Bsq": eig_Bsq,
            "eig_A_bar": eig_A,
            "min_eig_I_minus_Bsq_minus_Abar_sq": float(gap[0]),
            "min_eig_C_minus_Bsq": float(cb_gap[0]),
            "sigma_max_Bsq": sigma_max_Bsq,
        },
    )
