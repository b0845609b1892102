"""Network graphs, combination matrices and consensus-matrix triples.

All matrices here are K x K and act blockwise on K x M agent stacks;
the Kronecker-expanded KM x KM versions are never materialized.

Every matrix is built once, in the form the engine multiplies: a
canonical CSR matrix (:class:`CSRMatrix`: sorted indices, no stored
zeros) when its share of nonzeros is below ``CSR_DENSITY``, else a dense
ndarray.  A graph's A, 0.5 (I + A) and L have K + 2E nonzeros each, so
the edge count decides their form before any is built; a sparse graph's
matrices are built from its edge list, a dense graph's as dense arrays.
A row of the table takes the form of its base: a dense base gives dense
matrices, a CSR base CSR sums and CSR-by-CSR products (O(nnz) rather
than O(K^3)), each densified only if its own nonzeros reach the
threshold.  Either form multiplies a dense K x M stack to an ndarray,
and reports its memory as ``nbytes``.

Every row of the table is a polynomial in one symmetric base matrix (A,
or the Laplacian for DLM) that has the ones vector as an eigenvector.
Every scalar ``validate_assumptions`` reports is a monotone or concave
function of the base's eigenvalues, so it is decided by three of them
(``deciding_eigenvalues``): the consensus eigenvalue, of the ones vector,
and the lowest and highest on its complement.  ``table1_matrices``
applies the row's formulas (``table1_spectrum``) to these three, given by
the caller or solved once, and ``validate_assumptions`` reads the triple's
three paired values and nothing else: a base the three do not decide is
rejected when its triple is built.  A dense base is solved by
``eigvalsh``; a CSR one by Lanczos, falling back to ``eigvalsh`` on a
dense copy when Lanczos does not converge within its cap or fails its
residual check.
"""

import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

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
    "deciding_eigenvalues",
    "validate_assumptions",
]

# B^2's least eigenvalue off the ones vector counts as zero below this
# (relative) threshold.
NULLSPACE_TOL = 1e-10
# Eigenvalues carry rounding noise; PSD means >= -PSD_TOL.
PSD_TOL = 1e-10
# Largest |X - X^T| entry a symmetric matrix may have.
SYMMETRY_TOL = 1e-12
# Largest |X 1 - q 1| entry, q = 1'X1/K, for the ones vector to count as
# an eigenvector of X.
EIGENVECTOR_TOL = 1e-12
# A matrix with a smaller share of nonzero entries is built and
# multiplied as CSR.  On a 2-vCPU Xeon with one BLAS thread, a product
# with a K x 30 stack costs 15 us through CSR against 4 us dense at K=20
# (85% nonzero), and 0.6 ms against 15 ms at K=2000 (0.6% nonzero).
CSR_DENSITY = 0.1
# Entries per block of dense rows in which a CSR matrix's row sums are
# taken (:func:`_dense_row_sums`): 2 MB of float64.
ROW_SUM_BLOCK = 1 << 18
# Lanczos on a sparse base: the Krylov dimension; the restarts are capped
# at K // LANCZOS_NCV, about K products with the base (in exact
# arithmetic, K steps span the whole space).  A residual |X v - lambda v|
# above LANCZOS_RESIDUAL_TOL times the bound on |X|'s spectrum sends the
# base to eigvalsh: it bounds each eigenvalue's error.
LANCZOS_NCV = 40
LANCZOS_RESIDUAL_TOL = 1e-13


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

    Edges are stored 0-based, each in one orientation, without
    self-loops; self-weights arise from the Metropolis rule, not from
    stored edges.
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
            if (k, s) in self.edges:
                raise ValueError(f"edge ({s},{k}) stored in both orientations")

    @cached_property
    def edge_index(self):
        """The edges as an E x 2 integer array, one (s, k) row each."""
        return np.array(list(self.edges), dtype=np.intp).reshape(-1, 2)

    def degrees(self):
        return np.bincount(self.edge_index.ravel(), minlength=self.K)

    def adjacency(self):
        adj = np.zeros((self.K, self.K))
        s, k = self.edge_index.T
        adj[s, k] = adj[k, s] = 1.0
        return adj

    def is_connected(self):
        return self._connected

    @cached_property
    def _connected(self):
        # Once per graph: build_graph, metropolis_matrix and
        # laplacian_matrix each ask.
        return _is_connected(self.K, self.edges)


@dataclass(frozen=True)
class ConsensusTriple:
    """The (A_bar, B^2, C) matrices parameterizing the primal-dual engine.

    A_bar is doubly stochastic symmetric; B_sq and C are symmetric PSD
    consensus matrices annihilating the all-ones vector.

    ``spectrum``, set by :func:`table1_matrices`, holds the eigenvalues of
    (A_bar, B_sq, C) as three arrays paired in the matrices' common
    eigenbasis, each with three entries: at the consensus eigenvalue of the
    row's base, then at its lowest and its highest eigenvalue on the
    complement of the ones vector (:func:`deciding_eigenvalues`).  A
    hand-built triple, whose matrices need not commute, has none: the
    engine runs it, and :func:`validate_assumptions` rejects it.  The
    matrices are not to be modified after construction: ``spectrum`` and
    the cached properties describe them as built.
    """

    A_bar: object  # ndarray or CSRMatrix, each matrix in either form
    B_sq: object
    C: object
    spectrum: tuple = None

    @property
    def K(self):
        return self.A_bar.shape[0]

    @cached_property
    def C_is_zero(self):
        """Whether C is the zero matrix, so that the engine can skip the
        product C W."""
        C = self.C
        return not (C.data if sp.issparse(C) else C).any()


class CSRMatrix(sp.csr_matrix):
    """A CSR matrix that reports its memory as ``nbytes``, as an ndarray
    does, so that either form of a matrix is measured alike."""

    @property
    def nbytes(self):
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


@dataclass(frozen=True)
class SpectralReport:
    """Spectral quantities and assumption checks for a consensus triple."""

    sigma_max_C: float
    sigma_min_Bsq: float
    lambda2_A: float
    assumption2_ok: bool
    assumption4_ok: bool


def _edge(s, k):
    return (s, k) if s < k else (k, s)


def _engine_form(X):
    """A copy of the sparse matrix X as the engine multiplies it:
    canonical CSR (sorted indices, no stored zeros) if its share of
    nonzeros is below CSR_DENSITY, else a dense ndarray."""
    X = CSRMatrix(X, copy=True)
    X.eliminate_zeros()
    if X.nnz >= CSR_DENSITY * X.shape[0] * X.shape[1]:
        return X.toarray()
    X.sort_indices()
    return X


def _sparse_graph(g):
    """Whether g's A, 0.5 (I + A) and L, with K + 2E nonzeros each (every
    diagonal entry is positive), are built as CSR."""
    return g.K + 2 * len(g.edges) < CSR_DENSITY * g.K * g.K


def _edge_matrix(g, weights, diagonal):
    """The symmetric CSR matrix with ``weights`` on g's edges, in
    ``edge_index`` order, and ``diagonal`` on the diagonal."""
    s, k = g.edge_index.T
    i = np.arange(g.K)
    return _engine_form(sp.csr_matrix(
        (np.concatenate([weights, weights, diagonal]),
         (np.concatenate([s, k, i]), np.concatenate([k, s, i]))),
        shape=(g.K, g.K)))


def _dense_row_sums(X):
    """The sparse X's row sums, each taken as numpy sums the dense row
    (pairwise, its zeros in place), so that they equal a dense matrix's
    bit for bit; a block of ROW_SUM_BLOCK entries at a time, in O(K^2)
    time but never K x K memory.  A sum over the stored entries alone
    moves 171 of the 2000 Metropolis diagonals of the benchmark graph by
    an ulp."""
    rows = max(1, ROW_SUM_BLOCK // X.shape[1])
    return np.concatenate([X[i:i + rows].toarray().sum(axis=1)
                           for i in range(0, X.shape[0], rows)])


def _is_symmetric(X):
    """max |X - X^T| <= SYMMETRY_TOL, a NaN failing.  A dense X is compared
    tile by tile above the diagonal, so that no K x K temporary is built."""
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        return False
    if sp.issparse(X):
        return bool((abs(X - X.T).data <= SYMMETRY_TOL).all())
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
    s, k = g.edge_index.T
    w = 1.0 / (1.0 + np.maximum(d[s], d[k]))
    if _sparse_graph(g):
        off = _edge_matrix(g, w, np.zeros(g.K))
        return _edge_matrix(g, w, 1.0 - _dense_row_sums(off))
    A = np.zeros((g.K, g.K))
    A[s, k] = A[k, s] = w
    np.fill_diagonal(A, 1.0 - A.sum(axis=1))
    return A


def shift_positive(A):
    """Map a combination matrix to 0.5(I + A), pushing eigenvalues into [0,1]."""
    if sp.issparse(A):
        return _engine_form(0.5 * (sp.identity(A.shape[0], format="csr") + A))
    return 0.5 * (np.eye(A.shape[0]) + A)


def laplacian_matrix(g):
    """Graph Laplacian D - Adjacency; PSD with L @ ones = 0."""
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if _sparse_graph(g):
        return _edge_matrix(g, np.full(len(g.edges), -1.0),
                            g.degrees().astype(float))
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
    # An empty CSR matrix beside a CSR identity; else np.zeros, which
    # unlike np.zeros_like leaves the pages of a large zero matrix
    # untouched (calloc), so that a zero C costs no resident memory.
    return CSRMatrix(I.shape) if sp.issparse(I) else np.zeros(np.shape(I))


def table1_spectrum(row, eigvals, c=None, mu=None):
    """Eigenvalues of a row's (A_bar, B^2, C), paired, from the eigenvalues
    ``eigvals`` of its base (A, or the Laplacian for DLM)."""
    return _table1_row(AlgorithmId(row), eigvals,
                       np.ones(len(eigvals)), np.multiply, c, mu)


def deciding_eigenvalues(X):
    """The three eigenvalues of a symmetric base X that decide every scalar
    of its Table I rows, as an array (consensus, lowest, highest): the
    eigenvalue of the ones vector, then the extremes of the spectrum on its
    complement.  Raises ValueError if X is not symmetric or the ones vector
    is not an eigenvector (its rows do not sum alike).

    A CSR base's come from Lanczos (:func:`_lanczos_eigenvalues`); a
    dense base's, or a CSR one's where Lanczos fails, from one
    ``eigvalsh``, of a dense copy for a CSR base.
    """
    if not _is_symmetric(X):
        raise ValueError("the base is not symmetric")
    K = X.shape[0]
    row_sums = np.asarray(X.sum(axis=1)).ravel()
    q = row_sums.mean()
    if not np.abs(row_sums - q).max() <= EIGENVECTOR_TOL * max(1.0, abs(q)):
        raise ValueError("the base's rows do not sum alike: the ones vector "
                         "is not an eigenvector")
    if sp.issparse(X):
        # A base no larger than the Krylov space gains nothing from Lanczos.
        eig = _lanczos_eigenvalues(X, q) if K > LANCZOS_NCV else None
        if eig is not None:
            return eig
        X = X.toarray()
    eig = np.linalg.eigvalsh(X)  # ascending
    i = int(np.argmin(np.abs(eig - q)))
    return np.array([eig[i], eig[1] if i == 0 else eig[0],
                     eig[-2] if i == K - 1 else eig[-1]])


def _lanczos_eigenvalues(X, q):
    """(q, lowest, highest) for the sparse symmetric X whose ones vector has
    eigenvalue q, by implicitly restarted Lanczos (ARPACK); None if it does
    not converge within its cap or an eigenpair fails its residual check.

    A rank-one shift moves the consensus eigenvalue above the spectrum, so
    the two highest eigenvalues of the shifted matrix are it and the
    highest on the complement, and the lowest is the lowest there.  The
    start vector is fixed, so the result depends only on X.
    """
    K = X.shape[0]
    bound = abs(X).sum(axis=1).max()  # >= |every eigenvalue|
    shift = 3.0 * bound  # q + shift - highest >= bound
    Y = LinearOperator((K, K), dtype=float,
                       matvec=lambda v: X @ v + (shift / K) * v.sum())
    v0 = np.random.default_rng(0).standard_normal(K)
    try:
        w, V = eigsh(Y, k=3, which="BE", v0=v0, ncv=LANCZOS_NCV,
                     maxiter=K // LANCZOS_NCV, tol=0)
    except ArpackError:  # no convergence within the cap, among others
        return None
    order = np.argsort(w)
    w, V = w[order], V[:, order]
    residual = np.linalg.norm(Y @ V - V * w, axis=0).max()
    tol = LANCZOS_RESIDUAL_TOL * bound
    if not (residual <= tol and abs(w[2] - (q + shift)) <= tol):
        return None
    return np.array([q, w[0], w[1]])


def table1_matrices(row, A, c=None, mu=None, L=None, eigvals=None):
    """Consensus triple (A_bar, B^2, C) for a named algorithm.

    Parameters
    ----------
    row : AlgorithmId or str
    A : ndarray or sparse matrix
        Symmetric doubly stochastic combination matrix.
    c : float, optional
        Positive scale, required by NIDS and DLM.
    mu : float, optional
        Step-size, required by DLM.
    L : ndarray or sparse matrix, optional
        Graph Laplacian, required by DLM.
    eigvals : ndarray, optional
        The base's (A, or L for DLM) three deciding eigenvalues
        (:func:`deciding_eigenvalues`); solved if omitted.

    The triple carries its ``spectrum``.  Raises ValueError where the
    three eigenvalues cannot give it: a base that is not symmetric or
    whose rows do not sum alike, and DIGing on a base whose spectrum off
    the ones vector straddles 0 (shift it with :func:`shift_positive`).
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

    if eigvals is None:
        eigvals = deciding_eigenvalues(base)
    # DIGing's C = I - A^2 peaks inside a range that straddles 0, at the
    # eigenvalue nearest 0, which the three do not give.
    if row is AlgorithmId.DIGING and eigvals[1] < 0 < eigvals[2]:
        raise ValueError("DIGing needs a base whose spectrum off the ones "
                         "vector does not straddle 0; shift it to 0.5 (I + A)")
    I = sp.identity(K, format="csr") if sp.issparse(base) else np.eye(K)
    matrices = _table1_row(row, base, I, operator.matmul, c, mu)
    if sp.issparse(base):
        matrices = map(_engine_form, matrices)
    return ConsensusTriple(*matrices,
                           spectrum=table1_spectrum(row, eigvals, c, mu))


def validate_assumptions(t, psd_tol=PSD_TOL):
    """Check the spectral conditions required for linear convergence.

    The primary condition requires I - B^2 - A_bar^2 to be PSD together
    with eigenvalues of C in [0, 2); the alternate (non-ATC) condition
    requires C - B^2 PSD with eigenvalues of C in [0, 1).  Strict upper
    bounds are tested with a margin of ``psd_tol``.

    The check reads the triple's ``spectrum``, which
    :func:`table1_matrices` gives it: the matrices share one eigenbasis,
    so both conditions hold pair by pair of eigenvalues, and each reported
    scalar is attained at one of the three pairs.  A triple without a
    spectrum raises ValueError.
    """
    for name in ("A_bar", "B_sq", "C"):
        if not _is_symmetric(getattr(t, name)):
            raise ValueError(f"{name} is not symmetric")
    if t.spectrum is None:
        raise ValueError("the triple carries no spectrum; build it with "
                         "table1_matrices")

    eig_A, eig_Bsq, eig_C = t.spectrum
    sigma_max_C = float(eig_C.max())
    # B^2's least value off the consensus vector, unless numerically 0.
    low = eig_Bsq[1:].min()
    zero_tol = NULLSPACE_TOL * max(1.0, float(eig_Bsq.max()))
    sigma_min_Bsq = float(low) if abs(low) > zero_tol else 0.0

    c_psd = eig_C.min() >= -psd_tol
    a2_gap_ok = (1.0 - eig_Bsq - eig_A * eig_A).min() >= -psd_tol
    a2_c_ok = c_psd and sigma_max_C <= 2.0 - psd_tol
    a4_gap_ok = (eig_C - eig_Bsq).min() >= -psd_tol
    a4_c_ok = c_psd and sigma_max_C <= 1.0 - psd_tol

    return SpectralReport(
        sigma_max_C=sigma_max_C,
        sigma_min_Bsq=sigma_min_Bsq,
        lambda2_A=float(np.sort(eig_A)[-2]),
        assumption2_ok=bool(a2_gap_ok and a2_c_ok),
        assumption4_ok=bool(a4_gap_ok and a4_c_ok),
    )
