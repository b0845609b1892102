"""Network graphs, combination matrices and consensus-matrix triples.

All matrices here are K x K and act blockwise on K x M agent stacks;
the Kronecker-expanded KM x KM versions are never materialized.

Every matrix is built once, in the form the engine multiplies: a
canonical CSR matrix (:class:`CSRMatrix`: sorted indices, no stored
zeros) when its share of nonzeros is below ``CSR_DENSITY``, else a dense
ndarray.  A graph's A, 0.5 (I + A) and L have K + 2E nonzeros each, so
the edge count decides their form (``_sparse_graph``) before any is
built, from the graph's E x 2 edge array.  Either form multiplies a
dense K x M stack to an ndarray, and reports its memory as ``nbytes``.

Every row of the table is a polynomial of degree at most 2 in one
symmetric base matrix X (A, or the Laplacian for DLM) that has the ones
vector as an eigenvector, and each of its three members is a
:class:`BasePolynomial`, which holds the base and its coefficients and
is applied by products with X alone, so that no matrix is built for it.
A triple's A_bar and B^2 share their base's products and scaled
powers (``ConsensusTriple.combine``): a step makes at most two
products, P = X Z and Q = X P, and scales each power by each distinct
|coefficient| once.

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

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

__all__ = [
    "Graph",
    "ConsensusTriple",
    "BasePolynomial",
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
# Uniform draws per block in which random_connected samples its non-tree
# pairs: 2 MB of float64.
EDGE_DRAW_CHUNK = 1 << 18
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


@dataclass(frozen=True, eq=False)
class Graph:
    """Static connected undirected network of K agents.

    ``edges`` is an E x 2 integer array (any E x 2 array-like is taken in
    as a read-only copy), one 0-based (s, k) row per edge, each edge
    stored once, in either orientation, and no self-loop: self-weights
    arise from the Metropolis rule, not from stored edges.  All of it, and
    the graph's connectivity, is checked once, when it is built.
    """

    K: int
    edges: np.ndarray

    def __post_init__(self):
        K = self.K
        if K < 2:
            raise ValueError(f"need at least 2 agents, got K={K}")
        edges = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        outside = ((edges < 0) | (edges >= K)).any(axis=1)
        if outside.any():
            raise ValueError("edge ({},{}) out of range for K={}".format(
                *edges[outside][0], K))
        s, k = edges.T
        if (s == k).any():
            raise ValueError(f"self-loop stored on agent {s[s == k][0]}")
        # One code per unordered pair, min K + max: a repeated code is an
        # edge stored twice.
        codes = np.sort(np.minimum(s, k) * K + np.maximum(s, k))
        twice = codes[1:][codes[1:] == codes[:-1]]
        if twice.size:
            raise ValueError(f"edge ({twice[0] // K},{twice[0] % K}) stored "
                             "twice or in both orientations")
        if not _is_connected(K, edges):
            raise ValueError("graph must be connected")

    def degrees(self):
        return np.bincount(self.edges.ravel(), minlength=self.K)


@dataclass(frozen=True)
class ConsensusTriple:
    """The (A_bar, B^2, C) matrices parameterizing the primal-dual engine.

    A_bar is doubly stochastic symmetric; B_sq and C are symmetric PSD
    consensus matrices annihilating the all-ones vector.  Each member is
    a :class:`BasePolynomial` in one base, the row's;
    :func:`table1_matrices` builds every triple the program runs.

    ``spectrum`` holds the eigenvalues of (A_bar, B_sq, C) as three arrays
    paired in the matrices' common eigenbasis, each with three entries: at
    the consensus eigenvalue of the base, then at its lowest and its
    highest eigenvalue on the complement of the ones vector
    (:func:`deciding_eigenvalues`).  The members are not to be modified
    after construction: ``spectrum`` and the sum plan describe them as
    built.
    """

    A_bar: object
    B_sq: object
    C: object
    spectrum: tuple

    @cached_property
    def _plan(self):
        return _sum_plan((self.A_bar.coeffs, self.B_sq.coeffs))

    def combine(self, Z):
        """(A_bar Z, B^2 Z), both summed from the base's shared scaled
        powers (:func:`_sum_plan`)."""
        return _power_sums(self.A_bar.base, Z, self._plan)

    @cached_property
    def C_product(self):
        """The function W -> C W, or None where C is zero, so that the
        engine can skip it."""
        return None if self.C.degree < 0 else self.C.__matmul__


class BasePolynomial:
    """c0 I + c1 X + c2 X^2 in a base matrix X, applied to a stack Z from
    its powers Z, P = X Z and Q = X P: X^2 is never built.

    It holds the base, not a copy, and works out its sum plan
    (:func:`_sum_plan`) once, when it is built.
    """

    def __init__(self, base, coeffs):
        self.base = base
        self.coeffs = tuple(float(c) for c in coeffs)
        # -1 for the zero polynomial.
        self.degree = max((p for p, c in enumerate(self.coeffs) if c),
                          default=-1)
        self._plan = _sum_plan((self.coeffs,))

    # It stores no matrix; its base is counted where it was built.
    nbytes = 0

    def __matmul__(self, Z):
        return _power_sums(self.base, Z, self._plan)[0]


def _sum_plan(coeff_rows):
    """How to sum polynomials in one base from shared terms: (degree,
    scales, one (first, i, j, rest) per polynomial).

    The powers Z, P, Q sit at 0, 1, 2 of the term list, up to the highest
    degree; each distinct scaled power |c| V_p with |c| != 1 follows,
    once, at 3 onwards (``scales`` holds its (p, |c|)).  A polynomial
    starts from term i alone (``first`` None), first(V_i) (np.negative,
    or np.zeros_like for the zero polynomial) or first(V_i, V_j) (np.add
    or np.subtract, for the second term's sign), a new array, and adds or
    subtracts each later term k of ``rest``, (op, k), in place.  The
    terms go in the order of their powers, so the sum rounds as c0 Z +
    c1 P + c2 Q added term by term does, bit for bit: c V is -(|c| V)
    exactly, a + (-b) is a - b, and the first two terms may swap, since
    addition commutes, so that a positive one starts it.
    """
    rows = [[(p, c) for p, c in enumerate(row) if c] for row in coeff_rows]
    degree = max((p for row in rows for p, _ in row), default=-1)
    scales = sorted({(p, abs(c)) for row in rows for p, c in row
                     if abs(c) != 1.0})
    index = {s: 3 + n for n, s in enumerate(scales)}
    sums = []
    for row in rows:
        terms = [(np.subtract if c < 0 else np.add, index.get((p, abs(c)), p))
                 for p, c in row]
        if len(terms) > 1 and terms[0][0] is np.subtract:
            terms[:2] = terms[1::-1]
        if not terms:
            sums.append((np.zeros_like, 0, None, ()))
        elif terms[0][0] is np.subtract:  # no term of the first two is positive
            sums.append((np.negative, terms[0][1], None, tuple(terms[1:])))
        elif len(terms) == 1:
            sums.append((None, terms[0][1], None, ()))
        else:
            sums.append((terms[1][0], terms[0][1], terms[1][1],
                         tuple(terms[2:])))
    return degree, tuple(scales), tuple(sums)


def _power_sums(X, Z, plan):
    """The polynomials of ``plan`` (:func:`_sum_plan`) in the base X,
    applied to Z: a list of new arrays, but for a lone term of unit
    coefficient, which is its power itself."""
    degree, scales, sums = plan
    P = X @ Z if degree >= 1 else None
    V = [Z, P, X @ P if degree >= 2 else None]
    for p, c in scales:
        V.append(np.multiply(V[p], c))
    out = []
    for first, i, j, rest in sums:
        S = V[i] if first is None else first(V[i]) if j is None else first(V[i], V[j])
        for op, k in rest:
            op(S, V[k], out=S)
        out.append(S)
    return out


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


def _engine_form(X):
    """A copy of the sparse matrix X as canonical CSR: sorted indices, no
    stored zeros."""
    X = CSRMatrix(X, copy=True)
    X.eliminate_zeros()
    X.sort_indices()
    return X


def _sparse_graph(g):
    """Whether g's A, 0.5 (I + A) and L, with K + 2E nonzeros each (every
    diagonal entry is positive), are built as CSR."""
    return g.K + 2 * len(g.edges) < CSR_DENSITY * g.K * g.K


def _edge_matrix(g, weights, diagonal):
    """The symmetric matrix with ``weights`` on g's edges, in the order of
    ``g.edges``, and ``diagonal`` on the diagonal, in the form
    :func:`_sparse_graph` gives g."""
    s, k = g.edges.T
    if not _sparse_graph(g):
        X = np.diag(diagonal)
        X[s, k] = X[k, s] = weights
        return X
    i = np.arange(g.K)
    return _engine_form(sp.csr_matrix(
        (np.concatenate([weights, weights, diagonal]),
         (np.concatenate([s, k, i]), np.concatenate([k, s, i]))),
        shape=(g.K, g.K)))


def _is_symmetric(X):
    """max |X - X^T| <= SYMMETRY_TOL, a NaN failing; where X is CSR, over
    the stored entries of the difference."""
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        return False
    diff = abs(X - X.T)
    return bool(((diff.data if sp.issparse(diff) else diff) <= SYMMETRY_TOL).all())


def _is_connected(K, edges):
    """Whether the E x 2 ``edges`` join all K agents: a depth-first
    search from agent 0."""
    nbrs = [[] for _ in range(K)]
    for s, k in edges.tolist():
        nbrs[s].append(k)
        nbrs[k].append(s)
    seen, stack = {0}, [0]
    while stack:
        for v in nbrs[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == K


def _prufer_tree(K, rng):
    """Decode a uniformly random Prufer sequence into a spanning tree.

    The sequence is the generator's first draw.  Each step joins the
    smallest leaf to the sequence's next vertex; the smallest leaf is the
    vertex the sequence just freed, if it lies below the scan pointer,
    else the next leaf the pointer finds: O(K) in all.  Returns the
    (K - 1) x 2 edge array, one (min, max) row per edge.
    """
    seq = rng.integers(0, K, size=K - 2).tolist()
    degree = [1] * K
    for v in seq:
        degree[v] += 1
    leaves = []
    leaf = ptr = degree.index(1)
    for v in seq:
        leaves.append(leaf)
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    # K - 1 is never the smallest of two or more leaves: it and the last
    # leaf close the tree.
    leaves.append(leaf)
    return np.sort(np.array([leaves, seq + [K - 1]]).T, axis=1)


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
        edges = [(s, k) for s in range(K) for k in range(s + 1, K)]
    elif kind == "ring":
        # At K = 2 the closing edge is the first.
        edges = [(k, k + 1) for k in range(K - 1)] + [(0, K - 1)] * (K > 2)
    elif kind == "grid":
        # Row-major partial grid: always connected for any K.
        rows = int(np.floor(np.sqrt(K)))
        cols = int(np.ceil(K / rows))
        edges = []
        for v in range(K):
            r, c = divmod(v, cols)
            if c + 1 < cols and v + 1 < K:
                edges.append((v, v + 1))
            if v + cols < K:
                edges.append((v, v + cols))
    elif kind == "random_connected":
        rng = np.random.default_rng(seed)
        tree = _prufer_tree(K, rng)
        edges = [tree]
        # Each non-tree pair (s, k), s < k, in row-major order, takes one
        # uniform draw and becomes an edge if it falls below the
        # probability.  The draws come EDGE_DRAW_CHUNK at a time; the
        # stream, and the graph of every seed, is that of one draw per
        # pair.  Pair (s, k) sits at offsets[s] + k - s - 1 in row-major
        # order.  The hit of rank r among the non-tree pairs sits at r plus
        # the count of tree pairs with at most r non-tree pairs before
        # them, in the last row whose offset does not pass it.
        rows = np.arange(K, dtype=np.int64)
        offsets = rows * (K - 1) - rows * (rows - 1) // 2
        ts, tk = tree.T
        tree_rank = np.sort(offsets[ts] + tk - ts - 1) - np.arange(K - 1)
        free = K * (K - 1) // 2 - (K - 1)
        for start in range(0, free, EDGE_DRAW_CHUNK):
            n = min(EDGE_DRAW_CHUNK, free - start)
            rank = np.flatnonzero(rng.random(n) < extra_edge_prob) + start
            pos = rank + np.searchsorted(tree_rank, rank, side="right")
            s = np.searchsorted(offsets, pos, side="right") - 1
            k = pos - offsets[s] + s + 1
            edges.append(np.column_stack([s, k]))
        edges = np.concatenate(edges)
    else:
        raise ValueError(f"unknown graph kind: {kind!r}")
    return Graph(K, edges)


def metropolis_matrix(g):
    """Symmetric doubly stochastic combination matrix by the Metropolis rule.

    Edge weight 1/(1 + max(d_s, d_k)); the diagonal is 1 minus the row's
    edge weights, summed by numpy over a dense row, or over a CSR row's
    stored weights alone (in column order, O(nnz) in all).
    """
    d = g.degrees()
    s, k = g.edges.T
    w = 1.0 / (1.0 + np.maximum(d[s], d[k]))
    off = _edge_matrix(g, w, np.zeros(g.K))
    return _edge_matrix(g, w, 1.0 - np.asarray(off.sum(axis=1)).ravel())


def shift_positive(A):
    """Map a combination matrix to 0.5(I + A), pushing eigenvalues into [0,1]."""
    if sp.issparse(A):
        return _engine_form(0.5 * (sp.identity(A.shape[0], format="csr") + A))
    return 0.5 * (np.eye(A.shape[0]) + A)


def laplacian_matrix(g):
    """Graph Laplacian D - Adjacency; PSD with L @ ones = 0."""
    return _edge_matrix(g, np.full(len(g.edges), -1.0),
                        g.degrees().astype(float))


def _table1_row(row, X, I, prod, c, mu):
    """One row of the table as a polynomial in the base X (A, or the
    Laplacian for DLM): coefficients in (I, X, X^2) for X = (0, 1, 0),
    I = (1, 0, 0) and ``prod`` = the coefficients' product, truncated to
    degree 2 (no row goes higher); eigenvalues for X = the base's
    eigenvalues, I = ones and ``prod`` = the elementwise product."""
    if row is AlgorithmId.EXACT_DIFFUSION:
        return 0.5 * (I + X), 0.5 * (I - X), 0.0 * I
    if row is AlgorithmId.NIDS:
        return I - c * (I - X), c * (I - X), 0.0 * I
    if row is AlgorithmId.AUG_DGM:
        D = I - X
        return prod(X, X), prod(D, D), 0.0 * I
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
        (:func:`deciding_eigenvalues`); solved if omitted, which checks the
        base's symmetry.  Handed in, they vouch for it.

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
    if eigvals is None:
        eigvals = deciding_eigenvalues(base)
    # DIGing's C = I - A^2 peaks inside a range that straddles 0, at the
    # eigenvalue nearest 0, which the three do not give.
    if row is AlgorithmId.DIGING and eigvals[1] < 0 < eigvals[2]:
        raise ValueError("DIGing needs a base whose spectrum off the ones "
                         "vector does not straddle 0; shift it to 0.5 (I + A)")
    coeffs = _table1_row(row, np.array([0.0, 1.0, 0.0]),
                         np.array([1.0, 0.0, 0.0]),
                         lambda p, q: np.convolve(p, q)[:3], c, mu)
    return ConsensusTriple(*(BasePolynomial(base, cf) for cf in coeffs),
                           spectrum=table1_spectrum(row, eigvals, c, mu))


def validate_assumptions(t, psd_tol=PSD_TOL):
    """Check the spectral conditions required for linear convergence.

    The primary condition requires I - B^2 - A_bar^2 to be PSD together
    with eigenvalues of C in [0, 2); the alternate (non-ATC) condition
    requires C - B^2 PSD with eigenvalues of C in [0, 1).  Strict upper
    bounds are tested with a margin of ``psd_tol``.

    The check reads the triple's ``spectrum`` alone: the members are
    polynomials in one symmetric base, which :func:`table1_matrices`
    checked, so they share its eigenbasis, both conditions hold pair by
    pair of eigenvalues, and each reported scalar is attained at one of
    the three pairs.
    """
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
