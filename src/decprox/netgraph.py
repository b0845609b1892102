"""Network graphs, combination matrices and consensus-matrix triples.

All matrices here are K x K and act blockwise on K x M agent stacks;
the Kronecker-expanded KM x KM versions are never materialized.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

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
    "validate_assumptions",
    "save_edge_list",
    "load_edge_list",
]

# Eigenvalue of B^2 counts as zero below this (relative) threshold.
NULLSPACE_TOL = 1e-10
# Symmetric eigensolvers return tiny negative noise; PSD means >= -PSD_TOL.
PSD_TOL = 1e-10


class AlgorithmId(str, Enum):
    """Named rows of the consensus-matrix table."""

    EXACT_DIFFUSION = "ExactDiffusion"
    NIDS = "NIDS"
    AUG_DGM = "AugDGM"
    ATC_TRACKING = "ATCTracking"
    DIGING = "DIGing"
    EXTRA = "EXTRA"
    DLM = "DLM"


@dataclass(frozen=True)
class Graph:
    """Static undirected network of K agents.

    Edges are stored 0-based without self-loops; self-weights arise from
    the Metropolis rule, not from stored edges.
    """

    K: int
    edges: frozenset
    seed: int | None = None

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
    """

    A_bar: np.ndarray
    B_sq: np.ndarray
    C: np.ndarray
    algorithm_id: str = "custom"

    @property
    def K(self):
        return self.A_bar.shape[0]

    @cached_property
    def C_is_zero(self):
        """Whether C is the zero matrix, so that the engine can skip the
        product C W.  Decided once per triple; the matrices are not to be
        modified after construction."""
        return not self.C.any()


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
        edges = set(_prufer_tree(K, rng))
        for s in range(K):
            for k in range(s + 1, K):
                if (s, k) not in edges and rng.random() < extra_edge_prob:
                    edges.add((s, k))
    else:
        raise ValueError(f"unknown graph kind: {kind!r}")

    g = Graph(K=K, edges=frozenset(edges), seed=seed)
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


def table1_matrices(algorithm_id, A, c=None, mu=None, L=None):
    """Consensus triple (A_bar, B^2, C) for a named algorithm.

    Parameters
    ----------
    algorithm_id : AlgorithmId or str
    A : ndarray
        Symmetric doubly stochastic combination matrix.
    c : float, optional
        Positive scale, required by NIDS and DLM.
    mu : float, optional
        Step-size, required by DLM.
    L : ndarray, optional
        Graph Laplacian, required by DLM.
    """
    algorithm_id = AlgorithmId(algorithm_id)
    K = A.shape[0]
    I = np.eye(K)
    zero = np.zeros((K, K))

    if algorithm_id is AlgorithmId.EXACT_DIFFUSION:
        triple = (0.5 * (I + A), 0.5 * (I - A), zero)
    elif algorithm_id is AlgorithmId.NIDS:
        if c is None or c <= 0:
            raise ValueError("NIDS requires c > 0")
        triple = (I - c * (I - A), c * (I - A), zero)
    elif algorithm_id is AlgorithmId.AUG_DGM:
        triple = (A @ A, (I - A) @ (I - A), zero)
    elif algorithm_id is AlgorithmId.ATC_TRACKING:
        triple = (A, (I - A) @ (I - A), I - A)
    elif algorithm_id is AlgorithmId.DIGING:
        triple = (I, (I - A) @ (I - A), I - A @ A)
    elif algorithm_id is AlgorithmId.EXTRA:
        triple = (I, 0.5 * (I - A), 0.5 * (I - A))
    elif algorithm_id is AlgorithmId.DLM:
        if c is None or c <= 0:
            raise ValueError("DLM requires c > 0")
        if mu is None or mu <= 0 or L is None:
            raise ValueError("DLM requires mu > 0 and a Laplacian")
        triple = (I, c * mu * L, c * mu * L)
    else:  # pragma: no cover - AlgorithmId() above rejects unknown ids
        raise ValueError(f"unsupported algorithm: {algorithm_id}")

    return ConsensusTriple(*triple, algorithm_id=algorithm_id.value)


def _check_symmetric(name, X):
    if not np.allclose(X, X.T, atol=1e-12, rtol=0.0):
        raise ValueError(f"{name} is not symmetric")


def validate_assumptions(t, psd_tol=PSD_TOL, null_tol=NULLSPACE_TOL):
    """Check the spectral conditions required for linear convergence.

    The primary condition requires I - B^2 - A_bar^2 to be PSD together
    with eigenvalues of C in [0, 2); the alternate (non-ATC) condition
    requires C - B^2 PSD with eigenvalues of C in [0, 1).  Strict upper
    bounds are tested with a margin of ``psd_tol``.
    """
    _check_symmetric("A_bar", t.A_bar)
    _check_symmetric("B_sq", t.B_sq)
    _check_symmetric("C", t.C)

    eig_C = np.sort(np.linalg.eigvalsh(t.C))
    eig_Bsq = np.sort(np.linalg.eigvalsh(t.B_sq))
    eig_A = np.sort(np.linalg.eigvalsh(t.A_bar))
    gap = np.sort(np.linalg.eigvalsh(np.eye(t.K) - t.B_sq - t.A_bar @ t.A_bar))
    cb_gap = np.sort(np.linalg.eigvalsh(t.C - t.B_sq))

    sigma_max_C = float(eig_C[-1])
    sigma_max_Bsq = float(eig_Bsq[-1])
    nonzero = eig_Bsq[np.abs(eig_Bsq) > null_tol * max(1.0, sigma_max_Bsq)]
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


def save_edge_list(g, path):
    """Write a graph as `K <count>` header plus one 1-indexed `s k` per line."""
    lines = [f"K {g.K}"]
    for (s, k) in sorted(g.edges):
        lines.append(f"{s + 1} {k + 1}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_edge_list(path):
    """Read a graph written by :func:`save_edge_list`."""
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines or not lines[0].startswith("K "):
        raise ValueError("edge list must start with a 'K <count>' header")
    K = int(lines[0].split()[1])
    edges = set()
    for ln in lines[1:]:
        s, k = (int(tok) for tok in ln.split())
        edges.add(_edge(s - 1, k - 1))
    return Graph(K=K, edges=frozenset(edges))
