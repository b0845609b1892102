import hashlib
import heapq
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from scipy.sparse.csgraph import connected_components

from appendix_forms import MatrixTriple
from decprox import netgraph
from decprox.netgraph import (
    AlgorithmId,
    BasePolynomial,
    ConsensusTriple,
    Graph,
    build_graph,
    laplacian_matrix,
    metropolis_matrix,
    shift_positive,
    table1_matrices,
    table1_spectrum,
    validate_assumptions,
)


# The sparse benchmark workload's graph, and a 10,000-agent one like it.
BENCHMARK_GRAPH = {"kind": "random_connected", "K": 2000, "seed": 7,
                   "extra_edge_prob": 0.0005}
GRAPH_10000 = {"kind": "random_connected", "K": 10000, "seed": 7,
               "extra_edge_prob": 0.0004}


def heap_prufer_tree(K, rng):
    """The Prufer decode as first written, the smallest leaf taken from a
    heap: the reference for netgraph._prufer_tree."""
    if K == 2:
        return {(0, 1)}
    seq = rng.integers(0, K, size=K - 2)
    degree = np.ones(K, dtype=int)
    for v in seq:
        degree[v] += 1
    edges = set()
    leaves = [v for v in range(K) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.add(tuple(sorted((leaf, int(v)))))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    # Exactly two leaves remain; they close the tree.
    edges.add(tuple(sorted((heapq.heappop(leaves), heapq.heappop(leaves)))))
    return edges


def per_pair_random_connected(K, seed, p):
    """The edge sampler as first written, one draw per node pair in
    row-major order: the reference for build_graph's sampler."""
    rng = np.random.default_rng(seed)
    edges = set(heap_prufer_tree(K, rng))
    for s in range(K):
        for k in range(s + 1, K):
            if (s, k) not in edges and rng.random() < p:
                edges.add((s, k))
    return frozenset(edges)


def edge_set(edges):
    """A graph's edges, or an E x 2 edge array, as a set of (s, k) tuples
    of Python ints, in the orientation stored."""
    if isinstance(edges, Graph):
        edges = edges.edges
    return {(s, k) for s, k in edges.tolist()}


def one_component(K, edges):
    """Whether the (s, k) pairs ``edges`` join all K agents, by scipy's
    connected components: an oracle independent of netgraph's search."""
    s, k = np.array(sorted(edges), dtype=int).reshape(-1, 2).T
    adj = sp.coo_matrix((np.ones(len(s)), (s, k)), shape=(K, K))
    return connected_components(adj, directed=False)[0] == 1


def assert_built(g):
    """A built graph: connected, each edge stored once as (s, k), s < k."""
    assert one_component(g.K, edge_set(g))
    assert (g.edges[:, 0] < g.edges[:, 1]).all()
    assert len(edge_set(g)) == len(g.edges)


def loop_degrees(g):
    d = np.zeros(g.K, dtype=int)
    for (s, k) in edge_set(g):
        d[s] += 1
        d[k] += 1
    return d


def loop_adjacency(g):
    adj = np.zeros((g.K, g.K))
    for (s, k) in edge_set(g):
        adj[s, k] = adj[k, s] = 1.0
    return adj


def loop_metropolis(g):
    """The Metropolis rule as first written, one edge at a time: the
    reference for metropolis_matrix."""
    d = loop_degrees(g)
    A = np.zeros((g.K, g.K))
    for (s, k) in edge_set(g):
        w = 1.0 / (1.0 + max(d[s], d[k]))
        A[s, k] = A[k, s] = w
    np.fill_diagonal(A, 1.0 - A.sum(axis=1))
    return A


def loop_laplacian(g):
    adj = loop_adjacency(g)
    return np.diag(adj.sum(axis=1)) - adj


def dense(X):
    """X as a dense ndarray, whichever form netgraph built it in; a
    polynomial member applied to the identity."""
    if isinstance(X, netgraph.BasePolynomial):
        return X @ np.eye(X.base.shape[0])
    return X.toarray() if sp.issparse(X) else X


def assert_engine_form(X):
    """X is in the form the engine multiplies: canonical CSR (sorted
    indices, no stored zeros) below CSR_DENSITY, else an ndarray."""
    nnz = np.count_nonzero(dense(X))
    if nnz < netgraph.CSR_DENSITY * X.shape[0] * X.shape[1]:
        assert isinstance(X, netgraph.CSRMatrix)
        assert X.has_canonical_format and X.nnz == nnz
        assert X.nbytes == (X.data.nbytes + X.indices.nbytes
                            + X.indptr.nbytes)
    else:
        assert isinstance(X, np.ndarray)


@pytest.fixture(scope="module")
def benchmark_graph():
    """The 2000-agent graph of the sparse benchmark workload."""
    return build_graph(**BENCHMARK_GRAPH)


def edge_checksum(g):
    """The sha256 of g's sorted edge list, one "s k" line per edge."""
    text = "".join(f"{s} {k}\n" for s, k in sorted(edge_set(g)))
    return hashlib.sha256(text.encode()).hexdigest()


def random_graphs(n=20):
    return [build_graph("random_connected", K, seed=i, extra_edge_prob=0.25)
            for i, K in enumerate(range(3, 3 + n))]


class TestGraphs:
    def test_known_kinds_connected(self):
        for kind in ("ring", "grid", "complete"):
            for K in (2, 3, 7, 12):
                g = build_graph(kind, K)
                assert g.K == K
                assert_built(g)

    def test_complete_edge_count(self):
        g = build_graph("complete", 6)
        assert len(g.edges) == 15

    def test_random_connected_is_connected(self):
        for g in random_graphs():
            assert_built(g)

    def test_random_connected_deterministic(self):
        a = build_graph("random_connected", 15, seed=4, extra_edge_prob=0.3)
        b = build_graph("random_connected", 15, seed=4, extra_edge_prob=0.3)
        assert np.array_equal(a.edges, b.edges)

    @pytest.mark.parametrize("chunk", [1, 7, 64, netgraph.EDGE_DRAW_CHUNK],
                             ids=lambda c: f"chunk{c}")
    @pytest.mark.parametrize("K", [2, 3, 15, 30, 200])
    @pytest.mark.parametrize("p", [0.0, 0.02, 0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_random_connected_matches_per_pair_sampler(self, monkeypatch,
                                                       K, p, seed, chunk):
        # Small chunks put chunk boundaries inside rows and next to tree
        # pairs; the default takes every case here in one chunk.
        monkeypatch.setattr(netgraph, "EDGE_DRAW_CHUNK", chunk)
        g = build_graph("random_connected", K, seed=seed, extra_edge_prob=p)
        assert edge_set(g) == per_pair_random_connected(K, seed, p)
        assert_built(g)

    def test_benchmark_graph_pinned(self, benchmark_graph):
        # Edge count and checksum of the sorted edge list, as the per-pair
        # sampler drew them.
        assert len(benchmark_graph.edges) == 3014
        assert edge_checksum(benchmark_graph) == (
            "09682ba7010d49c37404088630decdcd92f4c20bdb6557a34f0424510eb4327d")

    def test_10000_agent_graph_pinned(self):
        # As drawn with one call per row of pairs; here the draws span 191
        # chunks.
        g = build_graph(**GRAPH_10000)
        assert len(g.edges) == 30050
        assert edge_checksum(g) == (
            "53bd338b58609d4f3780e1c1ae9aabee63c0c871f67dcaaedf18e0f177605ebc")

    def test_benchmark_graph_draws_in_small_chunks(self):
        # One draw of all ~2M pairs would allocate about 18 MB; a chunk of
        # draws is 2 MB (about 3 MB peak in all).
        tracemalloc.start()
        try:
            build_graph(**BENCHMARK_GRAPH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("seed", range(20))
    def test_prufer_decode_matches_heap_decode(self, seed):
        for K in range(2, 61):
            tree = netgraph._prufer_tree(K, np.random.default_rng(seed))
            assert edge_set(tree) == heap_prufer_tree(
                K, np.random.default_rng(seed))
            assert tree.shape == (K - 1, 2)

    @pytest.mark.parametrize("K", [2000, 10000])
    def test_prufer_decode_matches_heap_decode_at_scale(self, K):
        tree = netgraph._prufer_tree(K, np.random.default_rng(7))
        assert edge_set(tree) == heap_prufer_tree(K, np.random.default_rng(7))

    def test_tree_when_no_extra_edges(self):
        g = build_graph("random_connected", 30, seed=2, extra_edge_prob=0.0)
        assert len(g.edges) == 29

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            build_graph("ring", 1)
        with pytest.raises(ValueError):
            build_graph("torus", 5)
        with pytest.raises(ValueError):
            build_graph("random_connected", 5, extra_edge_prob=1.5)
        with pytest.raises(ValueError, match="at least 2 agents"):
            Graph(K=1, edges=[])

    @pytest.mark.parametrize("edges, match", [
        ([(0, 0), (0, 1), (1, 2)], "self-loop stored on agent 0"),
        ([(0, 1), (1, 2), (2, 2)], "self-loop stored on agent 2"),
        ([(0, 1), (1, 5)], r"edge \(1,5\) out of range for K=3"),
        ([(0, 1), (1, 3)], r"edge \(1,3\) out of range for K=3"),
        ([(-1, 1), (1, 2)], r"edge \(-1,1\) out of range for K=3"),
        ([(0, 1), (1, 2), (0, 1)], r"edge \(0,1\) stored twice"),
        ([(0, 1), (1, 0), (1, 2)], r"edge \(0,1\) stored twice or in both"),
        ([(1, 2), (0, 1), (2, 1)], r"edge \(1,2\) stored twice or in both"),
    ], ids=["self-loop-first", "self-loop-last", "range-5", "range-K",
            "negative", "duplicate-row", "both-orientations",
            "both-orientations-reversed"])
    def test_bad_edges_rejected(self, edges, match):
        with pytest.raises(ValueError, match=match):
            Graph(K=3, edges=edges)

    def test_edge_in_both_orientations_rejected(self):
        # Stored twice, the edge would count twice in each end's degree:
        # degrees [2, 3, 1] and Metropolis weights 1/4 where 1/3 is right.
        with pytest.raises(ValueError, match="both orientations"):
            Graph(K=3, edges=[(0, 1), (1, 0), (1, 2)])
        g = Graph(K=3, edges=[(1, 0), (1, 2)])
        assert g.degrees().tolist() == [1, 2, 1]
        assert metropolis_matrix(g)[0, 1] == 1.0 / 3.0

    def test_edges_stored_as_read_only_array(self):
        edges = [(1, 0), (1, 2)]
        g = Graph(K=3, edges=edges)
        assert g.edges.shape == (2, 2)
        assert g.edges.tolist() == [[1, 0], [1, 2]]
        with pytest.raises(ValueError):
            g.edges[0, 0] = 2


class TestMetropolis:
    @pytest.mark.parametrize("kind, K, p", [
        ("ring", 2000, 0.0), ("ring", 3, 0.0), ("grid", 2000, 0.0),
        ("grid", 7, 0.0), ("complete", 150, 0.0), ("complete", 2, 0.0),
        ("random_connected", 2000, 0.002), ("random_connected", 2000, 0.0),
        ("random_connected", 40, 0.3)])
    def test_edge_array_matches_edge_loops(self, kind, K, p):
        # Built from one edge-index array, in the form the edge count
        # decides, bit for bit as one edge at a time into a dense matrix,
        # but for a CSR matrix's Metropolis diagonal: 1 minus numpy's
        # reduction of the row's stored weights in column order (its first
        # weight plus the others' sum), within an ulp of the dense row's.
        g = build_graph(kind, K, seed=7, extra_edge_prob=p)
        assert np.array_equal(g.degrees(), loop_degrees(g))
        assert g.degrees().dtype == loop_degrees(g).dtype
        A, L = metropolis_matrix(g), laplacian_matrix(g)
        sparse = K + 2 * len(g.edges) < netgraph.CSR_DENSITY * K * K
        for X in (A, L, shift_positive(A)):
            assert sp.issparse(X) == sparse
            assert_engine_form(X)
        assert np.array_equal(dense(L), loop_laplacian(g))
        ref, Ad = loop_metropolis(g), dense(A)
        off = ~np.eye(K, dtype=bool)
        assert np.array_equal(Ad[off], ref[off])
        assert np.array_equal(Ad[off] != 0, loop_adjacency(g)[off] != 0)
        if sparse:
            for i in range(K):
                row = A[i]
                weights = row.data[row.indices != i]
                assert A[i, i] == 1.0 - np.add.reduceat(weights, [0])[0], i
            assert np.abs(np.diag(Ad) - np.diag(ref)).max() <= 2.3e-16
        else:
            assert np.array_equal(Ad, ref)
        assert np.array_equal(dense(shift_positive(A)),
                              0.5 * (np.eye(K) + Ad))

    def test_disconnected_graph_rejected(self):
        # No Graph is built, so no matrix can be built from one.
        for edges in ([(0, 1), (2, 3)], [(0, 1), (1, 2)], []):
            assert not one_component(4, edges)
            with pytest.raises(ValueError, match="graph must be connected"):
                Graph(K=4, edges=edges)

    def test_doubly_stochastic_symmetric(self):
        # Acceptance-style property: 20 random graphs.
        for g in random_graphs(20):
            A = metropolis_matrix(g)
            assert np.allclose(A, A.T, atol=1e-14)
            assert np.allclose(A.sum(axis=0), 1.0, atol=1e-12)
            assert np.allclose(A.sum(axis=1), 1.0, atol=1e-12)
            assert (A >= -1e-15).all()

    def test_sparsity_matches_graph(self):
        g = build_graph("ring", 6)
        A = metropolis_matrix(g)
        adj = loop_adjacency(g)
        off = ~np.eye(6, dtype=bool)
        assert ((A[off] > 0) == (adj[off] > 0)).all()

    def test_spectral_gap(self):
        for g in random_graphs(10):
            A = metropolis_matrix(g)
            eig = np.sort(np.linalg.eigvalsh(A))
            assert abs(eig[-1] - 1.0) < 1e-12
            assert eig[-2] < 1.0 - 1e-12  # connected => simple Perron eigenvalue

    def test_shift_positive(self):
        for g in random_graphs(10):
            A = shift_positive(metropolis_matrix(g))
            eig = np.linalg.eigvalsh(A)
            assert eig.min() >= -1e-12
            assert eig.max() <= 1.0 + 1e-12

    def test_laplacian(self):
        g = build_graph("random_connected", 8, seed=5, extra_edge_prob=0.3)
        L = laplacian_matrix(g)
        assert np.allclose(L @ np.ones(8), 0.0, atol=1e-12)
        assert np.linalg.eigvalsh(L).min() >= -1e-10


class TestTable1:
    def setup_method(self):
        g = build_graph("random_connected", 7, seed=11, extra_edge_prob=0.35)
        self.A = shift_positive(metropolis_matrix(g))
        self.L = laplacian_matrix(g)
        self.I = np.eye(7)

    def test_exact_diffusion_row(self):
        t = table1_matrices("ExactDiffusion", self.A)
        assert np.allclose(dense(t.A_bar), 0.5 * (self.I + self.A))
        assert np.allclose(dense(t.B_sq), 0.5 * (self.I - self.A))
        assert np.allclose(dense(t.C), 0.0)

    def test_nids_row(self):
        t = table1_matrices("NIDS", self.A, c=0.3)
        assert np.allclose(dense(t.A_bar), self.I - 0.3 * (self.I - self.A))
        assert np.allclose(dense(t.B_sq), 0.3 * (self.I - self.A))

    def test_tracking_rows(self):
        IA2 = (self.I - self.A) @ (self.I - self.A)
        t = table1_matrices("AugDGM", self.A)
        assert np.allclose(dense(t.A_bar), self.A @ self.A)
        assert np.allclose(dense(t.B_sq), IA2)
        assert np.allclose(dense(t.C), 0.0)
        t = table1_matrices("ATCTracking", self.A)
        assert np.allclose(dense(t.A_bar), self.A)
        assert np.allclose(dense(t.B_sq), IA2)
        assert np.allclose(dense(t.C), self.I - self.A)
        t = table1_matrices("DIGing", self.A)
        assert np.allclose(dense(t.A_bar), self.I)
        assert np.allclose(dense(t.B_sq), IA2)
        assert np.allclose(dense(t.C), self.I - self.A @ self.A)

    def test_extra_dlm_rows(self):
        t = table1_matrices("EXTRA", self.A)
        assert np.allclose(dense(t.B_sq), 0.5 * (self.I - self.A))
        assert np.allclose(dense(t.B_sq), dense(t.C))
        t = table1_matrices("DLM", self.A, c=0.2, mu=0.1, L=self.L)
        assert np.allclose(dense(t.B_sq), 0.02 * self.L)
        assert np.allclose(dense(t.B_sq), dense(t.C))

    def test_missing_parameters(self):
        with pytest.raises(ValueError):
            table1_matrices("NIDS", self.A)
        with pytest.raises(ValueError):
            table1_matrices("DLM", self.A, c=0.2)
        with pytest.raises(ValueError):
            table1_matrices("NoSuchMethod", self.A)

    def test_consensus_nullspace(self):
        # For every row with C != 0: null(C) = null(B^2) = span(ones).
        ones = np.ones(7) / np.sqrt(7)
        for aid in AlgorithmId:
            t = table1_matrices(aid, self.A, c=0.3, mu=0.1, L=self.L)
            for X in map(dense, (t.B_sq, t.C)):
                if np.allclose(X, 0.0):
                    continue
                assert np.linalg.norm(X @ ones) < 1e-10
                eig = np.sort(np.abs(np.linalg.eigvalsh(X)))
                assert (eig[1:] > 1e-10).all()  # ones spans the whole nullspace


class TestAssumptions:
    def setup_method(self):
        g = build_graph("random_connected", 7, seed=11, extra_edge_prob=0.35)
        self.A_raw = metropolis_matrix(g)
        self.A = shift_positive(self.A_raw)
        self.L = laplacian_matrix(g)

    def test_primary_condition_on_table_rows(self):
        for aid in ("ExactDiffusion", "NIDS", "AugDGM", "ATCTracking"):
            t = table1_matrices(aid, self.A, c=0.3)
            r = validate_assumptions(t)
            assert r.assumption2_ok, aid
            assert r.sigma_min_Bsq > 0

    def test_alternate_condition_rows(self):
        t = table1_matrices("EXTRA", self.A)
        assert validate_assumptions(t).assumption4_ok
        t = table1_matrices("DIGing", self.A)
        assert validate_assumptions(t).assumption4_ok
        # DLM with c mu sigma_max(L) < 1
        sL = np.linalg.eigvalsh(self.L)[-1]
        t = table1_matrices("DLM", self.A, c=0.5 / sL, mu=1.0, L=self.L)
        assert validate_assumptions(t).assumption4_ok

    def test_violations_detected(self):
        t = table1_matrices("AugDGM", self.A_raw)  # unshifted A can break A2
        eig = np.linalg.eigvalsh(self.A_raw)
        if eig.min() < 0:
            assert not validate_assumptions(t).assumption2_ok
        # sigma_max(C) = 2 is out of range of both assumptions
        zero = np.zeros(3)
        bad = ConsensusTriple(
            *(BasePolynomial(np.eye(7), (c0,)) for c0 in (0.0, 0.0, 2.0)),
            spectrum=(zero, zero, np.full(3, 2.0)))
        r = validate_assumptions(bad)
        assert not r.assumption2_ok and not r.assumption4_ok
        ref = reference_report(bad)
        assert not ref["assumption2_ok"] and not ref["assumption4_ok"]

    def test_monotone_in_tolerance(self):
        # Loosening the PSD tolerance never flips a pass into a fail.
        for aid in ("ExactDiffusion", "AugDGM", "ATCTracking", "EXTRA"):
            t = table1_matrices(aid, self.A, c=0.3)
            tight = validate_assumptions(t, psd_tol=1e-12)
            loose = validate_assumptions(t, psd_tol=1e-6)
            if tight.assumption2_ok:
                assert loose.assumption2_ok
            if tight.assumption4_ok:
                assert loose.assumption4_ok

    def test_report_fields(self):
        t = table1_matrices("ExactDiffusion", self.A)
        r = validate_assumptions(t)
        eig_A = np.sort(np.linalg.eigvalsh(dense(t.A_bar)))
        assert r.lambda2_A == pytest.approx(eig_A[-2], abs=1e-12)
        nonzero = [x for x in np.linalg.eigvalsh(dense(t.B_sq)) if x > 1e-10]
        assert r.sigma_min_Bsq == pytest.approx(min(nonzero), abs=1e-12)


def reference_report(t, psd_tol=netgraph.PSD_TOL):
    """The report's fields and the two gap minima of a triple, from five
    eigendecompositions of its matrices, with the smallest nonzero B^2
    eigenvalue taken over the whole spectrum: the check as it read a
    triple before it read three paired eigenvalues."""
    A_bar, B_sq, C = map(dense, (t.A_bar, t.B_sq, t.C))
    eig_C = np.linalg.eigvalsh(C)
    eig_Bsq = np.linalg.eigvalsh(B_sq)
    eig_A = np.linalg.eigvalsh(A_bar)
    gap = np.linalg.eigvalsh(np.eye(len(A_bar)) - B_sq - A_bar @ A_bar)
    cb_gap = np.linalg.eigvalsh(C - B_sq)
    nonzero = eig_Bsq[np.abs(eig_Bsq) > netgraph.NULLSPACE_TOL
                      * max(1.0, eig_Bsq[-1])]
    c_psd = eig_C[0] >= -psd_tol
    return {"sigma_max_C": eig_C[-1],
            "sigma_min_Bsq": nonzero[0] if nonzero.size else 0.0,
            "lambda2_A": eig_A[-2],
            "min_eig_I_minus_Bsq_minus_Abar_sq": gap[0],
            "min_eig_C_minus_Bsq": cb_gap[0],
            "sigma_max_Bsq": eig_Bsq[-1],
            "assumption2_ok": bool(gap[0] >= -psd_tol and c_psd
                                   and eig_C[-1] <= 2.0 - psd_tol),
            "assumption4_ok": bool(cb_gap[0] >= -psd_tol and c_psd
                                   and eig_C[-1] <= 1.0 - psd_tol)}


def checked_report(t):
    """validate_assumptions(t)'s fields, with the two gap minima and the
    largest B^2 eigenvalue taken from the triple's three paired values."""
    r = validate_assumptions(t)
    eig_A, eig_Bsq, eig_C = t.spectrum
    return {"sigma_max_C": r.sigma_max_C, "sigma_min_Bsq": r.sigma_min_Bsq,
            "lambda2_A": r.lambda2_A,
            "min_eig_I_minus_Bsq_minus_Abar_sq":
                float((1.0 - eig_Bsq - eig_A * eig_A).min()),
            "min_eig_C_minus_Bsq": float((eig_C - eig_Bsq).min()),
            "sigma_max_Bsq": float(eig_Bsq.max()),
            "assumption2_ok": r.assumption2_ok,
            "assumption4_ok": r.assumption4_ok}


FLAGS = ("assumption2_ok", "assumption4_ok")


def assert_reports_agree(r, ref, atol=1e-12):
    """Two reports (from checked_report or reference_report): the same
    flags, and every scalar within atol."""
    for name, value in r.items():
        if name in FLAGS:
            assert value == ref[name], name
        else:
            assert abs(value - ref[name]) <= atol, name


def full_spectrum_scalars(row, base, c=None, mu=None):
    """The report's scalars from every eigenvalue of the base, one
    ``eigvalsh``, with the smallest nonzero B^2 taken over the whole
    spectrum as the check did before it read three eigenvalues."""
    eig_A, eig_Bsq, eig_C = table1_spectrum(row, np.linalg.eigvalsh(base),
                                            c, mu)
    sigma_max_Bsq = eig_Bsq.max()
    nonzero = eig_Bsq[np.abs(eig_Bsq) > netgraph.NULLSPACE_TOL
                      * max(1.0, sigma_max_Bsq)]
    return {"sigma_max_C": eig_C.max(), "sigma_min_Bsq": nonzero.min(),
            "lambda2_A": np.sort(eig_A)[-2],
            "min_eig_I_minus_Bsq_minus_Abar_sq":
                (1.0 - eig_Bsq - eig_A * eig_A).min(),
            "min_eig_C_minus_Bsq": (eig_C - eig_Bsq).min(),
            "sigma_max_Bsq": sigma_max_Bsq}


class TestJointSpectrum:
    GRAPHS = {
        "ring": lambda: build_graph("ring", 12),
        "grid": lambda: build_graph("grid", 12),
        "random": lambda: build_graph("random_connected", 12, seed=5,
                                      extra_edge_prob=0.3),
        "complete": lambda: build_graph("complete", 12),
    }

    @pytest.mark.parametrize("kind", sorted(GRAPHS))
    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("aid", list(AlgorithmId))
    def test_spectrum_matches_eigendecompositions(self, aid, shifted, kind):
        g = self.GRAPHS[kind]()
        A, L = metropolis_matrix(g), laplacian_matrix(g)
        if shifted:
            A = shift_positive(A)
        sL = np.linalg.eigvalsh(L)[-1]
        if straddles_zero(aid, A):
            # C = I - A^2 peaks at A's eigenvalue nearest 0, which the
            # three do not give: no triple is built.
            with pytest.raises(ValueError, match="straddle"):
                table1_matrices(aid, A, c=0.3, mu=1.0 / sL, L=L)
            return
        t = table1_matrices(aid, A, c=0.3, mu=1.0 / sL, L=L)
        assert_reports_agree(checked_report(t), reference_report(t))

    @pytest.mark.parametrize("c", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("kind", sorted(GRAPHS))
    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("aid", list(AlgorithmId))
    def test_dense_three_eigenvalues_equal_full_spectrum(self, aid, shifted,
                                                         kind, c):
        # On a dense base the three come from one eigvalsh, and every
        # scalar equals the one taken over the whole spectrum, bit for bit.
        g = self.GRAPHS[kind]()
        A, L = metropolis_matrix(g), laplacian_matrix(g)
        if shifted:
            A = shift_positive(A)
        mu = 1.0 / np.linalg.eigvalsh(L)[-1]
        if straddles_zero(aid, A):
            with pytest.raises(ValueError, match="straddle"):
                table1_matrices(aid, A, c=c, mu=mu, L=L)
            return
        t = table1_matrices(aid, A, c=c, mu=mu, L=L)
        r = checked_report(t)
        assert_reports_agree(r, reference_report(t))
        assert [len(e) for e in t.spectrum] == [3, 3, 3]
        scalars = {k: v for k, v in r.items() if k not in FLAGS}
        assert scalars == full_spectrum_scalars(
            aid, L if aid.on_laplacian else A, c=c, mu=mu)

    def test_diging_on_given_straddling_eigenvalues_rejected(self):
        # A ring's unshifted A has eigenvalues on both sides of 0 off the
        # ones vector; handed in rather than solved, they build no DIGing
        # triple either.
        A = metropolis_matrix(build_graph("ring", 12))
        with pytest.raises(ValueError, match="straddle"):
            table1_matrices("DIGing", A,
                            eigvals=netgraph.deciding_eigenvalues(A))

    def test_numerically_zero_off_consensus_reads_zero(self):
        # AugDGM's B^2 = (I - A)^2 is 1e-12 at lambda_2 = 1 - 1e-6, below
        # NULLSPACE_TOL: B^2 is numerically singular off the ones vector,
        # and no smallest nonzero eigenvalue is claimed.  The other
        # extreme's 0.64 would overstate it.
        for lambda2, sigma_min in ((1 - 1e-6, 0.0), (1 - 1e-4, 1e-8)):
            t = spectrum_triple("AugDGM", np.array([1.0, 0.2, lambda2]),
                                None, None)
            assert validate_assumptions(t).sigma_min_Bsq == pytest.approx(
                sigma_min, rel=1e-9, abs=0.0)

    def test_no_triple_without_a_ones_eigenvector(self):
        # Symmetric, but its rows do not sum alike: the three eigenvalues
        # would not decide, so no triple is built.
        A = metropolis_matrix(build_graph("ring", 6))
        A[0, 0] += 0.1
        with pytest.raises(ValueError, match="sum alike"):
            netgraph.deciding_eigenvalues(A)
        with pytest.raises(ValueError, match="sum alike"):
            table1_matrices("ExactDiffusion", A)

    def test_no_triple_on_an_asymmetric_base(self):
        A = metropolis_matrix(build_graph("ring", 5))
        A[0, 1] += 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            table1_matrices("ExactDiffusion", A)

    def test_no_eigenvalues_of_a_non_square_base(self):
        for X in (np.ones((2, 3)), sp.csr_matrix(np.ones((3, 2))),
                  np.ones(3)):
            assert netgraph._is_symmetric(X) is False
            with pytest.raises(ValueError, match="not symmetric"):
                netgraph.deciding_eigenvalues(X)

    @pytest.mark.parametrize("bump, symmetric", [
        (0.9e-12, True), (1.1e-12, False), (np.nan, False)])
    def test_symmetry_tolerance(self, bump, symmetric):
        # max |X - X^T| <= 1e-12 passes, anything larger or NaN fails,
        # on either side of the diagonal and in any tile, in either form.
        for (i, j) in ((0, 1), (1, 0), (299, 3), (3, 299)):
            X = np.eye(300)
            X[i, j] += bump
            assert netgraph._is_symmetric(X) is symmetric, (i, j)
            assert netgraph._is_symmetric(sp.csr_matrix(X)) is symmetric


def straddles_zero(aid, A):
    """Whether the row is DIGing on an A whose spectrum off the ones vector
    has eigenvalues on both sides of 0."""
    lo, hi = np.linalg.eigvalsh(A)[[0, -2]]
    return aid is AlgorithmId.DIGING and lo < 0 < hi


def spectrum_triple(row, eigvals, c, mu):
    """A triple that carries only a row's three paired eigenvalues, from
    its base's ``eigvals``: a check of the spectrum alone, without K x K
    members (the identity in a 2 x 2 base stands in for each)."""
    I = BasePolynomial(np.eye(2), (1.0,))
    return netgraph.ConsensusTriple(
        I, I, I, spectrum=table1_spectrum(row, eigvals, c, mu))


# Sparse 2000-agent bases.  The ring is Lanczos' slowest known case: it
# runs into the restart cap and falls back to eigvalsh.
SPARSE_GRAPHS = {
    "benchmark": lambda: build_graph("random_connected", 2000, seed=7,
                                     extra_edge_prob=0.0005),
    "ring": lambda: build_graph("ring", 2000),
    "grid45x45": lambda: build_graph("grid", 45 * 45),
    "random_p0.002": lambda: build_graph("random_connected", 2000, seed=7,
                                         extra_edge_prob=0.002),
}


def dense_deciding_eigenvalues(X):
    """deciding_eigenvalues(X) as for a dense base: from one eigvalsh."""
    return netgraph.deciding_eigenvalues(dense(X))


class TestDecidingEigenvalues:
    @pytest.fixture(scope="class", params=sorted(SPARSE_GRAPHS))
    def solved(self, request):
        """Per base (A, L): the sparse path's three eigenvalues, the eigvalsh
        calls that path made, and the dense path's three."""
        g = SPARSE_GRAPHS[request.param]()
        out = {}
        for name, X in (("A", metropolis_matrix(g)), ("L", laplacian_matrix(g))):
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                eigvalsh = np.linalg.eigvalsh
                mp.setattr(np.linalg, "eigvalsh",
                           lambda Y: calls.append(1) or eigvalsh(Y))
                sparse = netgraph.deciding_eigenvalues(X)
            out[name] = (sparse, len(calls), dense_deciding_eigenvalues(X))
        return request.param, out

    @pytest.mark.parametrize("c", [0.3, 0.5, 1.0])
    def test_sparse_scalars_match_eigvalsh(self, solved, c):
        kind, out = solved
        for aid in AlgorithmId:
            sparse, _, dense = out["L" if aid.on_laplacian else "A"]
            mu = 1.0 / dense[2] if aid.on_laplacian else None
            for shifted in ((False,) if aid.on_laplacian else (False, True)):
                pair = [0.5 * (1.0 + e) if shifted else e
                        for e in (sparse, dense)]
                reports = [checked_report(spectrum_triple(aid, e, c, mu))
                           for e in pair]
                assert_reports_agree(*reports)

    def test_lanczos_serves_all_but_the_ring(self, solved):
        kind, out = solved
        for name, (sparse, fallbacks, dense) in out.items():
            if kind == "ring":
                assert np.array_equal(sparse, dense), name
            else:
                assert fallbacks == 0, name
            np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-12)

    def test_same_bits_in_either_order(self, benchmark_graph):
        # The start vector is fixed: ARPACK's own, drawn from a process-wide
        # generator that another eigsh call advances, is not used.
        A = metropolis_matrix(benchmark_graph)
        L = laplacian_matrix(benchmark_graph)
        first = [netgraph.deciding_eigenvalues(X) for X in (A, L)]
        sla.eigsh(sp.csr_matrix(L), k=1)
        second = [netgraph.deciding_eigenvalues(X) for X in (L, A)][::-1]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @pytest.fixture(scope="class")
    def benchmark_A(self, benchmark_graph):
        A = metropolis_matrix(benchmark_graph)
        return A, dense_deciding_eigenvalues(A)

    def test_no_convergence_falls_back(self, benchmark_A, monkeypatch):
        A, dense = benchmark_A

        def no_convergence(*args, **kwargs):
            raise sla.ArpackNoConvergence("no convergence", np.empty(0),
                                          np.empty((A.shape[0], 0)))

        monkeypatch.setattr(netgraph, "eigsh", no_convergence)
        assert np.array_equal(netgraph.deciding_eigenvalues(A), dense)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_wrong_eigenvalue_falls_back(self, benchmark_A, monkeypatch, which):
        # An eigenvalue 1e-9 off, with ARPACK's own eigenvectors: the
        # residual check catches it.
        A, dense = benchmark_A
        eigsh = netgraph.eigsh

        def off(*args, **kwargs):
            w, V = eigsh(*args, **kwargs)
            w = w.copy()
            w[which] += 1e-9
            return w, V

        monkeypatch.setattr(netgraph, "eigsh", off)
        assert np.array_equal(netgraph.deciding_eigenvalues(A), dense)


def table1_reference(row, X, c=None, mu=None):
    """A row's (A_bar, B^2, C) by the table's formulas on the base X:
    X^2, (I - X)^2 and I - X^2 built as matrices, CSR-by-CSR products on
    a CSR base, as netgraph built them before it applied rows as
    polynomials."""
    row = AlgorithmId(row)
    if sp.issparse(X):
        I, zero = sp.identity(X.shape[0], format="csr"), sp.csr_matrix(X.shape)
    else:
        I, zero = np.eye(X.shape[0]), np.zeros_like(X)
    D = I - X
    if row is AlgorithmId.EXACT_DIFFUSION:
        return 0.5 * (I + X), 0.5 * D, zero
    if row is AlgorithmId.NIDS:
        return I - c * D, c * D, zero
    if row is AlgorithmId.AUG_DGM:
        return X @ X, D @ D, zero
    if row is AlgorithmId.ATC_TRACKING:
        return X, D @ D, D
    if row is AlgorithmId.DIGING:
        return I, D @ D, I - X @ X
    if row is AlgorithmId.EXTRA:
        return I, 0.5 * D, 0.5 * D
    return I, c * mu * X, c * mu * X


def table1_recursion(row, X, c=None, mu=None):
    """A row's (A_bar, B^2, C) as the program applies them, applied to the
    identity on the base X (CSR or dense), as dense arrays: I, P = X I and
    Q = X P summed in the order of their powers (P is X bit for bit).  Bit
    for bit the members' products."""
    row = AlgorithmId(row)
    I = np.eye(X.shape[0])
    P = X @ I
    Q, Xd, zero = X @ P, dense(X), np.zeros_like(I)
    if row is AlgorithmId.EXACT_DIFFUSION:
        return 0.5 * I + 0.5 * Xd, 0.5 * I - 0.5 * Xd, zero
    if row is AlgorithmId.NIDS:
        return (1.0 - c) * I + c * Xd, c * I - c * Xd, zero
    if row is AlgorithmId.AUG_DGM:
        return Q, I - 2.0 * P + Q, zero
    if row is AlgorithmId.ATC_TRACKING:
        return Xd, I - 2.0 * P + Q, I - Xd
    if row is AlgorithmId.DIGING:
        return I, I - 2.0 * P + Q, I - Q
    if row is AlgorithmId.EXTRA:
        return I, 0.5 * I - 0.5 * Xd, 0.5 * I - 0.5 * Xd
    return I, c * mu * Xd, c * mu * Xd


def member_sum(coeffs, Z, P, Q):
    """c0 Z + c1 P + c2 Q as a member summed it on its own: each nonzero
    term c V (V itself for c = 1), added left to right into a new array;
    a lone term is its scaled power, a lone unit term its power itself."""
    terms = [V if c == 1.0 else c * V
             for V, c in zip((Z, P, Q), coeffs) if c != 0.0]
    if not terms:
        return np.zeros_like(Z)
    if len(terms) == 1:
        return terms[0]
    out = terms[0] + terms[1]
    for V in terms[2:]:
        out += V
    return out


class TestMatrixForms:
    # The tracking rows run on 0.5 (I + A), the others on A (or L).
    SHIFTED = (AlgorithmId.AUG_DGM, AlgorithmId.ATC_TRACKING, AlgorithmId.DIGING)

    def triples(self, A, L):
        """Per row: (its base, its triple on that base object)."""
        bases = {"A": A, "shifted": shift_positive(A), "L": L}
        out = {}
        for aid in AlgorithmId:
            base = bases["L" if aid.on_laplacian else
                         "shifted" if aid in self.SHIFTED else "A"]
            out[aid] = base, table1_matrices(aid, base, c=0.3, mu=0.1, L=L)
        return out

    def test_benchmark_graph_builds_csr(self, benchmark_graph):
        # Every member is a polynomial holding the CSR base itself, equal
        # bit for bit to the recursion's form.  Against the formulas as
        # first written, with the squares built: NIDS's diagonal,
        # (1 - c) + c x against 1 - c (1 - x) and c - c x against
        # c (1 - x), within 2.3e-16, and the squares to rounding.  (A dense
        # graph's members: tests/test_cli.py, TestSparseGraphs.)
        A, L = metropolis_matrix(benchmark_graph), laplacian_matrix(benchmark_graph)
        assert sp.issparse(A) and sp.issparse(L)
        for aid, (base, t) in self.triples(A, L).items():
            exact = table1_recursion(aid, base, c=0.3, mu=0.1)
            first = [dense(X) for X in table1_reference(aid, base, c=0.3,
                                                        mu=0.1)]
            for X, ref, old in zip((t.A_bar, t.B_sq, t.C), exact, first):
                assert isinstance(X, netgraph.BasePolynomial), aid
                assert X.base is base, aid
                X = dense(X)
                assert np.array_equal(X, ref), aid
                assert np.abs(X - old).max() <= 1e-15, aid
            assert (t.C_product is None) == (not first[2].any())

    @pytest.mark.parametrize("form", ["csr", "dense"])
    def test_no_squared_matrix(self, benchmark_graph, form):
        # No member stores a matrix: each is a polynomial holding the base
        # itself, dense or CSR.
        if form == "csr":
            g = benchmark_graph
        else:
            g = build_graph("random_connected", 20, seed=7, extra_edge_prob=0.2)
        A, L = metropolis_matrix(g), laplacian_matrix(g)
        assert sp.issparse(A) == (form == "csr")
        for aid, (base, t) in self.triples(A, L).items():
            for X in (t.A_bar, t.B_sq, t.C):
                assert isinstance(X, netgraph.BasePolynomial), aid
                assert X.base is base and X.nbytes == 0, aid

    @pytest.mark.parametrize("K", [20, 50, 300])
    @pytest.mark.parametrize("aid", list(AlgorithmId))
    def test_shared_products_match_members(self, aid, K):
        # The triple's one call gives each member's own product bit for
        # bit, and its C product C @ W; K=50 and K=300 give a CSR base,
        # K=20 a dense one.  A degree-2 member is X (X Z) in its terms: no
        # squared matrix is built, on a base of any density.
        g = build_graph("random_connected", K, seed=3,
                        extra_edge_prob=0.3 if K == 20 else 0.005)
        A, L = metropolis_matrix(g), laplacian_matrix(g)
        base = L if aid.on_laplacian else shift_positive(A)
        t = table1_matrices(aid, base, c=0.3, mu=0.1, L=L)
        Z = np.random.default_rng(0).standard_normal((K, 4))
        A_bar_Z, B_sq_Z = t.combine(Z)
        assert np.array_equal(A_bar_Z, t.A_bar @ Z)
        assert np.array_equal(B_sq_Z, t.B_sq @ Z)
        if t.C_product is not None:
            assert np.array_equal(t.C_product(Z), t.C @ Z)
        P = base @ Z
        Q = base @ P
        powers = {(1.0, -2.0, 1.0): Z - 2.0 * P + Q, (0.0, 0.0, 1.0): Q,
                  (1.0, 0.0, -1.0): Z - Q}
        for X in (t.A_bar, t.B_sq, t.C):
            if isinstance(X, netgraph.BasePolynomial) and X.degree == 2:
                assert np.array_equal(X @ Z, powers[X.coeffs]), aid

    # Every row on each base it can take: DIGing not on an A whose
    # spectrum straddles 0, DLM on the Laplacian alone.
    ROW_BASES = [(aid, shifted) for aid in AlgorithmId for shifted in (False, True)
                 if not (aid is AlgorithmId.DIGING and not shifted)
                 and not (aid.on_laplacian and shifted)]

    @pytest.mark.parametrize("form", ["dense", "csr"])
    @pytest.mark.parametrize("c", [0.3, 0.5, 2.0])
    @pytest.mark.parametrize("aid, shifted", ROW_BASES)
    def test_combine_matches_member_sums(self, aid, shifted, c, form):
        # Summed from shared scaled powers, each member is byte for byte
        # its own sum, on stacks with +-0 and +-inf among their entries
        # (NaN only as the products make it).  With c = 2, NIDS's A_bar
        # starts with a negative term.
        g = (build_graph("random_connected", 20, seed=7, extra_edge_prob=0.3)
             if form == "dense" else build_graph("ring", 60))
        A, L = metropolis_matrix(g), laplacian_matrix(g)
        assert sp.issparse(A) == (form == "csr")
        base = L if aid.on_laplacian else shift_positive(A) if shifted else A
        t = table1_matrices(aid, base, c=c, mu=0.1, L=L)
        if aid is AlgorithmId.NIDS and c == 2.0:
            assert t.A_bar.coeffs[0] < 0
        rng = np.random.default_rng(len(aid.value) + int(10 * c))
        Z = rng.standard_normal((g.K, 5))
        mask = rng.random(Z.shape) < 0.3
        Z[mask] = rng.choice([0.0, -0.0, np.inf, -np.inf], size=int(mask.sum()))
        P = base @ Z
        Q = base @ P
        with np.errstate(invalid="ignore"):
            ref = [member_sum(X.coeffs, Z, P, Q) for X in (t.A_bar, t.B_sq, t.C)]
            got = [*t.combine(Z), *(X @ Z for X in (t.A_bar, t.B_sq, t.C))]
            if t.C_product is not None:
                got.append(t.C_product(Z))
        for out, expected in zip(got, ref[:2] + ref + ref[2:]):
            assert out.tobytes() == expected.tobytes(), aid

    @pytest.mark.parametrize("coeffs", [
        (-0.5, -0.3, 0.2), (-1.0, -1.0, 0.0), (-0.5, -2.0, -1.0),
        (0.0, -0.7, -0.7), (0.0, 0.0, -2.0), (-1.0, 0.0, 0.0)])
    @pytest.mark.parametrize("form", ["dense", "csr"])
    def test_negative_leading_terms(self, coeffs, form):
        # No Table I member starts with two negative terms or a lone
        # negative one; a hand-built polynomial that does starts from
        # np.negative, and is still byte for byte the member's own sum off
        # the NaNs the products make of +-inf.  A NaN's sign may differ
        # there: np.negative flips it, where c V keeps it.
        g = (build_graph("random_connected", 20, seed=7, extra_edge_prob=0.3)
             if form == "dense" else build_graph("ring", 60))
        A = metropolis_matrix(g)
        X = netgraph.BasePolynomial(A, coeffs)
        assert X._plan[2][0][0] is np.negative
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((g.K, 5))
        mask = rng.random(Z.shape) < 0.3
        Z[mask] = rng.choice([0.0, -0.0, np.inf, -np.inf], size=int(mask.sum()))
        with np.errstate(invalid="ignore"):
            P = A @ Z
            Q = A @ P
            out, ref = X @ Z, member_sum(coeffs, Z, P, Q)
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(out), nan)
        assert out[~nan].tobytes() == ref[~nan].tobytes()

    @pytest.mark.parametrize("aid, scales", [
        ("ExactDiffusion", ((0, 0.5), (1, 0.5))),
        ("NIDS", ((0, 0.3), (0, 0.7), (1, 0.3))),
        ("AugDGM", ((1, 2.0),)), ("EXTRA", ((0, 0.5), (1, 0.5)))])
    def test_scaled_powers_formed_once(self, aid, scales):
        # A_bar and B^2 share each distinct |c| V_p: ExactDiffusion forms
        # 0.5 Z and 0.5 P once each, four K x M passes with its two sums.
        A = metropolis_matrix(build_graph("ring", 6))
        t = table1_matrices(aid, A, c=0.3)
        _, shared, sums = t._plan
        assert shared == scales and len(sums) == 2

    def test_identity_member_costs_no_product(self):
        # DIGing's, EXTRA's and DLM's A_bar = I gives Z itself.
        g = build_graph("random_connected", 50, seed=3, extra_edge_prob=0.005)
        A, L = metropolis_matrix(g), laplacian_matrix(g)
        Z = np.random.default_rng(0).standard_normal((50, 4))
        for aid in ("DIGing", "EXTRA", "DLM"):
            t = table1_matrices(aid, shift_positive(A), c=0.3, mu=0.1, L=L)
            assert t.A_bar.coeffs == (1.0, 0.0, 0.0)
            assert t.A_bar @ Z is Z and t.combine(Z)[0] is Z

    def test_hand_built_csr_zero_C(self):
        # The tests' matrix form counts C as zero by its stored values,
        # explicit zeros too; the engine then makes no C product.
        K = 50
        I = sp.identity(K, format="csr")
        explicit = sp.csr_matrix((np.zeros(K), np.arange(K), np.arange(K + 1)),
                                 shape=(K, K))
        assert MatrixTriple(I, I, sp.csr_matrix((K, K))).C_product is None
        assert MatrixTriple(I, I, explicit).C_product is None
        assert MatrixTriple(I, I, I).C_product is not None
