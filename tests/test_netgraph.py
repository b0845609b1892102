import dataclasses
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from decprox import netgraph
from decprox.netgraph import (
    AlgorithmId,
    Graph,
    build_graph,
    laplacian_matrix,
    metropolis_matrix,
    shift_positive,
    table1_matrices,
    validate_assumptions,
)


def per_pair_random_connected(K, seed, p):
    """The edge sampler as first written, one draw per node pair in
    row-major order: the reference for build_graph's sampler."""
    rng = np.random.default_rng(seed)
    edges = set(netgraph._prufer_tree(K, rng))
    for s in range(K):
        for k in range(s + 1, K):
            if (s, k) not in edges and rng.random() < p:
                edges.add((s, k))
    return frozenset(edges)


@pytest.fixture(scope="module")
def benchmark_graph():
    """The 2000-agent graph of the sparse benchmark workload."""
    return build_graph("random_connected", 2000, seed=7, extra_edge_prob=0.0005)


def random_graphs(n=20):
    return [build_graph("random_connected", K, seed=i, extra_edge_prob=0.25)
            for i, K in enumerate(range(3, 3 + n))]


class TestGraphs:
    def test_known_kinds_connected(self):
        for kind in ("ring", "grid", "complete"):
            for K in (2, 3, 7, 12):
                g = build_graph(kind, K)
                assert g.K == K
                assert g.is_connected()

    def test_complete_edge_count(self):
        g = build_graph("complete", 6)
        assert len(g.edges) == 15

    def test_random_connected_is_connected(self):
        for g in random_graphs():
            assert g.is_connected()

    def test_random_connected_deterministic(self):
        a = build_graph("random_connected", 15, seed=4, extra_edge_prob=0.3)
        b = build_graph("random_connected", 15, seed=4, extra_edge_prob=0.3)
        assert a.edges == b.edges

    @pytest.mark.parametrize("K", [2, 3, 15, 30, 200])
    @pytest.mark.parametrize("p", [0.0, 0.02, 0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_random_connected_matches_per_pair_sampler(self, K, p, seed):
        g = build_graph("random_connected", K, seed=seed, extra_edge_prob=p)
        assert g.edges == per_pair_random_connected(K, seed, p)

    def test_benchmark_graph_pinned(self, benchmark_graph):
        # Edge count and checksum of the sorted edge list, as the per-pair
        # sampler drew them.
        edges = sorted(benchmark_graph.edges)
        text = "".join(f"{s} {k}\n" for s, k in edges)
        assert len(edges) == 3014
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "09682ba7010d49c37404088630decdcd92f4c20bdb6557a34f0424510eb4327d")

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
        with pytest.raises(ValueError):
            Graph(K=3, edges=frozenset({(0, 0)}))
        with pytest.raises(ValueError):
            Graph(K=3, edges=frozenset({(0, 5)}))


class TestMetropolis:
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
        adj = g.adjacency()
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
        assert np.allclose(t.A_bar, 0.5 * (self.I + self.A))
        assert np.allclose(t.B_sq, 0.5 * (self.I - self.A))
        assert np.allclose(t.C, 0.0)

    def test_nids_row(self):
        t = table1_matrices("NIDS", self.A, c=0.3)
        assert np.allclose(t.A_bar, self.I - 0.3 * (self.I - self.A))
        assert np.allclose(t.B_sq, 0.3 * (self.I - self.A))

    def test_tracking_rows(self):
        IA2 = (self.I - self.A) @ (self.I - self.A)
        t = table1_matrices("AugDGM", self.A)
        assert np.allclose(t.A_bar, self.A @ self.A)
        assert np.allclose(t.B_sq, IA2)
        assert np.allclose(t.C, 0.0)
        t = table1_matrices("ATCTracking", self.A)
        assert np.allclose(t.A_bar, self.A)
        assert np.allclose(t.B_sq, IA2)
        assert np.allclose(t.C, self.I - self.A)
        t = table1_matrices("DIGing", self.A)
        assert np.allclose(t.A_bar, self.I)
        assert np.allclose(t.C, self.I - self.A @ self.A)

    def test_extra_dlm_rows(self):
        t = table1_matrices("EXTRA", self.A)
        assert np.allclose(t.B_sq, 0.5 * (self.I - self.A))
        assert np.allclose(t.B_sq, t.C)
        t = table1_matrices("DLM", self.A, c=0.2, mu=0.1, L=self.L)
        assert np.allclose(t.B_sq, 0.02 * self.L)
        assert np.allclose(t.B_sq, t.C)

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
            for X in (t.B_sq, t.C):
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
        from decprox.netgraph import ConsensusTriple
        K = 7
        bad = ConsensusTriple(A_bar=np.zeros((K, K)), B_sq=np.zeros((K, K)),
                              C=2.0 * np.eye(K))
        r = validate_assumptions(bad)
        assert not r.assumption2_ok and not r.assumption4_ok

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
        eig_A = np.sort(np.linalg.eigvalsh(t.A_bar))
        assert r.lambda2_A == pytest.approx(eig_A[-2], abs=1e-12)
        nonzero = [x for x in np.linalg.eigvalsh(t.B_sq) if x > 1e-10]
        assert r.sigma_min_Bsq == pytest.approx(min(nonzero), abs=1e-12)


def reference_report(t):
    """The report from five eigendecompositions of the triple's matrices."""
    return validate_assumptions(dataclasses.replace(t, spectrum=None))


def assert_reports_agree(r, ref):
    assert r.assumption2_ok == ref.assumption2_ok
    assert r.assumption4_ok == ref.assumption4_ok
    for name in ("sigma_max_C", "sigma_min_Bsq", "lambda2_A"):
        assert abs(getattr(r, name) - getattr(ref, name)) <= 1e-12, name
    assert r.diagnostics.keys() == ref.diagnostics.keys()
    for key, value in r.diagnostics.items():
        np.testing.assert_allclose(value, ref.diagnostics[key], rtol=0,
                                   atol=1e-12, err_msg=key)


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
        t = table1_matrices(aid, A, c=0.3, mu=1.0 / sL, L=L)
        assert t.spectrum is not None
        assert_reports_agree(validate_assumptions(t), reference_report(t))

    def test_asymmetric_base_gets_no_spectrum(self):
        A = metropolis_matrix(build_graph("ring", 5))
        A[0, 1] += 1e-6
        t = table1_matrices("ExactDiffusion", A)
        assert t.spectrum is None
        with pytest.raises(ValueError, match="not symmetric"):
            validate_assumptions(t)

    @pytest.mark.parametrize("bump, symmetric", [
        (0.9e-12, True), (1.1e-12, False), (np.nan, False)])
    def test_symmetry_tolerance(self, bump, symmetric):
        # max |X - X^T| <= 1e-12 passes, anything larger or NaN fails,
        # on either side of the diagonal and in any tile.
        for (i, j) in ((0, 1), (1, 0), (299, 3), (3, 299)):
            X = np.eye(300)
            X[i, j] += bump
            assert netgraph._is_symmetric(X) is symmetric, (i, j)


class TestCombineOperators:
    @staticmethod
    def triples(g):
        A = metropolis_matrix(g)
        return [table1_matrices("ExactDiffusion", A),
                table1_matrices("AugDGM", shift_positive(A))]

    @pytest.mark.parametrize("g", [
        build_graph("random_connected", 20, seed=7, extra_edge_prob=0.2),
        build_graph("complete", 2)], ids=["K20", "K2"])
    def test_dense_graphs_keep_dense_products(self, g):
        for t in self.triples(g):
            assert t.A_bar_op is t.A_bar and t.B_sq_op is t.B_sq

    def test_benchmark_graph_goes_through_csr(self, benchmark_graph):
        for t in self.triples(benchmark_graph):
            for op, X in ((t.A_bar_op, t.A_bar), (t.B_sq_op, t.B_sq)):
                assert sp.issparse(op)
                assert isinstance(X, np.ndarray)
                assert op.nnz == np.count_nonzero(X)
