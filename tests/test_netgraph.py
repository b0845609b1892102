import dataclasses
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from decprox import netgraph
from decprox.netgraph import (
    AlgorithmId,
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


def loop_degrees(g):
    d = np.zeros(g.K, dtype=int)
    for (s, k) in g.edges:
        d[s] += 1
        d[k] += 1
    return d


def loop_adjacency(g):
    adj = np.zeros((g.K, g.K))
    for (s, k) in g.edges:
        adj[s, k] = adj[k, s] = 1.0
    return adj


def loop_metropolis(g):
    """The Metropolis rule as first written, one edge at a time: the
    reference for metropolis_matrix."""
    d = loop_degrees(g)
    A = np.zeros((g.K, g.K))
    for (s, k) in g.edges:
        w = 1.0 / (1.0 + max(d[s], d[k]))
        A[s, k] = A[k, s] = w
    np.fill_diagonal(A, 1.0 - A.sum(axis=1))
    return A


def loop_laplacian(g):
    adj = loop_adjacency(g)
    return np.diag(adj.sum(axis=1)) - adj


def dense(X):
    """X as a dense ndarray, whichever form netgraph built it in."""
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

    def test_edge_in_both_orientations_rejected(self):
        # Stored twice, the edge would count twice in each end's degree:
        # degrees [2, 3, 1] and Metropolis weights 1/4 where 1/3 is right.
        with pytest.raises(ValueError, match="both orientations"):
            Graph(K=3, edges=frozenset({(0, 1), (1, 0), (1, 2)}))
        g = Graph(K=3, edges=frozenset({(1, 0), (1, 2)}))
        assert g.degrees().tolist() == [1, 2, 1]
        assert metropolis_matrix(g)[0, 1] == 1.0 / 3.0


class TestMetropolis:
    @pytest.mark.parametrize("kind, K, p", [
        ("ring", 2000, 0.0), ("ring", 3, 0.0), ("grid", 2000, 0.0),
        ("grid", 7, 0.0), ("complete", 150, 0.0), ("complete", 2, 0.0),
        ("random_connected", 2000, 0.002), ("random_connected", 2000, 0.0),
        ("random_connected", 40, 0.3)])
    def test_edge_array_matches_edge_loops(self, kind, K, p):
        # Built from one edge-index array, bit for bit as one edge at a time
        # into a dense matrix, in the form the edge count decides.
        g = build_graph(kind, K, seed=7, extra_edge_prob=p)
        assert np.array_equal(g.degrees(), loop_degrees(g))
        assert g.degrees().dtype == loop_degrees(g).dtype
        assert np.array_equal(g.adjacency(), loop_adjacency(g))
        A, L = metropolis_matrix(g), laplacian_matrix(g)
        sparse = K + 2 * len(g.edges) < netgraph.CSR_DENSITY * K * K
        for X in (A, L, shift_positive(A)):
            assert sp.issparse(X) == sparse
            assert_engine_form(X)
        assert np.array_equal(dense(A), loop_metropolis(g))
        assert np.array_equal(dense(L), loop_laplacian(g))
        assert np.array_equal(dense(shift_positive(A)),
                              0.5 * (np.eye(K) + loop_metropolis(g)))

    def test_disconnected_graph_rejected(self):
        g = Graph(K=4, edges=frozenset({(0, 1), (2, 3)}))
        assert not g.is_connected()
        for build in (metropolis_matrix, laplacian_matrix):
            with pytest.raises(ValueError, match="connected"):
                build(g)

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
        K = 7
        zero = np.zeros(3)
        bad = ConsensusTriple(A_bar=np.zeros((K, K)), B_sq=np.zeros((K, K)),
                              C=2.0 * np.eye(K),
                              spectrum=(zero, zero, np.full(3, 2.0)))
        r = validate_assumptions(bad)
        assert not r.assumption2_ok and not r.assumption4_ok
        ref = reference_report(bad)
        assert not ref["assumption2_ok"] and not ref["assumption4_ok"]

    def test_triple_without_spectrum_rejected(self):
        # A hand-built triple's matrices need not commute, so no three
        # eigenvalues decide it; the check takes none but a table triple's.
        t = table1_matrices("ExactDiffusion", self.A)
        hand_built = ConsensusTriple(t.A_bar, t.B_sq, t.C)
        with pytest.raises(ValueError, match="no spectrum"):
            validate_assumptions(hand_built)

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


def reference_report(t, psd_tol=netgraph.PSD_TOL):
    """The report's fields and the two gap minima of a triple, from five
    eigendecompositions of its matrices, with the smallest nonzero B^2
    eigenvalue taken over the whole spectrum: the check as it read a
    triple before it read three paired eigenvalues."""
    eig_C = np.linalg.eigvalsh(t.C)
    eig_Bsq = np.linalg.eigvalsh(t.B_sq)
    eig_A = np.linalg.eigvalsh(t.A_bar)
    gap = np.linalg.eigvalsh(np.eye(t.K) - t.B_sq - t.A_bar @ t.A_bar)
    cb_gap = np.linalg.eigvalsh(t.C - t.B_sq)
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
        t = table1_matrices("ExactDiffusion", A)
        A[0, 1] += 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            table1_matrices("ExactDiffusion", A)
        # The check still tests each matrix of a triple it is handed.
        with pytest.raises(ValueError, match="A_bar is not symmetric"):
            validate_assumptions(dataclasses.replace(t, A_bar=A))

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
    matrices (2 x 2 identities stand in for them)."""
    I = np.eye(2)
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


def csr_copy_product(P, Q):
    """P @ Q for dense P and Q, summed as a CSR copy of P times Q sums:
    in order of P's column index, one row at a time."""
    return sp.csr_matrix(P) @ Q


def table1_reference(row, X, c=None, mu=None, prod=np.matmul):
    """A row's (A_bar, B^2, C) by the table's formulas on the dense base
    X, with ``prod`` the matrix product."""
    row = AlgorithmId(row)
    I = np.eye(X.shape[0])
    D, zero = I - X, np.zeros_like(X)
    if row is AlgorithmId.EXACT_DIFFUSION:
        return 0.5 * (I + X), 0.5 * D, zero
    if row is AlgorithmId.NIDS:
        return I - c * D, c * D, zero
    if row is AlgorithmId.AUG_DGM:
        return prod(X, X), prod(D, D), zero
    if row is AlgorithmId.ATC_TRACKING:
        return X, prod(D, D), D
    if row is AlgorithmId.DIGING:
        return I, prod(D, D), I - prod(X, X)
    if row is AlgorithmId.EXTRA:
        return I, 0.5 * D, 0.5 * D
    return I, c * mu * X, c * mu * X


class TestMatrixForms:
    # The tracking rows run on 0.5 (I + A), the others on A (or L).
    SHIFTED = (AlgorithmId.AUG_DGM, AlgorithmId.ATC_TRACKING, AlgorithmId.DIGING)

    def triples(self, A, L):
        return {aid: table1_matrices(
                    aid, shift_positive(A) if aid in self.SHIFTED else A,
                    c=0.3, mu=0.1, L=L)
                for aid in AlgorithmId}

    def test_benchmark_graph_builds_csr(self, benchmark_graph):
        # Every matrix is canonical CSR, and equal bit for bit to the dense
        # formula with its products through a CSR copy of the left factor.
        # (A dense graph's matrices: tests/test_cli.py, TestSparseGraphs.)
        A, L = metropolis_matrix(benchmark_graph), laplacian_matrix(benchmark_graph)
        for aid, t in self.triples(A, L).items():
            base = L if aid.on_laplacian else (
                shift_positive(A) if aid in self.SHIFTED else A)
            expected = table1_reference(aid, dense(base), c=0.3, mu=0.1,
                                        prod=csr_copy_product)
            for X, ref in zip((t.A_bar, t.B_sq, t.C), expected):
                assert sp.issparse(X), aid
                assert_engine_form(X)
                assert np.array_equal(X.toarray(), ref), aid
            assert t.C_is_zero == (not expected[2].any())

    def test_dense_enough_product_densified(self):
        # A 50-agent ring has 6% nonzeros, so A is CSR, but AugDGM's A^2
        # and (I - A)^2 have 10% and are ndarrays, as their CSR products'
        # nonzeros decide.
        A = metropolis_matrix(build_graph("ring", 50))
        t = table1_matrices("AugDGM", A)
        D = np.eye(50) - dense(A)
        assert sp.issparse(A)
        assert isinstance(t.A_bar, np.ndarray) and isinstance(t.B_sq, np.ndarray)
        assert np.array_equal(t.A_bar, csr_copy_product(dense(A), dense(A)))
        assert np.array_equal(t.B_sq, csr_copy_product(D, D))

    def test_hand_built_csr_zero_C(self):
        # C_is_zero reads a CSR matrix's stored values, explicit zeros too.
        K = 50
        I = sp.identity(K, format="csr")
        explicit = sp.csr_matrix((np.zeros(K), np.arange(K), np.arange(K + 1)),
                                 shape=(K, K))
        assert ConsensusTriple(I, I, sp.csr_matrix((K, K))).C_is_zero
        assert ConsensusTriple(I, I, explicit).C_is_zero
        assert not ConsensusTriple(I, I, I).C_is_zero
