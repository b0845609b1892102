import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from decprox import cli, engine
from decprox.analysis import fixed_point_residuals, step_bound
from decprox.costs import quadratic_cost
from decprox.engine import (
    ALGORITHMS,
    BlockIterate,
    initial_state,
    rel_sq_error,
    run,
)
from decprox.netgraph import (
    AlgorithmId,
    build_graph,
    laplacian_matrix,
    metropolis_matrix,
    shift_positive,
    table1_matrices,
    validate_assumptions,
)
from decprox.prox import L1Prox, ZeroProx, prox_l1

import appendix_forms as appendix
import cost_oracle
from cost_oracle import random_quadratic_set
from prox_oracle import prox_row
from test_netgraph import BENCHMARK_GRAPH, table1_reference


def make_network(K=6, seed=3, extra=0.3):
    g = build_graph("random_connected", K, seed=seed, extra_edge_prob=extra)
    return metropolis_matrix(g), laplacian_matrix(g)


def trajectory(step, costs, init, iters):
    st = appendix.start_at(costs, init)
    out = []
    for _ in range(iters):
        st = step(st)
        out.append(st.W.copy())
    return out, st


SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])


def special_stack(seed, shape=(7, 5)):
    """A random stack with +-0, NaN and +-inf among its entries."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(shape)
    mask = rng.random(shape) < 0.3
    X[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return X


def same_bytes(a, b):
    """Equal bit for bit, NaN payloads and signed zeros included."""
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def max_dev(a, b):
    scale = max(max(np.abs(x).max() for x in a), 1.0)
    return max(np.abs(x - y).max() for x, y in zip(a, b)) / scale


class TestPudaStep:
    def test_k1_is_ista(self):
        # K=1, A_bar=1, B^2=0, C=0: one step equals prox(w - mu grad(w)).
        costs = random_quadratic_set(1, 4, seed=0)
        t = appendix.MatrixTriple(A_bar=np.eye(1), B_sq=np.zeros((1, 1)),
                                  C=np.zeros((1, 1)))
        prox = L1Prox(0.3)
        mu = 0.4
        w = np.array([[1.0, -2.0, 0.5, 3.0]])
        st = appendix.start_at(costs, w)
        out = engine.puda_step(st, t, costs, prox, mu)
        grad = cost_oracle.random_quadratic_cost(1, 4, seed=0).grad(0, w[0])
        expected = prox_row(prox, w[0] - mu * grad, mu)
        assert np.allclose(out.W[0], expected, atol=1e-14)

    def test_fixed_point_invariance(self):
        # Converge, then verify one more step moves nothing.
        A, _ = make_network()
        costs = random_quadratic_set(6, 4, seed=1)
        t = table1_matrices("ExactDiffusion", A)
        prox = L1Prox(0.05)
        mu = 0.5
        st = initial_state(costs)
        for _ in range(4000):
            st = engine.puda_step(st, t, costs, prox, mu)
        nxt = engine.puda_step(st, t, costs, prox, mu)
        assert np.abs(nxt.W - st.W).max() <= 1e-12
        assert np.abs(nxt.S - st.S).max() <= 1e-12

    def test_dual_surrogate_column_average_zero(self):
        # With B^2 1 = 0 and S_0 = 0, S keeps zero column-average forever.
        A, _ = make_network()
        costs = random_quadratic_set(6, 3, seed=2)
        t = table1_matrices("ExactDiffusion", A)
        st = initial_state(costs, seed=8)
        for _ in range(50):
            st = engine.puda_step(st, t, costs, ZeroProx(), 0.3)
            assert np.abs(st.S.mean(axis=0)).max() <= 1e-12

    @pytest.mark.parametrize("aid, zero", [
        ("ExactDiffusion", True), ("NIDS", True), ("AugDGM", True),
        ("ATCTracking", False), ("DIGing", False), ("EXTRA", False)])
    def test_c_is_zero(self, aid, zero):
        A, _ = make_network()
        t = table1_matrices(aid, shift_positive(A), c=0.5)
        assert (t.C_product is None) is zero

    @pytest.mark.parametrize("aid", ["ExactDiffusion", "ATCTracking"])
    def test_step_matches_recursion_bit_for_bit(self, aid):
        # Skipping the zero C, and computing only grad(W_new), change no bit.
        A, _ = make_network()
        costs = random_quadratic_set(6, 4, seed=1)
        t = table1_matrices(aid, shift_positive(A))
        prox, mu = L1Prox(0.05), 0.3
        st = initial_state(costs, seed=2)
        W, S = st.W, st.S
        for _ in range(20):
            Z = W - t.C @ W - mu * costs.grad_stack(W) - S
            S = S + t.B_sq @ Z
            W = prox.apply_stack(t.A_bar @ Z, mu)
            st = engine.puda_step(st, t, costs, prox, mu)
            assert np.array_equal(st.W, W) and np.array_equal(st.S, S)
            assert np.array_equal(st.G, costs.grad_stack(W))


class TestLeanBookkeeping:
    """Each K x M expression builds one array and works in place, with the
    same operations in the same order: the expressions as first written
    are the references, on stacks with +-0, NaN and +-inf."""

    @pytest.mark.parametrize("seed", range(5))
    def test_rel_sq_error(self, seed):
        W = special_stack(seed)
        for w_star in (special_stack(seed + 10, (5,)),
                       np.random.default_rng(seed).standard_normal(5),
                       np.zeros(5)):
            with np.errstate(invalid="ignore"):
                diff = W - w_star[None, :]
                denom = float(w_star @ w_star)
                total = float((diff * diff).sum())
                ref = total / denom if denom > 0 else total
                assert same_bytes(rel_sq_error(W, w_star, denom), ref)

    @pytest.mark.parametrize("zero_C", [True, False])
    @pytest.mark.parametrize("seed", range(5))
    def test_puda_step_Z(self, seed, zero_C):
        K, M, mu = 7, 5, 0.3
        W, G, S = (special_stack(seed + i) for i in range(3))
        C = (np.zeros((K, K)) if zero_C
             else np.random.default_rng(seed).standard_normal((K, K)))
        t = appendix.MatrixTriple(np.eye(K), np.eye(K), C)
        state = BlockIterate(W=W, W_prev=W, G=G, S=S)
        with np.errstate(invalid="ignore"):
            out = engine.puda_step(state, t, quadratic_cost(1.0, K, M),
                                   ZeroProx(), mu)
            ref = (W - mu * G - S) if zero_C else (W - C @ W - mu * G - S)
        assert same_bytes(out.Z, ref)


class TestCsrCombine:
    @pytest.mark.parametrize("aid", list(AlgorithmId))
    def test_csr_and_dense_products_agree(self, aid):
        # A sparse graph's triple is polynomials in a CSR base; the same
        # matrices as ndarrays, the squared ones built, take the same steps
        # to rounding.
        K, M = 300, 5
        A, L = make_network(K=K, seed=3, extra=0.005)
        t = table1_matrices(aid, shift_positive(A), c=0.5, mu=0.05, L=L)
        costs = quadratic_cost(1.0, K, M, targets=np.random.default_rng(0)
                               .standard_normal((K, M)))
        prox, mu = L1Prox(0.05), 0.3
        st = initial_state(costs, seed=1)
        for _ in range(10):
            st = engine.puda_step(st, t, costs, prox, mu)
        members = (t.A_bar, t.B_sq, t.C)
        assert all(sp.issparse(X.base) for X in members)

        dense = appendix.MatrixTriple(*(X @ np.eye(K) for X in members))
        assert (dense.C_product is None) == (t.C_product is None)
        ref = initial_state(costs, seed=1)
        for _ in range(10):
            ref = engine.puda_step(ref, dense, costs, prox, mu)
        for name in ("W", "S", "Z", "G", "B_sq_Z"):
            np.testing.assert_allclose(getattr(st, name), getattr(ref, name),
                                       rtol=0, atol=1e-12, err_msg=name)


# The polynomial rows' tolerance against the matrix form (c0 I + c1 X,
# X^2, (I - X)^2 and I - X^2 built): relative error <= REL_TOL on every row
# whose error is at least FLOOR times the first, and
# |sqrt(e') - sqrt(e)| <= SQRT_TOL times sqrt of the first on every row,
# where rounding dominates.
REL_TOL, FLOOR, SQRT_TOL = 1e-10, 1e-10, 1e-14

# Dense K=20 (the README graph), CSR K=300 and the CSR benchmark graph.
TOLERANCE_GRAPHS = {
    "dense20": {"kind": "random_connected", "K": 20, "seed": 7,
                "extra_edge_prob": 0.2},
    "csr300": {"kind": "random_connected", "K": 300, "seed": 3,
               "extra_edge_prob": 0.01},
    "csr2000": BENCHMARK_GRAPH,
}


def assert_within_tolerance(errors, reference):
    e, ref = np.asarray(errors), np.asarray(reference)
    above = ref >= FLOOR * ref[0]
    rel = np.abs(e[above] - ref[above]) / ref[above]
    assert rel.max() <= REL_TOL, rel.max()
    dev = np.abs(np.sqrt(e) - np.sqrt(ref)).max()
    assert dev <= SQRT_TOL * np.sqrt(ref[0]), dev


class TestTable1Rows:
    @pytest.fixture(scope="class", params=sorted(TOLERANCE_GRAPHS))
    def network(self, request):
        g = build_graph(**TOLERANCE_GRAPHS[request.param])
        A, L = metropolis_matrix(g), laplacian_matrix(g)
        assert sp.issparse(A) == request.param.startswith("csr")
        return A, L

    @pytest.mark.parametrize("name", [n for n, a in ALGORITHMS.items()
                                      if a.row is not None])
    def test_matches_matrix_form(self, network, name):
        # 3000 iterations, at 0.9 of the step bound, of the row applied as
        # polynomials and of its matrix form, as a MatrixTriple.  The
        # Table I names run smooth (R = 0), the Prox names with l1.
        (A, L), M, rho, c = network, 4, 0.05, 0.3
        K = A.shape[0]
        algo = ALGORITHMS[name]
        if algo.shifted:
            A = shift_positive(A)
        targets = np.random.default_rng(K).standard_normal((K, M))
        costs = quadratic_cost(1.0, K, M, targets=targets)
        if name.startswith("Prox"):
            prox, w_star = L1Prox(rho), prox_l1(targets.mean(axis=0), rho)
        else:
            prox, w_star = ZeroProx(), targets.mean(axis=0)
        sigma = validate_assumptions(
            table1_matrices(algo.row, A, c=c, mu=1.0, L=L)).sigma_max_C
        if algo.row == "DLM":  # C = c mu L: mu = 0.9 of the bound it sets
            mu = 1.8 / (costs.delta + 1.8 * sigma)
        else:
            mu = 0.9 * step_bound(algo.theorem, sigma, costs.delta)
        t = table1_matrices(algo.row, A, c=c, mu=mu, L=L)
        matrix_form = appendix.MatrixTriple(*table1_reference(
            algo.row, L if algo.row == "DLM" else A, c=c, mu=mu))
        errors = [run(algo, engine.primal_dual(costs, prox, mu, triple), costs,
                      w_star, 3000).errors for triple in (t, matrix_form)]
        assert_within_tolerance(*errors)


def rebuilt_residuals(st, mu):
    """The fixed-point residuals as first written, rebuilding W - mu
    grad(W) - S from the state at the step's mu: the reference for the
    ones read off the step's Z_next."""
    scale = np.sqrt(st.W.size)
    d = st.Z - (st.W - mu * st.G - st.S)
    return (np.sqrt((d * d).sum()) / scale,
            np.sqrt((st.B_sq_Z * st.B_sq_Z).sum()) / scale, 0.0)


class TestCarriedZ:
    """Every step leaves W - mu grad(W) - S at its new iterate (Z_next).
    Where C is zero the next step reads it as its Z: byte for byte the run
    that drops it every step, so that the step rebuilds it.  The residuals
    read it on every row: byte for byte the expression they rebuilt."""

    @pytest.mark.parametrize("graph", ["dense20", "csr300"])
    @pytest.mark.parametrize("name", ["ProxED", "ProxATC1"])
    def test_carried_against_rebuilt(self, graph, name):
        A = metropolis_matrix(build_graph(**TOLERANCE_GRAPHS[graph]))
        assert sp.issparse(A) == graph.startswith("csr")
        algo = ALGORITHMS[name]
        if algo.shifted:
            A = shift_positive(A)
        K, M = A.shape[0], 4
        targets = np.random.default_rng(K).standard_normal((K, M))
        costs = quadratic_cost(1.0, K, M, targets=targets)
        t = table1_matrices(algo.row, A)
        assert t.C_product is None
        mu = 0.9 * step_bound(algo.theorem, 0.0, costs.delta)
        step = engine.primal_dual(costs, L1Prox(0.05), mu, t)
        w_star = prox_l1(targets.mean(axis=0), 0.05)

        def drop(st):
            return dataclasses.replace(st, Z_next=None)

        carried = run(algo, step, costs, w_star, 200, seed=1,
                      residual_fn=fixed_point_residuals)
        rebuilt = run(
            algo, lambda st: step(drop(st)), costs, w_star, 200, seed=1,
            residual_fn=lambda st: rebuilt_residuals(st, mu))
        assert carried.final_state.Z_next is not None
        assert same_bytes(carried.errors, rebuilt.errors)
        assert same_bytes(carried.residuals, rebuilt.residuals)
        for field in ("W", "G", "S", "Z", "B_sq_Z", "Z_next"):
            assert same_bytes(getattr(carried.final_state, field),
                              getattr(rebuilt.final_state, field)), field

    @pytest.mark.parametrize("graph", ["dense20", "csr300"])
    @pytest.mark.parametrize("name", [name for name, a in ALGORITHMS.items()
                                      if a.row is not None])
    def test_residuals_read_against_rebuilt(self, graph, name):
        # The ten Table I names, with C zero or not, at their auto step.
        cfg = cli.config_from_dict({
            "problem": "lasso_quadratic", "graph": TOLERANCE_GRAPHS[graph],
            "rho": 0.05, "data": {"dim": 4}, "algorithms": [name]})
        p = cli.build_problem(cfg)
        assert sp.issparse(p.A) == (graph == "csr300")
        r = cli.resolve_algorithm(cfg.algorithms[0], cfg, p)
        record = run(r.algorithm, r.step, p.costs, p.w_star, 60, seed=1,
                     residual_fn=lambda st: (fixed_point_residuals(st),
                                             rebuilt_residuals(st, r.mu)))
        assert len(record.residuals) == 60
        for read, rebuilt in record.residuals:
            assert same_bytes(read, rebuilt)


def contents(v):
    """What a state field holds, all the way down: each array's dtype,
    shape and bytes, and the identity of every object it reaches."""
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, (list, tuple)):
        return type(v), tuple((id(x), contents(x)) for x in v)
    return v


def snapshot(state):
    return {f.name: (id(getattr(state, f.name)), contents(getattr(state, f.name)))
            for f in dataclasses.fields(state)}


class TestStepsLeaveTheirInput:
    """No step writes to the state it is given or rebinds its fields: every
    entry's step, from a mid-run state, leaves each field the same object
    with the same bytes, the chain prox's carried segmentation included."""

    def _states(self, cfg, name, n):
        cfg = cli.config_from_dict({**cfg, "algorithms": [name]})
        p = cli.setup_problem(cfg)
        step = cli.resolve_algorithm(cfg.algorithms[0], cfg, p).step
        st = initial_state(p.costs, seed=1)
        for _ in range(n):
            st = step(st)
        return step, st, p

    @pytest.mark.parametrize("graph", ["dense20", "csr300"])
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_entry(self, graph, name):
        step, st, p = self._states(
            {"problem": "lasso_quadratic", "graph": TOLERANCE_GRAPHS[graph],
             "rho": 0.05, "data": {"dim": 4}}, name, 5)
        assert sp.issparse(p.A) == (graph == "csr300")
        before = snapshot(st)
        nxt = step(st)
        assert snapshot(st) == before
        assert nxt is not st and nxt.iter == st.iter + 1

    @pytest.mark.parametrize("name", ["PGEXTRA", "DLADMM", "ProxED"])
    def test_counterexample(self, name):
        step, st, _ = self._states({**cli.COUNTEREXAMPLE_PRESET, "M": 8},
                                   name, 20)
        if name == "ProxED":
            assert st.W_segments is not None
            assert all(seg is not None for seg in st.W_segments)
        before = snapshot(st)
        step(st)
        assert snapshot(st) == before


class TestEquivalenceWeb:
    """Appendix B/C identities: every execution form of a Table I row
    produces the same W trajectory."""

    def setup_method(self):
        self.A_raw, self.L = make_network(K=5, seed=7, extra=0.35)
        self.A = shift_positive(self.A_raw)
        self.costs = random_quadratic_set(5, 3, seed=4)
        self.mu = 0.25
        self.init = np.random.default_rng(10).standard_normal((5, 3))

    def _puda(self, triple, iters=200):
        step = engine.primal_dual(self.costs, ZeroProx(), self.mu, triple)
        return trajectory(step, self.costs, self.init, iters)[0]

    def test_prox_ed_forms(self):
        t = table1_matrices("ExactDiffusion", self.A_raw)
        ref = self._puda(t)
        agent, _ = trajectory(
            appendix.agent_prox_ed(self.costs, ZeroProx(), self.mu, self.A_raw),
            self.costs, self.init, 200)
        elim, _ = trajectory(
            appendix.eliminated_diffusion(self.costs, self.mu,
                                        shift_positive(self.A_raw)),
            self.costs, self.init, 200)
        assert max_dev(ref, agent) <= 1e-10
        assert max_dev(ref, elim) <= 1e-10

    def test_prox_ed_with_common_prox(self):
        t = table1_matrices("ExactDiffusion", self.A_raw)
        prox = L1Prox(0.1)
        a = trajectory(engine.primal_dual(self.costs, prox, self.mu, t),
                       self.costs, self.init, 100)[0]
        b = trajectory(appendix.agent_prox_ed(self.costs, prox, self.mu,
                                            self.A_raw),
                       self.costs, self.init, 100)[0]
        assert max_dev(a, b) <= 1e-10

    def test_nids_eliminated(self):
        t = table1_matrices("NIDS", self.A_raw, c=0.3)
        ref = self._puda(t)
        elim, _ = trajectory(
            appendix.eliminated_diffusion(self.costs, self.mu, t.A_bar),
            self.costs, self.init, 200)
        assert max_dev(ref, elim) <= 1e-10

    def test_aug_dgm_forms(self):
        t = table1_matrices("AugDGM", self.A)
        ref = self._puda(t, 100)
        for step in (appendix.agent_prox_atc1(self.costs, ZeroProx(), self.mu, self.A),
                     appendix.eliminated_aug_dgm(self.costs, self.mu, self.A),
                     appendix.aug_dgm_two_variable(self.costs, self.mu, self.A)):
            traj, _ = trajectory(step, self.costs, self.init, 100)
            assert max_dev(ref, traj) <= 1e-10, step.__qualname__

    def test_atc_tracking_forms(self):
        t = table1_matrices("ATCTracking", self.A)
        ref = self._puda(t, 100)
        for step in (appendix.agent_prox_atc2(self.costs, ZeroProx(), self.mu, self.A),
                     appendix.eliminated_atc_tracking(self.costs, self.mu, self.A),
                     appendix.atc_tracking_two_variable(self.costs, self.mu,
                                                      self.A)):
            traj, _ = trajectory(step, self.costs, self.init, 100)
            assert max_dev(ref, traj) <= 1e-10, step.__qualname__

    @pytest.mark.parametrize("aid", ["EXTRA", "DIGing"])
    def test_non_atc_family(self, aid):
        t = table1_matrices(aid, self.A)
        ref = self._puda(t, 100)
        traj, _ = trajectory(appendix.non_atc(self.costs, self.mu, t),
                             self.costs, self.init, 100)
        assert max_dev(ref, traj) <= 1e-10

    def test_dlm_non_atc(self):
        sL = np.linalg.eigvalsh(self.L)[-1]
        t = table1_matrices("DLM", self.A_raw, c=0.5 / (self.mu * sL),
                            mu=self.mu, L=self.L)
        ref = self._puda(t, 100)
        traj, _ = trajectory(appendix.non_atc(self.costs, self.mu, t),
                             self.costs, self.init, 100)
        assert max_dev(ref, traj) <= 1e-10


class TestSeparateProx:
    def setup_method(self):
        self.A, self.L = make_network(K=4, seed=9, extra=0.4)
        self.costs = random_quadratic_set(4, 3, seed=6)
        self.mu = 0.2
        self.init = np.random.default_rng(11).standard_normal((4, 3))
        self.zero = ZeroProx()

    def test_pgextra_reduces_to_extra(self):
        # With R_k = 0 the i >= 1 recursions coincide; seed the two-step
        # EXTRA recursion from PG-EXTRA's bootstrap pair (W_0, W_{-1}).
        step = engine.pg_extra(self.costs, self.zero, self.mu, self.A)
        pg, _ = trajectory(step, self.costs, self.init, 100)
        t = table1_matrices("EXTRA", self.A)
        extra = appendix.non_atc(self.costs, self.mu, t)
        st = BlockIterate(W=pg[0], W_prev=self.init,
                          G=self.costs.grad_stack(pg[0]),
                          G_prev=self.costs.grad_stack(self.init), iter=1)
        for i in range(1, 100):
            st = extra(st)
            assert np.abs(st.W - pg[i]).max() <= 1e-10

    def test_dladmm_reduces_to_dlm(self):
        c = 0.4
        step = engine.dl_admm(self.costs, self.zero, self.mu, c=c,
                              laplacian=self.L)
        dl, _ = trajectory(step, self.costs, self.init, 100)
        t = table1_matrices("DLM", self.A, c=c, mu=self.mu, L=self.L)
        ref, _ = trajectory(engine.primal_dual(self.costs, ZeroProx(), self.mu, t),
                            self.costs, self.init, 100)
        assert max_dev(ref, dl) <= 1e-10

    @pytest.mark.parametrize("prox", [ZeroProx(), L1Prox(0.05)])
    def test_pgextra_matches_expression(self, prox):
        # Built in place, byte for byte the recursion as one expression.
        A, W_tilde, mu = self.A, shift_positive(self.A), self.mu

        def expression(state):
            W, G = state.W, state.G
            if state.iter == 0:
                X = A @ W - mu * G
            else:
                X = (A @ W + state.X - W_tilde @ state.W_prev
                     - mu * (G - state.G_prev))
            W_new = prox.apply_stack(X, mu)
            return BlockIterate(
                W=W_new, W_prev=W, G=self.costs.grad_stack(W_new), G_prev=G,
                X=X, iter=state.iter + 1)

        step = engine.pg_extra(self.costs, prox, mu, A)
        st = ref = appendix.start_at(self.costs, self.init)
        for _ in range(50):
            st, ref = step(st), expression(ref)
            assert same_bytes(st.W, ref.W) and same_bytes(st.X, ref.X)

    @pytest.mark.parametrize("csr", [False, True])
    @pytest.mark.parametrize("prox", [ZeroProx(), L1Prox(0.05)])
    def test_dladmm_one_product_per_step(self, prox, csr):
        # c L W is made once per iterate and carried in X to the next step:
        # byte for byte the step that multiplied twice, with one product
        # per step after the first.
        c, mu = 0.4, self.mu
        L = sp.csr_matrix(self.L) if csr else self.L
        products = []

        class Counted:
            def __init__(self, M):
                self.M = M

            def __rmul__(self, scalar):
                return Counted(scalar * self.M)

            def __matmul__(self, Z):
                products.append(1)
                return self.M @ Z

        cL = c * L

        def two_products(state):
            W_new = prox.apply_stack(
                state.W - mu * (state.G + cL @ state.W + state.S), mu)
            return BlockIterate(
                W=W_new, W_prev=state.W, G=self.costs.grad_stack(W_new),
                G_prev=state.G, S=state.S + cL @ W_new, iter=state.iter + 1)

        step = engine.dl_admm(self.costs, prox, mu, c=c, laplacian=Counted(L))
        st = ref = appendix.start_at(self.costs, self.init)
        for _ in range(50):
            st, ref = step(st), two_products(ref)
            assert same_bytes(st.W, ref.W) and same_bytes(st.S, ref.S)
        assert len(products) == 50 + 1

    def test_dladmm_requires_laplacian(self):
        with pytest.raises(ValueError):
            engine.dl_admm(self.costs, self.zero, self.mu, c=None,
                           laplacian=None)


class TestRun:
    def test_prox_ed_lasso_converges(self):
        # Quadratic lasso with analytic solution: agents hold targets t_k,
        # the network solves min (eta/2)||w - t_bar||^2 + rho ||w||_1.
        A, _ = make_network(K=5, seed=2)
        K, M, eta, rho = 5, 1, 1.0, 0.3
        targets = np.arange(1.0, 6.0).reshape(K, M)
        costs = quadratic_cost(eta, K, M, targets=targets)
        w_star = prox_l1(targets.mean(axis=0), rho / eta)
        step = appendix.agent_prox_ed(costs, L1Prox(rho), 0.9, A)
        record = run(ALGORITHMS["ProxED"], step, costs, w_star, 200)
        assert record.errors[-1] <= 1e-10
        assert not record.diverged

    def test_comm_round_accounting(self):
        A, _ = make_network(K=4)
        costs = random_quadratic_set(4, 2, seed=0)
        w_star = np.zeros(2)
        one = run(ALGORITHMS["ProxED"],
                  appendix.agent_prox_ed(costs, ZeroProx(), 0.1, A), costs, w_star, 10)
        assert one.comm_rounds == [i for i in range(1, 11)]
        two = run(ALGORITHMS["ProxATC1"],
                  appendix.agent_prox_atc1(costs, ZeroProx(), 0.1, shift_positive(A)),
                  costs, w_star, 10)
        assert two.comm_rounds == [2 * i for i in range(1, 11)]

    def test_record_every(self):
        A, _ = make_network(K=4)
        costs = random_quadratic_set(4, 2, seed=0)
        record = run(ALGORITHMS["ProxED"],
                     appendix.agent_prox_ed(costs, ZeroProx(), 0.1, A),
                     costs, np.zeros(2), 100, record_every=10)
        assert len(record.errors) == 100 // 10 + 1  # iteration 1 + multiples
        assert record.iterations[0] == 1 and record.iterations[-1] == 100

    @pytest.mark.parametrize("record_every", [0, -2])
    def test_record_every_below_one_rejected(self, record_every):
        # Before the first step, as iters < 1 is.
        costs = random_quadratic_set(4, 2, seed=0)
        steps = []
        with pytest.raises(ValueError, match="record_every"):
            run(ALGORITHMS["ProxED"], lambda st: steps.append(st) or st,
                costs, np.zeros(2), 10, record_every=record_every)
        assert steps == []

    def test_divergence_recorded(self):
        A, _ = make_network(K=4)
        costs = random_quadratic_set(4, 2, seed=0)
        record = run(ALGORITHMS["ProxED"],
                     appendix.agent_prox_ed(costs, ZeroProx(), 50.0, A),
                     costs, np.zeros(2), 500)
        assert record.diverged
        assert record.note.endswith(
            f"exceeded the divergence limit at iteration "
            f"{record.final_state.iter}")
        assert record.iterations[-1] < record.final_state.iter

    def test_seeded_init_deterministic(self):
        A, _ = make_network(K=4)
        costs = random_quadratic_set(4, 2, seed=0)
        a = run(ALGORITHMS["ProxED"], appendix.agent_prox_ed(costs, ZeroProx(), 0.2, A),
                costs, np.zeros(2), 20, seed=5)
        b = run(ALGORITHMS["ProxED"], appendix.agent_prox_ed(costs, ZeroProx(), 0.2, A),
                costs, np.zeros(2), 20, seed=5)
        assert a.errors == b.errors

    def test_consensus_at_convergence(self):
        A, _ = make_network(K=5, seed=6)
        costs = random_quadratic_set(5, 3, seed=3)
        t = table1_matrices("ExactDiffusion", A)
        record = run(ALGORITHMS["ProxED"], engine.primal_dual(costs, ZeroProx(), 0.5, t),
                     costs, np.zeros(3), 3000)
        W = record.final_state.W
        w_bar = W.mean(axis=0)
        assert np.abs(W - w_bar).max() <= 1e-9

    def test_rel_sq_error_definition(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0]])
        w_star = np.array([1.0, 1.0])
        assert rel_sq_error(W, w_star, 2.0) == pytest.approx(2.0 / 2.0)
        # Absolute error when the reference is zero.
        assert rel_sq_error(W, np.zeros(2), 0.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("form", [
        "primal_dual", "agent_prox_ed", "agent_prox_atc1", "agent_prox_atc2",
        "eliminated_diffusion", "aug_dgm_two_variable",
        "atc_tracking_two_variable", "non_atc", "pg_extra", "dl_admm"])
    def test_one_gradient_per_iteration(self, form, monkeypatch):
        A, L = make_network(K=5, seed=2)
        A = shift_positive(A)
        costs = random_quadratic_set(5, 3, seed=0)
        nids = table1_matrices("NIDS", A, c=0.5)
        atc = table1_matrices("ATCTracking", A)
        prox, zero, mu = L1Prox(0.05), ZeroProx(), 0.2
        step = {
            "primal_dual": lambda: engine.primal_dual(costs, prox, mu, atc),
            "agent_prox_ed": lambda: appendix.agent_prox_ed(costs, prox, mu, A),
            "agent_prox_atc1": lambda: appendix.agent_prox_atc1(costs, prox, mu, A),
            "agent_prox_atc2": lambda: appendix.agent_prox_atc2(costs, prox, mu, A),
            "eliminated_diffusion":
                lambda: appendix.eliminated_diffusion(costs, mu, nids.A_bar),
            "aug_dgm_two_variable":
                lambda: appendix.aug_dgm_two_variable(costs, mu, A),
            "atc_tracking_two_variable":
                lambda: appendix.atc_tracking_two_variable(costs, mu, A),
            "non_atc": lambda: appendix.non_atc(costs, mu, atc),
            "pg_extra": lambda: engine.pg_extra(costs, zero, mu, A),
            "dl_admm": lambda: engine.dl_admm(costs, zero, mu, c=0.5,
                                              laplacian=L),
        }[form]()
        residual_fn = None
        if form == "primal_dual":
            residual_fn = fixed_point_residuals
        calls = []
        grad_stack = costs.grad_stack
        monkeypatch.setattr(costs, "grad_stack",
                            lambda W: calls.append(1) or grad_stack(W))
        run(ALGORITHMS["ProxATC2"], step, costs, np.zeros(3), 30,
            residual_fn=residual_fn)
        assert len(calls) == 30 + 1

    def test_carried_gradients_match_a_fresh_evaluation(self):
        A, _ = make_network(K=5, seed=2)
        costs = random_quadratic_set(5, 3, seed=0)
        step = appendix.agent_prox_atc2(costs, ZeroProx(), 0.2, shift_positive(A))
        st = run(ALGORITHMS["ProxATC2"], step, costs, np.zeros(3), 10).final_state
        assert np.array_equal(st.G, costs.grad_stack(st.W))
        assert np.array_equal(st.G_prev, costs.grad_stack(st.W_prev))

    def test_initial_state_carries_its_gradient(self):
        costs = random_quadratic_set(3, 2, seed=0)
        st = initial_state(costs, seed=4)
        assert np.array_equal(st.G, costs.grad_stack(st.W))

    def test_gradient_is_required(self):
        w = np.ones((2, 2))
        with pytest.raises(TypeError):
            BlockIterate(W=w, W_prev=w, S=np.zeros((2, 2)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergence:
    """``run``'s one test, err <= DIVERGENCE_LIMIT, stops every run whose
    gradient, W, S or X turns non-finite, and no exception escapes."""

    def _step(self, name, costs):
        A, L = make_network(K=5, seed=2)
        prox, mu = L1Prox(0.05), 0.2
        if name == "PGEXTRA":
            return engine.pg_extra(costs, prox, mu, A)
        if name == "DLADMM":
            return engine.dl_admm(costs, prox, mu, c=0.5, laplacian=L)
        return engine.primal_dual(costs, prox, mu,
                                  table1_matrices(ALGORITHMS[name].row, A))

    @pytest.mark.parametrize("n", [1, 6])
    @pytest.mark.parametrize("name", ["PGEXTRA", "DLADMM", "ProxED"])
    def test_gradient_turning_nan_ends_the_run(self, name, n, monkeypatch):
        # Call n is the gradient at iteration n - 1's iterate (call 1 is the
        # start's); the first NaN one feeds iteration n's prox input.
        costs = random_quadratic_set(5, 3, seed=0)
        calls = []
        grad_stack = costs.grad_stack

        def grad(W):
            calls.append(1)
            G = grad_stack(W)
            return np.full_like(G, np.nan) if len(calls) >= n else G

        monkeypatch.setattr(costs, "grad_stack", grad)
        record = run(ALGORITHMS[name], self._step(name, costs), costs,
                     np.zeros(3), 50, seed=1)
        assert record.diverged
        assert record.final_state.iter == n
        assert np.isnan(record.final_state.W).any()
        assert record.note == ("error nan exceeded the divergence limit at "
                               f"iteration {n}")
        assert record.iterations == list(range(1, n))
        assert np.isfinite(record.errors).all()

    def test_overflowing_dual_is_caught_within_one_iteration(self):
        # A_bar averages and B^2 = 1e200 (I - A_bar): S stays off the
        # average, so when B^2 Z overflows S, A_bar Z and W stay finite.
        K, M = 2, 3
        costs = random_quadratic_set(K, M, seed=0)
        ones = np.full((K, K), 1.0 / K)
        t = appendix.MatrixTriple(A_bar=ones, B_sq=1e200 * (np.eye(K) - ones),
                                  C=np.zeros((K, K)))
        step = engine.primal_dual(costs, L1Prox(0.05), 0.1, t)
        st = initial_state(costs, seed=3)
        while np.isfinite(st.S).all() and st.iter < 20:
            st = step(st)
        assert not np.isfinite(st.S).all() and np.isfinite(st.W).all()
        assert rel_sq_error(st.W, np.zeros(M), 0.0) <= engine.DIVERGENCE_LIMIT

        record = run(ALGORITHMS["ProxED"], step, costs, np.zeros(M), 50,
                     seed=3)
        assert record.diverged
        assert st.iter < record.final_state.iter <= st.iter + 1
        assert record.iterations[-1] == st.iter
        assert record.note.endswith(f"at iteration {record.final_state.iter}")
