import dataclasses

import numpy as np
import pytest

from decprox import engine
from decprox.analysis import (
    NotConvergedError,
    centralized_reference,
    classify_decay,
    fixed_point_residuals,
    theoretical_rate,
)
from decprox.costs import (
    logistic_cost,
    partition_data,
    quadratic_cost,
    synthetic_classification,
)
from decprox.engine import ALGORITHMS, BlockIterate, RunRecord, run
from decprox.netgraph import (
    build_graph,
    metropolis_matrix,
    table1_matrices,
)
from decprox.prox import (
    ChainSumProx,
    Hint,
    L1Prox,
    ZeroProx,
    prox_l1,
)
from decprox.prox import _ANCHOR, _segmentation

import cost_oracle
from cost_oracle import random_quadratic_set
from prox_oracle import prox_row
from test_engine import same_bytes, special_stack


class TestTheoreticalRate:
    def test_tabulated_examples(self):
        # mu = 1/delta, nu = delta, C = 0, sigma_min(B^2) = 1 -> gamma = 0.
        delta = 2.5
        r = theoretical_rate("Thm1", 1 / delta, delta, delta, 0.0, 1.0)
        assert r.gamma_primal == pytest.approx(0.0, abs=1e-15)
        assert r.gamma_dual == pytest.approx(0.0, abs=1e-15)
        assert r.gamma == pytest.approx(0.0, abs=1e-15)
        # nu/delta = 0.1, same step: gamma = max(0.9, 0.5) = 0.9.
        r = theoretical_rate("Thm1", 1 / delta, 0.1 * delta, delta, 0.0, 0.5)
        assert r.gamma == pytest.approx(0.9, abs=1e-15)
        # Exactly at the bound: gamma_primal = 1, not feasible.
        sigma_C = 0.3
        mu = (2 - sigma_C) / delta
        r = theoretical_rate("Thm1", mu, 1.0, delta, sigma_C, 0.5)
        assert r.gamma_primal == pytest.approx(1.0, abs=1e-14)
        assert not r.feasible

    def test_feasibility_iff_strictly_below_bound(self):
        delta = 1.0
        r = theoretical_rate("Thm1", 1.9, 0.5, delta, 0.0, 0.5)
        assert r.feasible and r.gamma_primal < 1
        r = theoretical_rate("Thm1", 2.1, 0.5, delta, 0.0, 0.5)
        assert not r.feasible and r.gamma_primal > 1

    def test_thm4_formulas(self):
        r = theoretical_rate("Thm4", 0.5, 1.0, 1.0, 0.5, 0.5)
        assert r.mu_bound == pytest.approx(1.0)
        assert r.gamma_primal == pytest.approx(1 - 0.5 * (2 - 0.5 / 0.5))
        assert r.feasible

    def test_monotone_in_sigma_c(self):
        gammas = [theoretical_rate("Thm1", 0.3, 0.5, 1.0, s, 0.5).gamma_primal
                  for s in np.linspace(0.0, 1.5, 7)]
        assert all(b >= a for a, b in zip(gammas, gammas[1:]))

    def test_vertex_of_quadratic(self):
        # gamma_primal is minimized at mu = (2 - sigma_C)/(2 delta).
        nu, delta, sC = 0.4, 1.3, 0.2
        mu_star = (2 - sC) / (2 * delta)
        g_star = theoretical_rate("Thm1", mu_star, nu, delta, sC, 0.5).gamma_primal
        for mu in (0.5 * mu_star, 1.4 * mu_star):
            assert theoretical_rate("Thm1", mu, nu, delta, sC, 0.5).gamma_primal >= g_star

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theoretical_rate("Thm1", 0.1, 2.0, 1.0, 0.0, 0.5)  # nu > delta
        with pytest.raises(ValueError):
            theoretical_rate("Thm1", -0.1, 0.5, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            theoretical_rate("Thm1", 0.1, 0.5, 1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            theoretical_rate("Thm4", 0.1, 0.5, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            theoretical_rate("Thm1", 0.1, 0.5, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            theoretical_rate("Thm2", 0.1, 0.5, 1.0, 0.0, 0.5)


class TestFixedPointResiduals:
    def setup_method(self):
        g = build_graph("random_connected", 5, seed=4, extra_edge_prob=0.4)
        self.A = metropolis_matrix(g)
        self.triple = table1_matrices("ExactDiffusion", self.A)
        self.costs = random_quadratic_set(5, 3, seed=1)
        self.prox = L1Prox(0.05)
        self.mu = 0.5

    def _converged_state(self, iters=4000):
        step = engine.primal_dual(self.costs, self.prox, self.mu, self.triple)
        return run(ALGORITHMS["ExactDiffusion"], step, self.costs, np.zeros(3),
                   iters).final_state

    def test_converged_residuals_small(self):
        st = self._converged_state()
        r = fixed_point_residuals(st)
        assert max(r) <= 1e-9

    @pytest.mark.parametrize("aid", ["ExactDiffusion", "ATCTracking"])
    def test_carried_buffers_match_recomputed(self, aid):
        # The residuals read the step's own grad(W) and B^2 Z, which equal
        # fresh evaluations bit for bit; r_prox is 0 because the step's W
        # is prox(A_bar Z) bit for bit.
        shards = partition_data(synthetic_classification(60, 4, seed=2), 5)
        costs = logistic_cost(shards, 0.01)
        triple = table1_matrices(aid, self.A)
        step = engine.primal_dual(costs, self.prox, self.mu, triple)
        st = run(ALGORITHMS[aid], step, costs, np.zeros(4), 25,
                 seed=3).final_state
        W, Z, mu = st.W, st.Z, self.mu
        scale = np.sqrt(W.size)
        # Frobenius norms by numpy's pairwise sum, as the residuals take
        # them: np.linalg.norm's BLAS reduction can differ in the last bit.
        d = Z - (W - mu * costs.grad_stack(W) - st.S)
        r_primal = np.sqrt(np.sum(d * d))
        B_sq_Z = triple.B_sq @ Z
        r_dual = np.sqrt(np.sum(B_sq_Z * B_sq_Z))
        assert fixed_point_residuals(st) == (
            r_primal / scale, r_dual / scale, 0.0)
        assert np.array_equal(self.prox.apply_stack(triple.A_bar @ Z, mu), W)
        assert r_primal > 0.0 and r_dual > 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_lean_matches_expression(self, seed):
        # One buffer for both residuals, and the Z_next the step builds:
        # bit for bit the expressions as first written, on stacks with
        # +-0, NaN and +-inf.
        W, G, S, Z, B_sq_Z = (special_stack(seed + i) for i in range(5))
        with np.errstate(invalid="ignore"):
            st = BlockIterate(W=W, W_prev=W, G=G, S=S, Z=Z, B_sq_Z=B_sq_Z,
                              Z_next=engine._z_without_c(W, G, S, self.mu))
            scale = np.sqrt(W.size)
            d = Z - (W - self.mu * G - S)
            ref = (np.sqrt((d * d).sum()) / scale,
                   np.sqrt((B_sq_Z * B_sq_Z).sum()) / scale, 0.0)
            assert same_bytes(fixed_point_residuals(st), ref)

    def test_random_state_not_fixed(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((5, 3))
        S = rng.standard_normal((5, 3))
        Z = rng.standard_normal((5, 3))
        G = self.costs.grad_stack(W)
        st = BlockIterate(W=W, W_prev=W, G=G, S=S, Z=Z,
                          B_sq_Z=self.triple.B_sq @ Z,
                          Z_next=W - self.mu * G - S)
        r = fixed_point_residuals(st)
        assert max(r) > 1e-3

    def test_unconstrained_minimum_exact_zero(self):
        # K=1, at the minimizer with Z=W, S=0: all residuals vanish.
        costs = quadratic_cost(1.0, 1, 2, targets=np.array([[2.0, -1.0]]))
        W = np.array([[2.0, -1.0]])
        G = costs.grad_stack(W)
        st = BlockIterate(W=W, W_prev=W, G=G, S=np.zeros((1, 2)), Z=W.copy(),
                          B_sq_Z=np.zeros((1, 2)), Z_next=W - 0.3 * G)
        r = fixed_point_residuals(st)
        assert max(r) == 0.0

    def test_stable_under_extra_iterations(self):
        st1 = self._converged_state(4000)
        st2 = self._converged_state(4050)
        r1 = fixed_point_residuals(st1)
        r2 = fixed_point_residuals(st2)
        assert max(abs(a - b) for a, b in zip(r1, r2)) <= 1e-10

    def test_requires_z_buffer(self):
        w = np.zeros((5, 3))
        st = BlockIterate(W=w, W_prev=w, G=w, S=w)
        with pytest.raises(ValueError):
            fixed_point_residuals(st)
        # A listing's state carries Z but not B^2 Z or Z_next.
        with pytest.raises(ValueError):
            fixed_point_residuals(dataclasses.replace(st, Z=w))
        with pytest.raises(ValueError):
            fixed_point_residuals(dataclasses.replace(st, Z=w, B_sq_Z=w))
        fixed_point_residuals(dataclasses.replace(st, Z=w, B_sq_Z=w,
                                                  Z_next=w))


def unhinted_reference(costs, prox_common, tol=1e-14):
    """centralized_reference's loop with no prox hint: the reference for
    the hinted solve's w*."""
    mu = 1.0 / costs.delta
    w = np.zeros(costs.M)
    while True:
        x = w - mu * costs.average_grad(w)
        w_next = prox_common.apply_stack(x[None], mu)[0]
        mapping = np.linalg.norm(w - w_next) / mu
        w = w_next
        if mapping <= tol:
            return w


def array_hinted_reference(costs, prox_common, tol=1e-14):
    """centralized_reference's loop with a hint that the test derives from
    the previous output at every iteration, the first included, as the
    prox once derived it from a bare array."""
    mu = 1.0 / costs.delta
    w = np.zeros(costs.M)
    while True:
        x = w - mu * costs.average_grad(w)
        hint = Hint([_segmentation(w, _ANCHOR)])
        w_next = prox_common.apply_stack(x[None], mu, hint=hint)[0]
        step = np.subtract(w, w_next)
        mapping = np.sqrt(np.add.reduce(step * step)) / mu
        w = w_next
        if mapping <= tol:
            return w


class TestCentralizedReference:
    @pytest.mark.parametrize("M", [8, 200, 2000])
    def test_carried_hint_equals_array_hint(self, M):
        # The reference carries what the prox found from one iteration to
        # the next, and has none to give the first: the same w* as the
        # hint derived from the previous iterate every time, byte for
        # byte.
        costs = quadratic_cost(1.0, 2, M)
        prox = ChainSumProx(M, weight=0.5)
        assert same_bytes(centralized_reference(costs, prox),
                          array_hinted_reference(costs, prox))

    @pytest.mark.parametrize("M", [200, 2000])
    @pytest.mark.parametrize("weight", [0.5, 1.0])
    def test_hinted_chain_solve_equals_unhinted(self, M, weight):
        # The hint is the previous iterate; the chain prox keeps a hinted
        # closed form only under its certificate, so w* keeps every bit.
        costs = quadratic_cost(1.0, 2, M)
        prox = ChainSumProx(M, weight=weight)
        assert np.array_equal(centralized_reference(costs, prox),
                              unhinted_reference(costs, prox))

    def test_scalar_lasso(self):
        # min 0.5 (w-3)^2 + |w|  ->  w* = 2.
        costs = quadratic_cost(1.0, 1, 1, targets=np.array([[3.0]]))
        w = centralized_reference(costs, L1Prox(1.0))
        assert w[0] == pytest.approx(2.0, abs=1e-12)

    def test_smooth_quadratic(self):
        costs = quadratic_cost(2.0, 3, 4)
        w = centralized_reference(costs, ZeroProx())
        assert np.abs(w).max() <= 1e-13

    def test_self_consistency_logistic(self):
        data = synthetic_classification(200, 10, seed=5)
        costs = logistic_cost(partition_data(data, 4, seed=0), lam=0.01)
        prox = L1Prox(2e-3)
        a = centralized_reference(costs, prox, tol=1e-14)
        b = centralized_reference(costs, prox, tol=1e-16)
        assert np.abs(a - b).max() <= 1e-12

    def test_mapping_norm_certificate(self):
        costs = quadratic_cost(1.0, 2, 3,
                               targets=np.random.default_rng(1).standard_normal((2, 3)))
        prox = L1Prox(0.1)
        tol = 1e-13
        w = centralized_reference(costs, prox, tol=tol)
        mu = 1.0 / costs.delta
        w_next = prox_row(prox, w - mu * costs.average_grad(w), mu)
        assert np.linalg.norm(w - w_next) / mu <= tol

    def test_iteration_cap_raises(self):
        # A point short of its tolerance would skew every error measured
        # against it, so the cap is an error that reports the mapping norm.
        costs = random_quadratic_set(2, 3, seed=0, nu_min=0.1, delta_max=2.0)
        with pytest.raises(NotConvergedError, match="mapping norm"):
            centralized_reference(costs, ZeroProx(), tol=1e-300, max_iter=50)

    @pytest.mark.parametrize("tol", [0.0, -1e-14])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            centralized_reference(quadratic_cost(1.0, 2, 3), ZeroProx(),
                                  tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_no_iterations_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            centralized_reference(quadratic_cost(1.0, 2, 3), ZeroProx(),
                                  max_iter=max_iter)


def synthetic_record(errors, rounds_per_iter=1):
    n = len(errors)
    return RunRecord(iterations=list(range(1, n + 1)),
                     comm_rounds=[rounds_per_iter * i for i in range(1, n + 1)],
                     errors=list(errors))


class TestClassifyDecay:
    def test_exact_geometric_is_linear(self):
        e = 0.9 ** np.arange(1, 301)
        v = classify_decay(synthetic_record(e))
        assert v.classification == "linear"
        for r in v.geometric_ratio_windows:
            assert r == pytest.approx(0.9, abs=1e-6)

    def test_exact_power_law_is_sublinear(self):
        i = np.arange(1, 4001)
        v = classify_decay(synthetic_record(1.0 / i))
        assert v.classification == "sublinear"
        assert v.loglog_slope == pytest.approx(-1.0, abs=1e-3)

    def test_scaling_invariance(self):
        e = 0.95 ** np.arange(1, 301)
        a = classify_decay(synthetic_record(e))
        b = classify_decay(synthetic_record(1e7 * e))
        assert a.classification == b.classification == "linear"
        assert np.allclose(a.geometric_ratio_windows, b.geometric_ratio_windows,
                           atol=1e-12)

    def test_nonpositive_tail_truncated(self):
        e = list(0.5 ** np.arange(1, 201)) + [0.0] * 20
        v = classify_decay(synthetic_record(np.array(e)))
        assert v.truncated

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            classify_decay(synthetic_record(0.9 ** np.arange(1, 50)))

    @pytest.mark.parametrize("kept, windows", [(1, 0), (9, 0), (10, 4),
                                               (11, 5)])
    def test_few_rows_above_the_floor(self, kept, windows):
        # 200 rows whose error halves `kept` times, then sits on the
        # numerical floor: fewer than 10 rows left are inconclusive, with
        # no window.  Ten rows leave a tail of 5, too few for 5 windows:
        # the first is empty and skipped.  Eleven leave 6, one window each.
        e = np.full(200, 1e-30)
        e[:kept] = 0.5 ** np.arange(kept)
        v = classify_decay(synthetic_record(e))
        assert v.truncated
        assert v.geometric_ratio_windows == pytest.approx([0.5] * windows)
        assert v.classification == ("linear" if windows else "inconclusive")

    def test_flat_curve_inconclusive(self):
        rng = np.random.default_rng(0)
        e = 1.0 + 0.01 * rng.random(300)
        v = classify_decay(synthetic_record(e))
        assert v.classification == "inconclusive"

    def test_engine_record_end_to_end(self):
        # A genuinely linear decentralized run classifies as linear.
        g = build_graph("random_connected", 5, seed=2, extra_edge_prob=0.4)
        A = metropolis_matrix(g)
        costs = random_quadratic_set(5, 3, seed=7)
        agent_costs = cost_oracle.random_quadratic_cost(5, 3, seed=7)
        t = table1_matrices("ExactDiffusion", A)
        w_star = np.linalg.solve(
            sum(np.stack([agent_costs.grad(k, e) - agent_costs.grad(k, np.zeros(3))
                          for e in np.eye(3)]).T for k in range(5)),
            -sum(agent_costs.grad(k, np.zeros(3)) for k in range(5)))
        # Small step so the decay is still in progress across the whole
        # tail window (no machine-precision floor).
        record = run(ALGORITHMS["ExactDiffusion"],
                     engine.primal_dual(costs, ZeroProx(), 0.05, t), costs, w_star,
                     300, seed=3)
        assert classify_decay(record).classification == "linear"
