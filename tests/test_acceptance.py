"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single summary line on success; tolerances are pinned
in the assertions.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from decprox import cli, engine
from decprox.analysis import (
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
from decprox.engine import ALGORITHMS, run
from decprox.netgraph import (
    build_graph,
    laplacian_matrix,
    metropolis_matrix,
    shift_positive,
    table1_matrices,
    validate_assumptions,
)
from decprox.prox import (
    ChainSumProx,
    CounterexampleProx,
    L1Prox,
    ZeroProx,
)
import appendix_forms as appendix
import cost_oracle
from cost_oracle import random_quadratic_set
from prox_oracle import (D1_dot, D2_dot, SparsePair, brute_force_prox,
                         l1_certificate, prox_row)


def window_ratios_after_burn_in(record, burn_in=20, n_windows=5):
    """Per-window geometric ratios of the error *norm* (sqrt of the
    recorded squared error) after a burn-in."""
    it = np.asarray(record.iterations, dtype=float)
    e = np.sqrt(np.asarray(record.errors, dtype=float))
    keep = (it > burn_in) & (e > 1e-150)
    it, e = it[keep], np.log(e[keep])
    bounds = np.linspace(0, len(it) - 1, n_windows + 1).astype(int)
    return [float(np.exp((e[b] - e[a]) / (it[b] - it[a])))
            for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def cut_at_error(record, floor):
    """The record's rows up to the first whose error is at most ``floor``,
    that row included (all rows if none is): the rows left once the error
    has reached the numerical floor."""
    reached = [i for i, e in enumerate(record.errors) if e <= floor]
    n = reached[0] + 1 if reached else len(record.errors)
    return dataclasses.replace(
        record, iterations=record.iterations[:n],
        comm_rounds=record.comm_rounds[:n], errors=record.errors[:n],
        residuals=record.residuals[:n])


# ---------------------------------------------------------------------------
# Criterion 1: equivalence web over the full algorithm table.

def test_criterion_1_equivalence_web():
    t0 = time.time()
    K, M, iters = 6, 4, 200
    g = build_graph("random_connected", K, seed=12, extra_edge_prob=0.35)
    A_raw = metropolis_matrix(g)
    A = shift_positive(A_raw)
    L = laplacian_matrix(g)
    costs = random_quadratic_set(K, M, seed=21)
    mu = 0.2
    init = np.random.default_rng(5).standard_normal((K, M))

    def traj(step):
        st = appendix.start_at(costs, init)
        out = []
        for _ in range(iters):
            st = step(st)
            out.append(st.W.copy())
        return out

    def forms(name):
        if name == "ExactDiffusion":
            t = table1_matrices(name, A_raw)
            return t, [appendix.agent_prox_ed(costs, ZeroProx(), mu, A_raw),
                       appendix.eliminated_diffusion(costs, mu,
                                                   shift_positive(A_raw))]
        if name == "NIDS":
            t = table1_matrices(name, A_raw, c=0.3)
            return t, [appendix.eliminated_diffusion(costs, mu, t.A_bar)]
        if name == "AugDGM":
            t = table1_matrices(name, A)
            return t, [appendix.agent_prox_atc1(costs, ZeroProx(), mu, A),
                       appendix.eliminated_aug_dgm(costs, mu, A),
                       appendix.aug_dgm_two_variable(costs, mu, A)]
        if name == "ATCTracking":
            t = table1_matrices(name, A)
            return t, [appendix.agent_prox_atc2(costs, ZeroProx(), mu, A),
                       appendix.eliminated_atc_tracking(costs, mu, A),
                       appendix.atc_tracking_two_variable(costs, mu, A)]
        if name in ("DIGing", "EXTRA"):
            t = table1_matrices(name, A)
            return t, [appendix.non_atc(costs, mu, t)]
        t = table1_matrices("DLM", A_raw, c=0.3, mu=mu, L=L)
        return t, [appendix.non_atc(costs, mu, t)]

    worst = 0.0
    for name in ("ExactDiffusion", "NIDS", "AugDGM", "ATCTracking",
                 "DIGing", "EXTRA", "DLM"):
        triple, others = forms(name)
        ref = traj(engine.primal_dual(costs, ZeroProx(), mu, triple))
        scale = max(max(np.abs(x).max() for x in ref), 1.0)
        for step in others:
            alt = traj(step)
            dev = max(np.abs(x - y).max() for x, y in zip(ref, alt)) / scale
            worst = max(worst, dev)
            assert dev <= 1e-8, (name, step.__qualname__, dev)

    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"criterion 1: PASS (equivalence web, worst rel dev {worst:.2e}, "
          f"{elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criteria 2 and 4 share one logistic-lasso problem instance.

@pytest.fixture(scope="module")
def logistic_instance():
    K = 20
    g = build_graph("random_connected", K, seed=7, extra_edge_prob=0.35)
    A_raw = metropolis_matrix(g)
    data = synthetic_classification(500, 30, seed=3, flip_prob=0.1)
    costs = logistic_cost(partition_data(data, K, seed=0), lam=0.01)
    prox = L1Prox(2e-3)
    w_star = centralized_reference(costs, prox)
    return {"A_raw": A_raw, "A": shift_positive(A_raw), "costs": costs,
            "prox": prox, "w_star": w_star}


@pytest.fixture(scope="module")
def criterion2_runs(logistic_instance):
    inst = logistic_instance
    costs, prox = inst["costs"], inst["prox"]
    out = {}
    t0 = time.time()
    for name, triple_id, A in (("ProxED", "ExactDiffusion", inst["A_raw"]),
                               ("ProxATC1", "AugDGM", inst["A"]),
                               ("ProxATC2", "ATCTracking", inst["A"])):
        triple = table1_matrices(triple_id, A)
        report = validate_assumptions(triple)
        assert report.assumption2_ok
        mu = 0.9 * (2.0 - report.sigma_max_C) / costs.delta
        rate = theoretical_rate("Thm1", mu, costs.nu, costs.delta,
                                report.sigma_max_C, report.sigma_min_Bsq)
        record = run(ALGORITHMS[name],
                     engine.primal_dual(costs, prox, mu, triple),
                     costs, inst["w_star"], 8000)
        out[name] = {"record": cut_at_error(record, 1e-24), "rate": rate,
                     "mu": mu}
    out["elapsed"] = time.time() - t0
    return out


def test_criterion_2_linear_convergence_theorem1(criterion2_runs):
    details = []
    for name in ("ProxED", "ProxATC1", "ProxATC2"):
        record = criterion2_runs[name]["record"]
        gamma = criterion2_runs[name]["rate"].gamma
        assert gamma < 1.0
        reached = [e for e in record.errors if e <= 1e-10]
        assert reached, f"{name} never reached 1e-10"
        ratios = window_ratios_after_burn_in(record, burn_in=20)
        worst = max(ratios)
        assert worst <= gamma + 0.01, (name, worst, gamma)
        details.append(f"{name}: gamma={gamma:.4f} worst ratio={worst:.4f}")
    elapsed = criterion2_runs["elapsed"]
    assert elapsed < 30.0
    print(f"criterion 2: PASS ({'; '.join(details)}, {elapsed:.1f}s)")


def test_criterion_4_lemma1_residuals(criterion2_runs):
    worst = 0.0
    for name in ("ProxED", "ProxATC1", "ProxATC2"):
        entry = criterion2_runs[name]
        r = fixed_point_residuals(entry["record"].final_state)
        worst = max(worst, max(r))
        assert max(r) <= 1e-9, (name, r)
    print(f"criterion 4: PASS (Lemma 1 residuals, worst {worst:.2e})")


# ---------------------------------------------------------------------------
# Criterion 3: complete-graph reduction to centralized proximal gradient.

def test_criterion_3_complete_graph_reduction():
    K, M, mu = 5, 6, 0.4
    rng = np.random.default_rng(9)
    targets = rng.standard_normal((K, M))
    costs = quadratic_cost(1.0, K, M, targets=targets)
    prox = L1Prox(0.1)
    ones = np.ones((K, K)) / K
    triple = appendix.MatrixTriple(A_bar=ones, B_sq=np.eye(K) - ones,
                                   C=np.zeros((K, K)))
    w = rng.standard_normal(M)
    st = appendix.start_at(costs, w)  # consensus start
    worst = 0.0
    wc = w.copy()
    for _ in range(100):
        st = engine.puda_step(st, triple, costs, prox, mu)
        wc = prox_row(prox, wc - mu * costs.average_grad(wc), mu)
        dev = np.abs(st.W - wc[None, :]).max()
        worst = max(worst, dev)
        assert dev <= 1e-12
    print(f"criterion 3: PASS (complete-graph reduction, worst dev {worst:.2e})")


# ---------------------------------------------------------------------------
# Criterion 5: the two-agent counterexample.

def test_criterion_5_counterexample():
    t0 = time.time()
    M, K, eta, mu = 2000, 2, 1.0, 0.005
    costs = quadratic_cost(eta, K, M)
    A = 0.5 * np.ones((2, 2))
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    separate = CounterexampleProx(M)  # R1 on agent 0, R2 on agent 1
    w_star_sep = centralized_reference(costs, ChainSumProx(M, weight=0.5))

    verdicts = {}
    for name, step in (
        ("PGEXTRA", engine.pg_extra(costs, separate, mu, A)),
        ("DLADMM", engine.dl_admm(costs, separate, mu, c=1.0, laplacian=L)),
    ):
        record = run(ALGORITHMS[name], step, costs, w_star_sep, 20000)
        v = classify_decay(record)
        assert v.classification == "sublinear", (name, v)
        assert v.geometric_ratio_windows[-1] >= 0.999
        assert v.fit_residuals["loglog"] < v.fit_residuals["semilog"]
        verdicts[name] = v

    # Same problem with the common regularizer R = R1 + R2: linear.
    w_star_com = centralized_reference(costs, ChainSumProx(M))
    triple = table1_matrices("ExactDiffusion", A)
    record = run(ALGORITHMS["ProxED"],
                 engine.primal_dual(costs, ChainSumProx(M), mu, triple),
                 costs, w_star_com, 2500)
    v = classify_decay(record)
    assert v.classification == "linear", v
    verdicts["ProxED"] = v

    elapsed = time.time() - t0
    assert elapsed < 180.0
    print("criterion 5: PASS (PGEXTRA/DLADMM sublinear with tail ratios "
          f"{verdicts['PGEXTRA'].geometric_ratio_windows[-1]:.5f}/"
          f"{verdicts['DLADMM'].geometric_ratio_windows[-1]:.5f}, "
          f"common-R ProxED linear, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# Criterion 6: prox correctness.

def test_criterion_6_prox_correctness():
    # Every draw certified, both rows; the first two per M also matched by
    # the brute-force oracle, which reads R's values alone.
    worst = worst_bf = 0.0
    for M in (2, 4, 6):
        ref = SparsePair(M)
        separate = CounterexampleProx(M)  # R1 on row 0, R2 on row 1
        half = M // 2
        for D_dot in (D1_dot, D2_dot):
            D = np.column_stack([D_dot(e) for e in np.eye(M)])
            assert np.abs(D @ D.T - 2.0 * np.eye(half)).max() <= 1e-15
        rng = np.random.default_rng(M)
        for draw in range(50):
            x = rng.standard_normal(M)
            mu = float(rng.uniform(0.05, 0.8))
            cf = separate.apply_stack(np.stack([x, x]), mu)
            for row, (which, R) in enumerate((("R1", ref.R1), ("R2", ref.R2))):
                cert = l1_certificate(*ref.terms(which), x, cf[row], mu)
                worst = max(worst, cert)
                assert cert <= 1e-12, (M, which, cert)
                if draw < 2:
                    bf = brute_force_prox(R, x, mu, iters=800)
                    dev = np.abs(cf[row] - bf).max()
                    worst_bf = max(worst_bf, dev)
                    assert dev <= 1e-3, (M, which, dev)

    separate2 = CounterexampleProx(2)
    # Full consensus once mu reaches half the gap.
    assert np.allclose(separate2.apply_stack(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.5)[1],
                       [0.5, 0.5], atol=1e-10)
    # Partial shrink: each side moves by mu.
    assert np.allclose(separate2.apply_stack(np.array([[0.0, 0.0], [5.0, 0.0]]), 1.0)[1],
                       [4.0, 1.0], atol=1e-10)
    # R1's anchor pulls w[0] toward 1/sqrt(2) when mu is large.
    assert np.allclose(separate2.apply_stack(np.zeros((2, 2)), 1.0)[0],
                       [np.sqrt(2.0) / 2.0, 0.0], atol=1e-10)
    print(f"criterion 6: PASS (Eq.44 certified, worst {worst:.2e}; vs brute "
          f"force worst dev {worst_bf:.2e}; hand examples to 1e-10)")


# ---------------------------------------------------------------------------
# Criterion 7: rate formula sanity.

def test_criterion_7_rate_formulas():
    delta = 2.5
    r = theoretical_rate("Thm1", 1 / delta, delta, delta, 0.0, 1.0)
    assert r.gamma == 0.0
    r = theoretical_rate("Thm1", 1 / delta, 0.1 * delta, delta, 0.0, 0.5)
    assert r.gamma == pytest.approx(0.9, abs=1e-15)
    sigma_C = 0.3
    r = theoretical_rate("Thm1", (2 - sigma_C) / delta, 1.0, delta, sigma_C, 0.5)
    assert r.gamma_primal == pytest.approx(1.0, abs=1e-14)
    assert not r.feasible
    # gamma < 1 iff mu strictly below the bound.
    for frac, expect in ((0.5, True), (0.99, True), (1.0, False), (1.5, False)):
        mu = frac * (2 - sigma_C) / delta
        r = theoretical_rate("Thm1", mu, 1.0, delta, sigma_C, 0.5)
        assert r.feasible is expect
        if expect:
            assert r.gamma_primal < 1.0 - 1e-12
        else:
            assert r.gamma_primal >= 1.0 - 1e-12
    print("criterion 7: PASS (tabulated rate examples exact, strict bound)")


# ---------------------------------------------------------------------------
# Criterion 8: property suites.

def test_criterion_8_property_suites(tmp_path):
    t0 = time.time()

    # Nonexpansiveness: 1000 random pairs of two-row stacks per operator,
    # row by row.
    ops = [L1Prox(0.4), ZeroProx(), CounterexampleProx(6)]
    rng = np.random.default_rng(0)
    for op in ops:
        for _ in range(1000):
            X = rng.standard_normal((2, 6))
            Y = rng.standard_normal((2, 6))
            d_out = np.linalg.norm(op.apply_stack(X, 0.3) - op.apply_stack(Y, 0.3),
                                   axis=1)
            assert (d_out <= np.linalg.norm(X - Y, axis=1) + 1e-12).all()

    # Metropolis matrices: 20 random graphs.
    for i in range(20):
        g = build_graph("random_connected", 5 + i, seed=i,
                        extra_edge_prob=0.3)
        A = metropolis_matrix(g)
        assert np.allclose(A, A.T, atol=1e-14)
        assert np.allclose(A.sum(axis=1), 1.0, atol=1e-12)
        assert (A >= -1e-15).all()

    # Gradients: 100 random finite-difference checks, of the stacked
    # gradient's row k against agent k's cost.
    shards = partition_data(synthetic_classification(120, 6, seed=2), 4,
                            seed=0)
    costs = logistic_cost(shards, lam=0.05)
    agent_costs = cost_oracle.logistic_cost(shards, lam=0.05)
    for _ in range(100):
        k = int(rng.integers(costs.K))
        w = rng.standard_normal(6)
        g_an = costs.grad_stack(np.tile(w, (costs.K, 1)))[k]
        g_fd = np.empty(6)
        for j in range(6):
            wp, wm = w.copy(), w.copy()
            wp[j] += 1e-6
            wm[j] -= 1e-6
            g_fd[j] = (agent_costs.eval(k, wp) - agent_costs.eval(k, wm)) / 2e-6
        assert np.linalg.norm(g_an - g_fd) <= 1e-6 * max(1.0, np.linalg.norm(g_an))

    # Determinism: two CLI runs produce byte-identical CSVs.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": "lasso_quadratic",
        "graph": {"kind": "random_connected", "K": 6, "seed": 1,
                  "extra_edge_prob": 0.3},
        "algorithms": ["ProxED", "ProxATC2"],
        "rho": 0.05, "iters": 150,
        "data": {"dim": 8, "seed": 5},
        "output_dir": str(tmp_path / "out"),
    }))
    cfg = cli.parse_config(str(cfg_path))
    cli.run_experiment(cfg)
    first = {f: (tmp_path / "out" / f).read_bytes()
             for f in ("ProxED.csv", "ProxATC2.csv", "summary.csv")}
    cli.run_experiment(cfg)
    for f, body in first.items():
        assert (tmp_path / "out" / f).read_bytes() == body

    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"criterion 8: PASS (property suites, {elapsed:.1f}s)")
