import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from decprox import analysis, cli, engine, netgraph, prox as prox_mod
from decprox.analysis import theoretical_rate
from decprox.cli import ConfigError, build_problem, parse_config, run_experiment
from decprox.costs import SmoothCostSet
from decprox.engine import ALGORITHMS
from decprox.prox import ChainSumProx, L1Prox, ProxOperator
from test_analysis import unhinted_reference
from test_netgraph import (
    BENCHMARK_GRAPH,
    GRAPH_10000,
    assert_reports_agree,
    checked_report,
    dense,
    loop_laplacian,
    loop_metropolis,
    reference_report,
    table1_recursion,
)


def write_config(tmp_path, overrides=None, **kwargs):
    cfg = {
        "problem": "lasso_quadratic",
        "graph": {"kind": "random_connected", "K": 6, "seed": 3,
                  "extra_edge_prob": 0.3},
        "algorithms": ["ProxED"],
        "eta": 1.0,
        "rho": 0.05,
        "iters": 200,
        "data": {"dim": 6, "seed": 2},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides or {})
    cfg.update(kwargs)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParseConfig:
    def test_minimal_lasso_resolves_auto_mu(self, tmp_path):
        path = write_config(tmp_path)
        cfg = parse_config(path)
        assert cfg.problem == "lasso_quadratic"
        assert cfg.algorithms[0].mu == "auto"
        problem = build_problem(cfg)
        r = cli.resolve_algorithm(cfg.algorithms[0], cfg, problem)
        # auto = 0.9 x Theorem-1 bound; ProxED has C = 0 and delta = eta.
        assert r.mu == pytest.approx(0.9 * 2.0 / cfg.eta)
        assert r.rate is not None and r.rate.feasible

    def test_unknown_top_key_listed(self, tmp_path):
        path = write_config(tmp_path, overrides={"stepsize": 0.1})
        with pytest.raises(ConfigError, match="stepsize"):
            parse_config(path)

    def test_unknown_nested_key(self, tmp_path):
        path = write_config(tmp_path,
                            overrides={"graph": {"kind": "ring", "K": 4,
                                                 "weights": "uniform"}})
        with pytest.raises(ConfigError, match="weights"):
            parse_config(path)

    def test_missing_problem(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"iters": 10}))
        with pytest.raises(ConfigError, match="problem"):
            parse_config(path)

    def test_negative_lambda_rejected(self, tmp_path):
        path = write_config(tmp_path, overrides={"problem": "logistic_l1",
                                                 "lambda": -1e-4})
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(path)

    def test_bad_mu_rejected(self, tmp_path):
        path = write_config(tmp_path,
                            overrides={"algorithms": [{"name": "ProxED",
                                                       "mu": -0.5}]})
        with pytest.raises(ConfigError, match="mu"):
            parse_config(path)

    def test_unknown_algorithm_rejected(self, tmp_path):
        path = write_config(tmp_path, overrides={"algorithms": ["ADMMX"]})
        with pytest.raises(ConfigError, match="ADMMX"):
            parse_config(path)

    @pytest.mark.parametrize("algorithms", [
        [{"name": "ProxED", "mu": 0.1}, {"name": "ProxED", "mu": 0.5}],
        ["DLM", "ProxED", {"name": "DLM", "mu": 0.2}]])
    def test_repeated_algorithm_rejected(self, tmp_path, capsys, algorithms):
        # Each run writes <name>.csv and a summary row named after it, so a
        # second run of one name would overwrite the first's CSV.
        name = algorithms[-1]["name"]
        path = write_config(tmp_path, overrides={"algorithms": algorithms})
        with pytest.raises(ConfigError,
                           match=f"algorithms: {name} is named more than once"):
            parse_config(path)
        assert cli.main(["run", path]) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_odd_counterexample_dim_rejected(self, tmp_path):
        path = write_config(tmp_path, overrides={"problem": "counterexample",
                                                 "M": 11})
        with pytest.raises(ConfigError, match="even"):
            parse_config(path)

    @pytest.mark.parametrize("raw", [[1, 2], "config", None])
    def test_top_level_not_an_object(self, tmp_path, capsys, raw):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 2
        assert (f"config error: config must be an object, got {raw!r}"
                in capsys.readouterr().err)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{problem:")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_counterexample_rejects_other_agent_counts(self, tmp_path):
        path = write_config(tmp_path, overrides={"problem": "counterexample",
                                                 "M": 8})
        with pytest.raises(ConfigError, match="K must be 2"):
            parse_config(path)
        assert cli.main(["run", path]) == 2

    def test_counterexample_runs_on_two_agents(self, tmp_path):
        path = write_config(tmp_path, overrides={
            "problem": "counterexample", "M": 8, "iters": 50,
            "graph": {"kind": "complete", "K": 2}})
        # The two-agent complete-graph combination matrix is all-half.
        assert np.allclose(build_problem(parse_config(path)).A, 0.5)
        assert cli.main(["run", path]) == 0


def config_rows(cls=cli.ExperimentConfig, prefix=""):
    """The README config table's rows, from the config dataclasses."""
    for f in dataclasses.fields(cls):
        key = prefix + (f.metadata.get("key") or f.name)
        if dataclasses.is_dataclass(f.type):
            yield from config_rows(f.type, key + ".")
            continue
        default = ("required" if f.default is dataclasses.MISSING
                   else json.dumps(f.default))
        yield (f"| `{key}` | {f.type.__name__} | {f.metadata['allowed'][1]} "
               f"| {default} |")
        if f.metadata["item"]:
            yield from config_rows(f.metadata["item"], key + "[i].")


def test_readme_config_table_is_the_dataclasses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = [line for line in readme.splitlines() if line.startswith("| `")
             and line.split("`")[1].split(".")[0].split("[")[0]
             in {f.metadata.get("key") or f.name
                 for f in dataclasses.fields(cli.ExperimentConfig)}]
    assert table == list(config_rows())


class TestRunExperiment:
    def test_lasso_end_to_end(self, tmp_path):
        path = write_config(
            tmp_path,
            overrides={"algorithms": ["ProxED", "ProxATC1", "ProxATC2",
                                      "PGEXTRA"],
                       "iters": 600})
        cfg = parse_config(path)
        summary, diverged = run_experiment(cfg)
        assert not diverged
        out = tmp_path / "out"
        for name in ("ProxED", "ProxATC1", "ProxATC2", "PGEXTRA",
                     "summary", "metadata"):
            ext = ".json" if name == "metadata" else ".csv"
            assert (out / f"{name}{ext}").exists()
        by_name = {row["algorithm"]: row for row in summary}
        assert by_name["ProxED"]["verdict"] == "linear"
        assert by_name["ProxED"]["final_error"] < 1e-10
        # Summary gamma equals the analysis-module value for ProxED.
        problem = build_problem(cfg)
        r = cli.resolve_algorithm(cfg.algorithms[0], cfg, problem)
        expect = theoretical_rate("Thm1", r.mu, problem.costs.nu,
                                  problem.costs.delta, r.report.sigma_max_C,
                                  r.report.sigma_min_Bsq)
        assert by_name["ProxED"]["theoretical_gamma"] == pytest.approx(expect.gamma)

    def test_one_gradient_per_iteration(self, tmp_path, monkeypatch):
        # With the residual callback recording every row, each algorithm
        # evaluates iters + 1 gradients: one at the start, one per step.
        calls = []
        grad_stack = SmoothCostSet.grad_stack
        monkeypatch.setattr(SmoothCostSet, "grad_stack",
                            lambda self, W: calls.append(1) or grad_stack(self, W))
        path = write_config(tmp_path,
                            overrides={"algorithms": ["ProxED", "ProxATC2"],
                                       "iters": 40})
        run_experiment(parse_config(path))
        assert len(calls) == 2 * (40 + 1)

    @pytest.mark.parametrize("problem, algorithms", [
        ("lasso_quadratic", ["ProxED", "ProxATC2"]),
        ("counterexample", ["ProxED", "ProxATC1"])])
    def test_one_prox_per_iteration(self, tmp_path, monkeypatch, problem,
                                    algorithms):
        # r_prox is read off the step's own prox, so with every row
        # recorded each primal-dual run applies the prox once per step.
        # The reference solver's proxes, made in build_problem, are not
        # counted.
        calls = []
        for cls in (ProxOperator, L1Prox, ChainSumProx):
            apply_stack = cls.__dict__["apply_stack"]
            monkeypatch.setattr(
                cls, "apply_stack",
                lambda self, X, mu, hint=None, f=apply_stack:
                    calls.append(1) or f(self, X, mu, hint=hint))
        monkeypatch.setattr(cli, "build_problem",
                            lambda cfg: (build_problem(cfg), calls.clear())[0])
        overrides = {"algorithms": algorithms, "iters": 40}
        if problem == "counterexample":
            overrides.update(problem=problem, M=20, c=1.0,
                             graph={"kind": "complete", "K": 2})
        run_experiment(parse_config(write_config(tmp_path, overrides=overrides)))
        assert len(calls) == 2 * 40

    def test_csv_layout_and_comm_accounting(self, tmp_path):
        path = write_config(tmp_path,
                            overrides={"algorithms": ["ProxED", "ProxATC1"],
                                       "iters": 50})
        cfg = parse_config(path)
        run_experiment(cfg)
        ed = (tmp_path / "out" / "ProxED.csv").read_text().splitlines()
        assert ed[0] == "iter,comm_rounds,rel_sq_error,r_primal,r_dual,r_prox"
        assert ed[1].split(",")[0] == "1"
        assert len(ed) == 51
        # Residual columns populated for primal-dual runs.
        assert ed[1].split(",")[3] != ""
        atc = (tmp_path / "out" / "ProxATC1.csv").read_text().splitlines()
        assert int(atc[-1].split(",")[1]) == 2 * 50
        assert int(ed[-1].split(",")[1]) == 50

    def test_record_every_row_count(self, tmp_path):
        path = write_config(tmp_path, overrides={"iters": 200,
                                                 "record_every": 10})
        run_experiment(parse_config(path))
        rows = (tmp_path / "out" / "ProxED.csv").read_text().splitlines()
        assert len(rows) - 1 == 200 // 10 + 1

    def test_determinism_byte_identical(self, tmp_path):
        path = write_config(tmp_path,
                            overrides={"problem": "logistic_l1",
                                       "algorithms": ["ProxED"],
                                       "lambda": 0.01, "rho": 2e-3,
                                       "iters": 150,
                                       "data": {"n_samples": 120, "dim": 8,
                                                "seed": 4}})
        cfg = parse_config(path)
        run_experiment(cfg)
        first = (tmp_path / "out" / "ProxED.csv").read_bytes()
        run_experiment(cfg)
        second = (tmp_path / "out" / "ProxED.csv").read_bytes()
        assert first == second

    def test_sparse_graph_determinism_byte_identical(self, tmp_path):
        # Each run rebuilds the 2000-agent benchmark graph from its seed
        # and writes the same bytes to every trajectory and the summary.
        cfg = parse_config(write_config(tmp_path, overrides={
            "graph": BENCHMARK_GRAPH, "algorithms": list(ALGORITHMS),
            "iters": 5}))
        outputs = []
        for _ in range(2):
            run_experiment(cfg)
            csvs = sorted((tmp_path / "out").glob("*.csv"))
            outputs.append({p.name: p.read_bytes() for p in csvs})
            for p in csvs:
                p.unlink()
        assert len(outputs[0]) == len(ALGORITHMS) + 1
        assert outputs[0] == outputs[1]

    def test_one_algorithm_dies_before_the_next_resolves(self, tmp_path,
                                                         monkeypatch):
        # Nothing of one algorithm (its triple, CSR copies, step) is alive
        # while the next one's triple is built.
        refs, alive = [], []
        resolve = cli.resolve_algorithm

        def spy(acfg, cfg, problem):
            alive.append([ref() is not None for ref in refs])
            r = resolve(acfg, cfg, problem)
            refs.append(weakref.ref(r.triple))
            return r

        monkeypatch.setattr(cli, "resolve_algorithm", spy)
        run_experiment(parse_config(write_config(tmp_path, overrides={
            "algorithms": ["ProxED", "ProxATC1", "ProxATC2"], "iters": 5})))
        assert alive == [[], [False], [False, False]]

    @staticmethod
    def outputs_by_threads(tmp_path, overrides, names):
        """The files ``names`` that ``decprox run`` writes on the config
        with ``overrides``, under one BLAS thread and under two."""
        path = write_config(tmp_path, overrides=overrides)
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            config = json.loads(Path(path).read_text())
            config["output_dir"] = str(out)
            Path(path).write_text(json.dumps(config))
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run([sys.executable, "-m", "decprox.cli", "run", path],
                           env=env, check=True, capture_output=True,
                           timeout=300)
            outputs.append({name: (out / name).read_bytes() for name in names})
        return outputs

    def test_summary_independent_of_blas_threads(self, tmp_path):
        # The 2000-agent sparse graph's spectrum comes from Lanczos, which
        # gives the same bits on one BLAS thread and on two; a dense
        # eigvalsh of its A gave ProxED's gamma 0.96065450475396 on one
        # thread and 0.9606545047539601 on two.  The residual columns are
        # pairwise sums; np.linalg.norm's BLAS reduction gave ProxED's
        # iteration-3 r_primal 0.69618644298264065 on one thread and
        # 0.69618644298264076 on two.
        one, two = self.outputs_by_threads(tmp_path, {
            "graph": {"kind": "random_connected", "K": 2000, "seed": 7,
                      "extra_edge_prob": 0.002},
            "algorithms": ["ProxED", "ProxATC1", "ProxATC2"], "iters": 5},
            ("summary.csv", "ProxED.csv", "ProxATC1.csv", "ProxATC2.csv"))
        for name, body in one.items():
            assert two[name] == body, name

    def test_wide_outputs_independent_of_blas_threads(self, tmp_path):
        # At rcv1's width, 47,236, BLAS threads a dot product: ||w*||^2 as
        # w* @ w* gave ProxED's iteration-1 rel_sq_error 2.9516688631456036
        # on one thread and 2.9516688631456041 on two.  It is a pairwise sum.
        one, two = self.outputs_by_threads(tmp_path, {
            "graph": {"kind": "complete", "K": 2},
            "algorithms": ["ProxED", "PGEXTRA"], "iters": 3,
            "data": {"dim": 47236, "seed": 0}},
            ("summary.csv", "ProxED.csv", "PGEXTRA.csv"))
        for name, body in one.items():
            assert two[name] == body, name

    def test_separate_prox_residual_columns_empty(self, tmp_path):
        path = write_config(tmp_path, overrides={"algorithms": ["PGEXTRA"],
                                                 "iters": 30})
        run_experiment(parse_config(path))
        rows = (tmp_path / "out" / "PGEXTRA.csv").read_text().splitlines()
        assert rows[1].endswith(",,,")

    def test_divergence_recorded_others_still_run(self, tmp_path):
        path = write_config(
            tmp_path,
            overrides={"algorithms": [{"name": "ProxED", "mu": 100.0},
                                      {"name": "ProxATC2", "mu": "auto"}],
                       "iters": 100})
        summary, diverged = run_experiment(parse_config(path))
        assert diverged
        assert summary[0]["diverged"] and not summary[1]["diverged"]
        assert (tmp_path / "out" / "ProxATC2.csv").exists()

    def test_metadata_sidecar_resolves_config(self, tmp_path):
        path = write_config(tmp_path)
        cfg = parse_config(path)
        run_experiment(cfg)
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["problem"] == "lasso_quadratic"
        assert meta["graph"]["K"] == 6
        assert meta["iters"] == 200

    def test_counterexample_output_independent_of_algorithm_order(self, tmp_path):
        # The common prox holds no state, so ProxATC1's trajectory does not
        # depend on whether ProxED ran first in the same experiment.
        def run_in_order(names, sub):
            (tmp_path / sub).mkdir()
            path = write_config(tmp_path / sub, overrides={
                "problem": "counterexample",
                "graph": {"kind": "complete", "K": 2},
                "M": 200, "iters": 50, "algorithms": names, "c": 1.0,
                "output_dir": str(tmp_path / sub / "out")})
            run_experiment(parse_config(path))
            return (tmp_path / sub / "out" / "ProxATC1.csv").read_bytes()

        assert (run_in_order(["ProxED", "ProxATC1"], "a")
                == run_in_order(["ProxATC1", "ProxED"], "b"))

    def test_counterexample_preset_prox_ed_stays_linear(self, tmp_path):
        # The preset's ProxED run falls to about 1e-27 in 20,000 iterations.
        # A chain prox that lost 1e-14 on short blocks would stall it on a
        # floor just above classify_decay's and turn the verdict sublinear.
        cfg = cli.config_from_dict({
            **cli.COUNTEREXAMPLE_PRESET, "M": 2000, "iters": 20000,
            "algorithms": [{"name": "ProxED", "mu": 0.005}],
            "output_dir": str(tmp_path / "out")})
        (row,), diverged = run_experiment(cfg)
        assert not diverged
        assert row["verdict"] == "linear", row


class TestRegistry:
    def test_config_names_are_the_registry(self, tmp_path):
        # Every entry runs; its CSV counts the entry's rounds per iteration.
        names = sorted(ALGORITHMS)
        assert len(names) == 12
        summary, diverged = run_experiment(parse_config(write_config(
            tmp_path, overrides={"algorithms": names, "iters": 20})))
        assert not diverged and [row["algorithm"] for row in summary] == names
        for name in names:
            rows = (tmp_path / "out" / f"{name}.csv").read_text().splitlines()
            assert ([int(row.split(",")[1]) for row in rows[1:]]
                    == [i * ALGORITHMS[name].rounds for i in range(1, 21)])
        for form in ("PUDA_general", "NonATC", "AugDGM2var"):
            with pytest.raises(ConfigError, match=form):
                parse_config(write_config(tmp_path,
                                          overrides={"algorithms": [form]}))

    def test_every_name_converges_on_its_auto_step(self, tmp_path, capsys):
        # Each auto step is 0.9 of its own theorem's bound.  With Theorem 1's
        # bound for every row, EXTRA, DIGing, DLM and DLADMM diverged here.
        path = write_config(tmp_path, overrides={
            "graph": {"kind": "random_connected", "K": 20, "seed": 7,
                      "extra_edge_prob": 0.2},
            "algorithms": sorted(ALGORITHMS), "iters": 300})
        assert cli.main(["run", path]) == 0
        assert cli.main(["rates", path]) == 0
        lines = capsys.readouterr().out.splitlines()[-len(ALGORITHMS):]
        for line in lines:
            algo = ALGORITHMS[line.split()[0]]
            if algo.row is not None:
                assert f"{algo.theorem}  mu=" in line and "feasible=True" in line

    @pytest.mark.parametrize("names, decompositions", [
        (["ProxED", "ProxATC1", "ProxATC2", "AugDGM", "DIGing"], 1),
        (["ProxED", "ProxATC1", "ProxATC2", "AugDGM", "DIGing", "DLM"], 2)])
    def test_one_eigendecomposition_per_base(self, tmp_path, monkeypatch,
                                             names, decompositions):
        # Rows on A and on 0.5 (I + A) share one decomposition of A; DLM's
        # auto step and its triple share one of the Laplacian.
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda X: calls.append(1) or eigvalsh(X))
        run_experiment(parse_config(write_config(
            tmp_path, overrides={"algorithms": names, "iters": 5})))
        assert len(calls) == decompositions

    @pytest.mark.parametrize("names, solves", [
        (["ProxED", "ProxATC1", "ProxATC2", "AugDGM", "DIGing"], 1),
        (["ProxED", "ProxATC1", "ProxATC2", "AugDGM", "DIGing", "DLM"], 2)])
    def test_one_lanczos_solve_per_base_on_a_sparse_graph(
            self, tmp_path, monkeypatch, names, solves):
        # At K=300 with 3% nonzeros, each base takes one extreme-eigenvalue
        # solve by Lanczos and no eigvalsh.
        calls = {"eigsh": 0, "eigvalsh": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(netgraph, "eigsh", counted(netgraph.eigsh, "eigsh"))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            counted(np.linalg.eigvalsh, "eigvalsh"))
        run_experiment(parse_config(write_config(tmp_path, overrides={
            "graph": {"kind": "random_connected", "K": 300, "seed": 3,
                      "extra_edge_prob": 0.02},
            "algorithms": names, "iters": 5})))
        assert calls == {"eigsh": solves, "eigvalsh": 0}

    @pytest.mark.parametrize(
        "name", [n for n, a in ALGORITHMS.items() if a.shifted])
    def test_shifted_rows_report_matches_reference(self, tmp_path, name):
        # Eigenvalues (1 + eig(A))/2 stand in for a decomposition of
        # 0.5 (I + A).
        cfg = parse_config(write_config(tmp_path,
                                        overrides={"algorithms": [name]}))
        r = cli.resolve_algorithm(cfg.algorithms[0], cfg, build_problem(cfg))
        assert r.report == netgraph.validate_assumptions(r.triple)
        assert_reports_agree(checked_report(r.triple), reference_report(r.triple))


class TestSparseGraphs:
    """A sparse graph's matrices are CSR from edge list to engine, and a
    dense graph's path builds no sparse matrix."""

    @pytest.mark.parametrize("problem, graph", [
        ("counterexample", {"kind": "complete", "K": 2, "seed": 0,
                            "extra_edge_prob": 0.0}),
        # The README logistic_l1 graph (30% nonzero), under a lasso: the
        # logistic costs hold their samples as CSR.
        ("lasso_quadratic", {"kind": "random_connected", "K": 20, "seed": 7,
                             "extra_edge_prob": 0.2})], ids=["K2", "K20"])
    def test_dense_graph_builds_no_sparse_matrix(self, tmp_path, monkeypatch,
                                                 problem, graph):
        def built(*args, **kwargs):
            raise AssertionError("a scipy.sparse matrix was built")

        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
            monkeypatch.setattr(cls, "__init__", built)
        cfg = parse_config(write_config(tmp_path, overrides={
            "problem": problem, "graph": graph, "M": 20, "c": 1.0,
            "algorithms": list(ALGORITHMS)}))
        p = build_problem(cfg)
        g = netgraph.build_graph(**graph)
        A, L = loop_metropolis(g), loop_laplacian(g)
        for X, ref in ((p.A, A), (p.laplacian, L)):
            assert isinstance(X, np.ndarray) and np.array_equal(X, ref)
        for acfg in cfg.algorithms:
            r = cli.resolve_algorithm(acfg, cfg, p)
            if r.triple is None:
                continue
            row = netgraph.AlgorithmId(r.algorithm.row)
            base = L if row.on_laplacian else (
                0.5 * (np.eye(g.K) + A) if r.algorithm.shifted else A)
            expected = table1_recursion(row, base, c=cfg.c, mu=r.mu)
            for X, ref in zip((r.triple.A_bar, r.triple.B_sq, r.triple.C),
                              expected):
                # Every member is a polynomial holding the dense base, equal
                # to the recursion's form bit for bit.
                assert isinstance(X, netgraph.BasePolynomial), acfg.name
                assert isinstance(X.base, np.ndarray), acfg.name
                assert np.array_equal(dense(X), ref), acfg.name

    def test_separate_prox_methods_on_a_sparse_ring(self, tmp_path,
                                                    monkeypatch):
        # PG-EXTRA and DLADMM multiply a 200-agent ring's A, 0.5 (I + A)
        # and c L as CSR, and match the same run on dense matrices.
        overrides = {"graph": {"kind": "ring", "K": 200},
                     "algorithms": ["PGEXTRA", "DLADMM"], "iters": 300}
        for d in ("csr", "dense"):
            (tmp_path / d).mkdir()
        cfg = parse_config(write_config(tmp_path / "csr", overrides=overrides))
        p = build_problem(cfg)
        for acfg in cfg.algorithms:
            step = cli.resolve_algorithm(acfg, cfg, p).step
            held = [c.cell_contents for c in step.__closure__]
            assert any(sp.issparse(X) and X.shape == (200, 200) for X in held)
            assert not any(isinstance(X, np.matrix) for X in held)
        run_experiment(cfg)
        monkeypatch.setattr(netgraph, "CSR_DENSITY", 0.0)
        dense_cfg = parse_config(write_config(tmp_path / "dense",
                                              overrides=overrides))
        assert isinstance(build_problem(dense_cfg).A, np.ndarray)
        run_experiment(dense_cfg)
        for name in ("PGEXTRA.csv", "DLADMM.csv"):
            rows = [np.genfromtxt(tmp_path / d / "out" / name, delimiter=",",
                                  skip_header=1)[:, :3] for d in ("csr", "dense")]
            assert rows[0].shape == (300, 3)
            np.testing.assert_allclose(rows[0], rows[1], rtol=1e-10, atol=0)

    def test_benchmark_graph_run_stays_small(self, tmp_path):
        # Building the problem, resolving ProxED and ProxATC1 and running 5
        # iterations of each allocate under 8 MB at a time (2.6 MB, most of
        # it the Metropolis row sums' block); one dense 2000 x 2000 matrix
        # is 32 MB.  At the benchmark's dim 30 the iterates' K x M stacks
        # add about 5 MB.
        cfg = parse_config(write_config(tmp_path, overrides={
            "graph": BENCHMARK_GRAPH, "algorithms": ["ProxED", "ProxATC1"],
            "iters": 5}))
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_validate_10000_agents_in_a_subprocess(self, tmp_path):
        # A 10,000-agent sparse graph's A alone is 800 MB as a dense matrix.
        # The inner interpreter reports the largest resident size of its
        # own children only: decprox validate.
        path = write_config(tmp_path, overrides={
            "graph": GRAPH_10000,
            "algorithms": ["ProxED", "ProxATC1", "ProxATC2", "DLM"]})
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = ("import resource, subprocess, sys; "
                 "subprocess.run([sys.executable, '-m', 'decprox.cli', "
                 "'validate', sys.argv[1]], check=True, "
                 "stdout=subprocess.DEVNULL); "
                 "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", probe, path], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=120)
        assert int(out.stdout.split()[-1]) < 300 * 1024  # KiB on Linux

    def test_reference_solve_takes_one_dynamic_programme(self, tmp_path,
                                                         monkeypatch):
        # Both reference iterations of the preset prox the same point; the
        # second takes the first's segmentation in closed form.
        calls = []
        dp = prox_mod.prox_anchored_chain
        monkeypatch.setattr(prox_mod, "prox_anchored_chain",
                            lambda *a: calls.append(1) or dp(*a))
        cfg = cli.config_from_dict({**cli.COUNTEREXAMPLE_PRESET, "M": 200,
                                    "output_dir": str(tmp_path)})
        p = build_problem(cfg)
        assert len(calls) == 1
        assert np.array_equal(p.w_star,
                              unhinted_reference(p.costs, p.common_prox))

    def test_preset_run_takes_two_dynamic_programmes(self, tmp_path,
                                                     monkeypatch):
        # Step 1 has no segmentation to hand the chain prox, so both rows
        # run the dynamic programme; every later step solves the one
        # carried in closed form, so the O(M) programme stays off the hot
        # path.
        cfg = cli.config_from_dict({
            **cli.COUNTEREXAMPLE_PRESET, "M": 200, "iters": 500,
            "algorithms": [{"name": "ProxED", "mu": 0.005}],
            "output_dir": str(tmp_path)})
        p = build_problem(cfg)
        r = cli.resolve_algorithm(cfg.algorithms[0], cfg, p)
        steps, calls = [], []
        dp = prox_mod.prox_anchored_chain
        monkeypatch.setattr(prox_mod, "prox_anchored_chain",
                            lambda *a: calls.append(len(steps)) or dp(*a))
        record = engine.run(r.algorithm,
                            lambda st: steps.append(1) or r.step(st),
                            p.costs, p.w_star, cfg.iters)
        assert not record.diverged and len(steps) == 500
        assert calls == [1, 1]

    @pytest.mark.parametrize("M, iters, seed", [
        (200, 500, None), (2000, 3000, None), (200, 500, 1)])
    def test_carried_segmentation_matches_dropped(self, tmp_path, monkeypatch,
                                                  M, iters, seed):
        # The step hands the chain prox the segmentation it found of W; a
        # run that drops it derives it from W again at every step, the
        # first included.  Both runs are the same byte for byte: from the
        # zero start, whose only dynamic programmes are at step 1, and from
        # a seeded start, whose rows keep falling back to it after step 1.
        cfg = cli.config_from_dict({
            **cli.COUNTEREXAMPLE_PRESET, "M": M, "iters": iters,
            "algorithms": [{"name": "ProxED", "mu": 0.005}],
            "output_dir": str(tmp_path)})
        p = build_problem(cfg)
        r = cli.resolve_algorithm(cfg.algorithms[0], cfg, p)
        steps, fallbacks, derived = [], [], []
        dp, segmentation = prox_mod.prox_anchored_chain, prox_mod._segmentation
        monkeypatch.setattr(prox_mod, "prox_anchored_chain",
                            lambda *a: fallbacks.append(len(steps)) or dp(*a))
        monkeypatch.setattr(prox_mod, "_segmentation",
                            lambda *a: derived.append(1) or segmentation(*a))

        def run(step):
            steps.clear(), fallbacks.clear(), derived.clear()
            record = engine.run(
                r.algorithm, lambda st: steps.append(1) or step(st), p.costs,
                p.w_star, iters, seed=seed,
                residual_fn=analysis.fixed_point_residuals)
            assert not record.diverged
            return record, list(fallbacks), len(derived)

        carried, carried_dp, carried_derived = run(r.step)
        dropped, dropped_dp, dropped_derived = run(
            lambda st: r.step(dataclasses.replace(st, W_segments=[
                prox_mod._segmentation(w, prox_mod._ANCHOR) for w in st.W])))
        assert carried_dp == dropped_dp
        if seed is None:
            assert carried_dp == [1, 1]
            # Two rows: each carried row derives the programme's
            # segmentation at step 1 and none after that; each dropped row
            # also derives W's at every step.
            assert carried_derived == 2
            assert dropped_derived == 4 + 2 * (iters - 1)
        else:
            assert max(carried_dp) > 1
        assert carried.final_state.W_segments is not None
        assert carried.errors == dropped.errors
        assert carried.residuals == dropped.residuals
        assert (carried.final_state.W.tobytes()
                == dropped.final_state.W.tobytes())


# One malformed key each, on the valid K=6 lasso config of write_config:
# (the key, its value, other keys the probe sets validly).
MALFORMED = [
    ("graph.kind", "foo", {}),
    ("graph.K", 1, {}),
    ("graph.extra_edge_prob", 2.0, {}),
    ("graph.K", "6", {}),
    ("graph", 5, {}),
    ("iters", 10.5, {}),
    ("iters", "10", {}),
    ("M", "8", {"problem": "counterexample",
                "graph": {"kind": "complete", "K": 2}}),
    ("data.flip_prob", "x", {}),
    ("data.path", "no_such_file.svm",
     {"problem": "logistic_l1", "data": {"source": "libsvm"}}),
    # Only logistic_l1 reads a file: elsewhere a LIBSVM source would be
    # ignored, missing file and all.
    ("data.source", "libsvm",
     {"problem": "counterexample", "graph": {"kind": "complete", "K": 2},
      "data": {"path": "/nonexistent.svm"}}),
    ("data.source", "libsvm", {"data": {"path": "no_such_file.svm"}}),
    ("data.n_samples", 3, {"problem": "logistic_l1"}),
    ("algorithms", "ProxED", {}),
    # No run: nothing to write but a header-only summary.csv.
    ("algorithms", [], {}),
    ("algorithms[0].mu", True, {"algorithms": [{"name": "ProxED"}]}),
    ("lambda", True, {}),
    ("record_every", 2.5, {}),
    ("data.dim", 0, {}),
]


class TestMain:
    @pytest.mark.parametrize("key, value, others", MALFORMED)
    def test_malformed_config_exit_2(self, tmp_path, capsys, key, value,
                                     others):
        cfg = json.loads(Path(write_config(tmp_path, others)).read_text())
        if key.startswith("algorithms["):
            cfg["algorithms"][0]["mu"] = value
        elif "." in key:
            section, name = key.split(".")
            cfg[section] = {**cfg[section], name: value}
        else:
            cfg[key] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate", "rates"])
    def test_featureless_libsvm_exit_2(self, tmp_path, capsys, command):
        # Labels alone give zero columns: no problem to solve or check.
        data = tmp_path / "labels.svm"
        data.write_text("1\n-1\n1 # no feature\n-1\n")
        path = write_config(tmp_path, {
            "problem": "logistic_l1", "graph": {"kind": "complete", "K": 2},
            "data": {"source": "libsvm", "path": str(data)}})
        assert cli.main([command, path]) == 2
        err = capsys.readouterr().err
        assert f"config error: data.path: {data} holds no feature" in err

    @pytest.mark.parametrize("command", ["run", "validate", "rates"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_non_finite_libsvm_exit_2(self, tmp_path, capsys, command, value,
                                      normalize):
        # A NaN or infinite feature leaves no problem to solve or check;
        # with normalize too, where scaling would zero an infinite row.
        data = tmp_path / "nonfinite.svm"
        data.write_text(f"1 1:0.5 2:-1\n-1 1:{value}\n1 2:0.25\n-1 1:2 2:3\n")
        path = write_config(tmp_path, {
            "problem": "logistic_l1", "graph": {"kind": "complete", "K": 2},
            "data": {"source": "libsvm", "path": str(data),
                     "normalize": normalize}})
        assert cli.main([command, path]) == 2
        err = capsys.readouterr().err
        assert (f"config error: data.path: {data} holds a non-finite "
                "feature value") in err

    def test_reference_cap_exit_2(self, tmp_path, monkeypatch, capsys):
        # A reference solver stopped by its cap gives no w* to measure
        # errors against: the run fails and reports the norm it reached.
        reference = analysis.centralized_reference
        monkeypatch.setattr(analysis, "centralized_reference",
                            lambda costs, prox: reference(costs, prox,
                                                          max_iter=3))
        path = write_config(tmp_path, {
            "problem": "logistic_l1", "lambda": 0.01,
            "data": {"n_samples": 60, "dim": 4}})
        assert cli.main(["run", path]) == 2
        assert "mapping norm" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_counterexample_preset_is_a_config(self, tmp_path, monkeypatch):
        # The command's preset goes through the loader a config file does.
        ran = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda cfg: ran.append(cfg) or ([], False))
        out = str(tmp_path / "ce")
        assert cli.main(["counterexample", "--M", "8", "--iters", "300",
                         "--out", out]) == 0
        path = tmp_path / "preset.json"
        path.write_text(json.dumps({**cli.COUNTEREXAMPLE_PRESET, "M": 8,
                                    "iters": 300, "output_dir": out}))
        assert ran == [parse_config(path)]

    def test_run_exit_codes(self, tmp_path):
        path = write_config(tmp_path, overrides={"iters": 50})
        assert cli.main(["run", path]) == 0

    @pytest.mark.parametrize("command", ["run", "counterexample"])
    def test_output_dir_a_file_exit_2(self, tmp_path, capsys, command):
        # No directory can be made where a file is: the run stops before
        # it solves anything, naming the key.
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        argv = (["run", write_config(tmp_path, output_dir=str(out))]
                if command == "run" else
                ["counterexample", "--M", "8", "--iters", "30", "--out",
                 str(out)])
        assert cli.main(argv) == 2
        assert "config error: output_dir: " in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

    def test_config_error_exit_2(self, tmp_path):
        path = write_config(tmp_path, overrides={"rho": -1.0})
        assert cli.main(["run", path]) == 2
        assert cli.main(["run", str(tmp_path / "missing.json")]) == 2

    def test_divergence_exit_3(self, tmp_path, capsys):
        path = write_config(
            tmp_path, overrides={"algorithms": [{"name": "ProxED",
                                                 "mu": 100.0}],
                                 "iters": 100})
        assert cli.main(["run", path]) == 3
        (line,) = capsys.readouterr().out.splitlines()
        assert re.search(r"  DIVERGED: error \S+ exceeded the divergence "
                         r"limit at iteration \d+$", line), line
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert "divergence limit" not in summary

    def test_counterexample_divergence_exit_3(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(engine, "DIVERGENCE_LIMIT", 1e-300)
        assert cli.main(["counterexample", "--M", "8",
                         "--out", str(tmp_path / "ce")]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for line in lines:
            assert re.search(r"  DIVERGED: error \S+ exceeded the divergence "
                             r"limit at iteration 1$", line), line

    def test_validate_and_rates(self, tmp_path, capsys):
        # Both reports in full, as the commands printed them when each had
        # its own loop.
        path = write_config(tmp_path,
                            overrides={"algorithms": ["ProxED", "EXTRA",
                                                      "PGEXTRA"]})
        assert cli.main(["validate", path]) == 0
        assert capsys.readouterr().out == (
            "        ProxED  sigma_max(C)=0.000000  sigma_min(B^2)=0.125000"
            "  lambda2(A_bar)=0.875000  A2=ok  A4=FAIL\n"
            "         EXTRA  sigma_max(C)=0.625000  sigma_min(B^2)=0.125000"
            "  lambda2(A_bar)=1.000000  A2=FAIL  A4=ok\n"
            "       PGEXTRA  (no consensus triple; separate-prox method)\n")
        assert cli.main(["rates", path]) == 0
        assert capsys.readouterr().out == (
            "        ProxED  Thm1  mu=1.8  mu_bound=2  gamma=0.87500000"
            "  feasible=True\n"
            "         EXTRA  Thm4  mu=0.675  mu_bound=0.75  gamma=0.87500000"
            "  feasible=True\n"
            "       PGEXTRA  (no applicable rate theorem)\n")

    @pytest.mark.parametrize("problem", [
        {"problem": "logistic_l1", "lambda": 0.01,
         "data": {"n_samples": 60, "dim": 4}},
        {"problem": "counterexample", "M": 8,
         "graph": {"kind": "complete", "K": 2}}])
    def test_only_run_solves_the_reference(self, tmp_path, monkeypatch,
                                           problem):
        # validate and rates print no w*: they solve none, so a reference
        # that cannot converge leaves them at exit 0.  run solves it once.
        reference, calls = analysis.centralized_reference, []

        def capped(costs, prox):
            calls.append(prox)
            raise analysis.NotConvergedError("capped")

        path = write_config(tmp_path, {**problem, "iters": 50,
                                       "algorithms": ["ProxED", "PGEXTRA"]})
        monkeypatch.setattr(analysis, "centralized_reference", capped)
        assert cli.main(["validate", path]) == 0
        assert cli.main(["rates", path]) == 0
        assert calls == []
        monkeypatch.setattr(analysis, "centralized_reference",
                            lambda costs, prox: (calls.append(prox),
                                                 reference(costs, prox))[1])
        assert cli.main(["run", path]) == 0
        assert len(calls) == 1

    def test_counterexample_preset_small(self, tmp_path):
        out = str(tmp_path / "ce")
        code = cli.main(["counterexample", "--M", "8", "--iters", "300",
                         "--out", out])
        assert code == 0
        for name in ("PGEXTRA", "DLADMM", "ProxED"):
            assert (tmp_path / "ce" / f"{name}.csv").exists()

    def test_counterexample_odd_m_exit_2(self, tmp_path):
        assert cli.main(["counterexample", "--M", "7",
                         "--out", str(tmp_path / "x")]) == 2
