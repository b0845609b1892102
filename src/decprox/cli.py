"""Configuration-driven experiment runner.

Commands: ``run`` (full experiment), ``validate`` (spectral/assumption
report), ``rates`` (theoretical rate reports), ``counterexample`` (the
two-agent separate-regularizer preset).  Configs are JSON with strict
key checking; trajectories are written as deterministic CSV.

A config names algorithms of ``engine.ALGORITHMS``; each entry gives the
row to build and the theorem whose bound sets the ``"auto"`` step (0.9 of
it).  A and the Laplacian are each decomposed at most once per experiment,
on first need, for every row on that base.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import analysis, costs as costs_mod, engine, netgraph, prox as prox_mod

__all__ = ["ExperimentConfig", "parse_config", "run_experiment", "main"]


class ConfigError(ValueError):
    pass


PROBLEMS = ("lasso_quadratic", "logistic_l1", "counterexample")

CSV_HEADER = "iter,comm_rounds,rel_sq_error,r_primal,r_dual,r_prox"


@dataclass
class AlgorithmConfig:
    name: str
    mu: object = "auto"  # float or the string "auto"


@dataclass
class GraphConfig:
    kind: str = "random_connected"
    K: int = 20
    seed: int = 7
    extra_edge_prob: float = 0.2


@dataclass
class DataConfig:
    source: str = "synthetic"  # synthetic | libsvm
    n_samples: int = 500
    dim: int = 30
    seed: int = 3
    flip_prob: float = 0.1
    path: str = None
    normalize: bool = True
    label_map: tuple = None


@dataclass
class ExperimentConfig:
    problem: str
    graph: GraphConfig = field(default_factory=GraphConfig)
    algorithms: list = field(default_factory=list)
    lam: float = 1e-4
    rho: float = 2e-3
    eta: float = 1.0
    c: float = 0.5
    M: int = 2000  # counterexample dimension
    iters: int = None
    record_every: int = 1
    output_dir: str = "decprox_out"
    data: DataConfig = field(default_factory=DataConfig)
    init_seed: int = None
    partition_seed: int = 0


_TOP_KEYS = {
    "problem", "graph", "algorithms", "lambda", "rho", "eta", "c", "M",
    "iters", "record_every", "output_dir", "data", "seeds",
}
_GRAPH_KEYS = {"kind", "K", "seed", "extra_edge_prob"}
_DATA_KEYS = {"source", "n_samples", "dim", "seed", "flip_prob",
              "path", "normalize", "label_map"}
_SEED_KEYS = {"init", "partition"}


def _reject_unknown(d, allowed, where):
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def parse_config(path):
    """Load and resolve a JSON experiment config with strict key checks."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e

    _reject_unknown(raw, _TOP_KEYS, "config")
    if "problem" not in raw:
        raise ConfigError("missing required key: problem")
    problem = raw["problem"]
    if problem not in PROBLEMS:
        raise ConfigError(f"problem must be one of {PROBLEMS}, got {problem!r}")

    graph_raw = raw.get("graph", {})
    _reject_unknown(graph_raw, _GRAPH_KEYS, "graph")
    graph = GraphConfig(**graph_raw)

    data_raw = raw.get("data", {})
    _reject_unknown(data_raw, _DATA_KEYS, "data")
    if "label_map" in data_raw and data_raw["label_map"] is not None:
        data_raw["label_map"] = tuple(data_raw["label_map"])
    data = DataConfig(**data_raw)

    seeds = raw.get("seeds", {})
    _reject_unknown(seeds, _SEED_KEYS, "seeds")

    algos = []
    default_algos = (["PGEXTRA", "DLADMM", "ProxED"] if problem == "counterexample"
                     else ["ProxED", "ProxATC1", "ProxATC2"])
    for entry in raw.get("algorithms", default_algos):
        if isinstance(entry, str):
            entry = {"name": entry}
        _reject_unknown(entry, {"name", "mu"}, "algorithm entry")
        name = entry.get("name")
        if name not in engine.ALGORITHMS:
            raise ConfigError(f"unknown algorithm: {name!r}")
        mu = entry.get("mu", "auto")
        if mu != "auto" and (not isinstance(mu, (int, float)) or mu <= 0):
            raise ConfigError(f"mu must be positive or 'auto', got {mu!r}")
        algos.append(AlgorithmConfig(name=name, mu=mu))

    cfg = ExperimentConfig(
        problem=problem,
        graph=graph,
        algorithms=algos,
        lam=raw.get("lambda", 1e-4),
        rho=raw.get("rho", 2e-3),
        eta=raw.get("eta", 1.0),
        c=raw.get("c", 0.5),
        M=raw.get("M", 2000),
        iters=raw.get("iters", 20000 if problem == "counterexample" else 5000),
        record_every=raw.get("record_every", 1),
        output_dir=raw.get("output_dir", "decprox_out"),
        data=data,
        init_seed=seeds.get("init"),
        partition_seed=seeds.get("partition", 0),
    )
    _check_domains(cfg)
    return cfg


def _check_domains(cfg):
    for name, val in (("lambda", cfg.lam), ("rho", cfg.rho), ("eta", cfg.eta),
                      ("c", cfg.c)):
        if not isinstance(val, (int, float)) or val <= 0:
            raise ConfigError(f"{name} must be a positive number, got {val!r}")
    if cfg.iters < 1:
        raise ConfigError("iters must be >= 1")
    if cfg.record_every < 1:
        raise ConfigError("record_every must be >= 1")
    if cfg.problem == "counterexample":
        if cfg.M < 2 or cfg.M % 2:
            raise ConfigError(f"M must be even and >= 2, got {cfg.M}")
        if cfg.graph.K != 2:
            raise ConfigError("the counterexample is a two-agent problem: "
                              f"graph K must be 2, got {cfg.graph.K}")
    if not (0 <= cfg.data.flip_prob <= 1):
        raise ConfigError("data.flip_prob must be in [0,1]")
    if cfg.data.source not in ("synthetic", "libsvm"):
        raise ConfigError("data.source must be 'synthetic' or 'libsvm'")
    if cfg.data.source == "libsvm" and not cfg.data.path:
        raise ConfigError("data.source 'libsvm' requires data.path")


# ---------------------------------------------------------------------------
# problem construction

@dataclass
class Problem:
    costs: object
    common_prox: object
    per_agent_prox: list
    w_star: np.ndarray
    A: np.ndarray
    laplacian: np.ndarray
    _eig: dict = field(default_factory=dict, init=False)

    def eigvals(self, row, shifted):
        """Eigenvalues of the row's base, L, A or 0.5 (I + A), from one
        decomposition of L or A per problem, made on first need."""
        base = "L" if row.on_laplacian else "A"
        if base not in self._eig:
            X = self.laplacian if row.on_laplacian else self.A
            self._eig[base] = np.linalg.eigvalsh(X)
        return 0.5 * (1.0 + self._eig[base]) if shifted else self._eig[base]


def build_problem(cfg):
    g = netgraph.build_graph(cfg.graph.kind, cfg.graph.K, seed=cfg.graph.seed,
                             extra_edge_prob=cfg.graph.extra_edge_prob)
    A = netgraph.metropolis_matrix(g)
    L = netgraph.laplacian_matrix(g)
    K = g.K
    common = prox_mod.L1Prox(cfg.rho)
    per_agent = [common] * K

    if cfg.problem == "lasso_quadratic":
        M = cfg.data.dim
        rng = np.random.default_rng(cfg.data.seed)
        targets = rng.standard_normal((K, M))
        costs = costs_mod.quadratic_cost(cfg.eta, K, M, targets=targets)
        w_star = prox_mod.prox_l1(targets.mean(axis=0), cfg.rho / cfg.eta)

    elif cfg.problem == "logistic_l1":
        if cfg.data.source == "synthetic":
            dataset = costs_mod.synthetic_classification(
                cfg.data.n_samples, cfg.data.dim, seed=cfg.data.seed,
                flip_prob=cfg.data.flip_prob)
        else:
            dataset = costs_mod.read_libsvm(
                cfg.data.path, normalize=cfg.data.normalize,
                label_map=cfg.data.label_map)
        shards = costs_mod.partition_data(dataset, K, seed=cfg.partition_seed)
        costs = costs_mod.logistic_cost(shards, cfg.lam)
        w_star = analysis.centralized_reference(costs, common)

    else:  # counterexample
        pair = prox_mod.build_counterexample(cfg.M)
        costs = costs_mod.quadratic_cost(cfg.eta, K, cfg.M)
        # Weight 1/K so the common-regularizer runs target the same
        # minimizer as the separate runs, whose effective non-smooth part
        # is the average (R1 + R2)/K.
        common = prox_mod.ChainSumProx(pair, weight=1.0 / K)
        per_agent = [prox_mod.CounterexampleProx("R1", pair),
                     prox_mod.CounterexampleProx("R2", pair)]
        w_star = analysis.centralized_reference(costs, common)

    return Problem(costs=costs, common_prox=common, per_agent_prox=per_agent,
                   w_star=w_star, A=A, laplacian=L)


@dataclass(frozen=True)
class Resolved:
    """One configured algorithm, ready to run (a triple, report and rate
    only for a Table I row)."""

    algorithm: engine.Algorithm
    mu: float
    step: object
    triple: netgraph.ConsensusTriple = None
    report: netgraph.SpectralReport = None
    rate: analysis.RateReport = None


def _auto_step(algo, row, problem, c):
    """0.9 of the step bound of the entry's theorem, with sigma_max(C)
    from its row (for PGEXTRA and DLADMM, the row each runs when R_k = 0)."""
    delta = problem.costs.delta
    eig_C = netgraph.table1_spectrum(row, problem.eigvals(row, algo.shifted),
                                     c=c, mu=1.0)[2]
    sigma = float(eig_C.max())
    if row.on_laplacian:  # C = c mu L: mu = 0.9 step_bound(Thm4, mu sigma, delta)
        return 1.8 / (delta + 1.8 * sigma)
    # The bound goes as 1/delta; dividing last rounds as 0.9 (2 - sigma)/delta.
    return 0.9 * analysis.step_bound(algo.theorem, sigma, 1.0) / delta


def resolve_algorithm(acfg, cfg, problem):
    """Build one algorithm's step, with the spectral/rate context of its row."""
    algo = engine.ALGORITHMS[acfg.name]
    row = netgraph.AlgorithmId(algo.row or algo.reduces_to)
    A = netgraph.shift_positive(problem.A) if algo.shifted else problem.A
    mu = acfg.mu
    if mu == "auto":
        mu = _auto_step(algo, row, problem, cfg.c)
    triple = report = rate = None
    prox = problem.per_agent_prox
    if algo.row is not None:
        triple = netgraph.table1_matrices(
            row, A, c=cfg.c, mu=mu, L=problem.laplacian,
            eigvals=problem.eigvals(row, algo.shifted))
        report = netgraph.validate_assumptions(triple)
        # Theorem 1 rests on Assumption 2, Theorem 4 on Assumption 4.
        holds = (report.assumption2_ok if algo.theorem == "Thm1"
                 else report.assumption4_ok)
        try:
            if holds and report.sigma_min_Bsq > 0:
                rate = analysis.theoretical_rate(
                    algo.theorem, mu, problem.costs.nu, problem.costs.delta,
                    report.sigma_max_C, report.sigma_min_Bsq)
        except ValueError:
            rate = None
        prox = problem.common_prox
    step = algo.step(problem.costs, prox, mu, triple=triple, A=A, c=cfg.c,
                     laplacian=problem.laplacian)
    return Resolved(algo, mu, step, triple, report, rate)


# ---------------------------------------------------------------------------
# output

def _fmt(x):
    if x is None:
        return ""
    return format(float(x), ".17g")


def write_trajectory_csv(path, record):
    lines = [CSV_HEADER]
    for i, (it, cr, err) in enumerate(zip(record.iterations,
                                          record.comm_rounds, record.errors)):
        res = record.residuals[i] if i < len(record.residuals) else None
        r1, r2, r3 = res if res is not None else (None, None, None)
        lines.append(",".join([str(it), str(cr), _fmt(err),
                               _fmt(r1), _fmt(r2), _fmt(r3)]))
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def _config_dict(cfg):
    return {
        "problem": cfg.problem,
        "graph": vars(cfg.graph),
        "algorithms": [{"name": a.name, "mu": a.mu} for a in cfg.algorithms],
        "lambda": cfg.lam, "rho": cfg.rho, "eta": cfg.eta, "c": cfg.c,
        "M": cfg.M, "iters": cfg.iters, "record_every": cfg.record_every,
        "output_dir": cfg.output_dir,
        "data": {k: (list(v) if isinstance(v, tuple) else v)
                 for k, v in vars(cfg.data).items()},
        "seeds": {"init": cfg.init_seed, "partition": cfg.partition_seed},
    }


def run_experiment(cfg):
    """Run every configured algorithm; write one CSV per algorithm plus a
    summary table and a metadata sidecar.  Returns the summary rows."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    problem = build_problem(cfg)
    summary = []
    any_diverged = False

    for acfg in cfg.algorithms:
        r = resolve_algorithm(acfg, cfg, problem)
        residual_fn = None
        if r.triple is not None:
            residual_fn = lambda st, r=r: analysis.fixed_point_residuals(
                st, problem.costs, problem.common_prox, r.triple, r.mu)
        record = engine.run(r.algorithm, r.step, problem.costs, problem.w_star,
                            cfg.iters, record_every=cfg.record_every,
                            seed=cfg.init_seed, residual_fn=residual_fn)
        any_diverged |= record.diverged

        csv_path = os.path.join(cfg.output_dir, f"{acfg.name}.csv")
        write_trajectory_csv(csv_path, record)

        verdict = ""
        empirical_ratio = ""
        if not record.diverged and len(record.errors) >= 100:
            fv = analysis.classify_decay(record)
            verdict = fv.classification
            if fv.geometric_ratio_windows:
                empirical_ratio = _fmt(fv.geometric_ratio_windows[-1])
        summary.append({
            "algorithm": acfg.name,
            "mu": r.mu,
            "theoretical_gamma": r.rate.gamma if r.rate else None,
            "empirical_ratio": empirical_ratio,
            "final_error": record.errors[-1] if record.errors else None,
            "comm_rounds": record.comm_rounds[-1] if record.comm_rounds else 0,
            "verdict": verdict,
            "diverged": record.diverged,
            "note": record.note,
        })

    with open(os.path.join(cfg.output_dir, "summary.csv"), "w", newline="") as f:
        f.write("algorithm,mu,theoretical_gamma,empirical_ratio,"
                "final_error,comm_rounds,verdict,diverged\n")
        for row in summary:
            f.write(",".join([
                row["algorithm"], _fmt(row["mu"]),
                _fmt(row["theoretical_gamma"]), str(row["empirical_ratio"]),
                _fmt(row["final_error"]), str(row["comm_rounds"]),
                row["verdict"], str(row["diverged"]).lower(),
            ]) + "\n")
    with open(os.path.join(cfg.output_dir, "metadata.json"), "w") as f:
        json.dump(_config_dict(cfg), f, indent=2, sort_keys=True)
    return summary, any_diverged


# ---------------------------------------------------------------------------
# commands

def _cmd_run(args):
    cfg = parse_config(args.config)
    summary, diverged = run_experiment(cfg)
    for row in summary:
        gamma = _fmt(row["theoretical_gamma"]) or "-"
        print(f"{row['algorithm']:>14s}  mu={row['mu']:.6g}  gamma={gamma}"
              f"  final={_fmt(row['final_error'])}  verdict={row['verdict'] or '-'}"
              f"{'  DIVERGED' if row['diverged'] else ''}")
    return 3 if diverged else 0


def _cmd_validate(args):
    cfg = parse_config(args.config)
    problem = build_problem(cfg)
    for acfg in cfg.algorithms:
        report = resolve_algorithm(acfg, cfg, problem).report
        if report is None:
            print(f"{acfg.name:>14s}  (no consensus triple; separate-prox method)")
            continue
        print(f"{acfg.name:>14s}  sigma_max(C)={report.sigma_max_C:.6f}"
              f"  sigma_min(B^2)={report.sigma_min_Bsq:.6f}"
              f"  lambda2(A_bar)={report.lambda2_A:.6f}"
              f"  A2={'ok' if report.assumption2_ok else 'FAIL'}"
              f"  A4={'ok' if report.assumption4_ok else 'FAIL'}")
    return 0


def _cmd_rates(args):
    cfg = parse_config(args.config)
    problem = build_problem(cfg)
    for acfg in cfg.algorithms:
        rate = resolve_algorithm(acfg, cfg, problem).rate
        if rate is None:
            print(f"{acfg.name:>14s}  (no applicable rate theorem)")
        else:
            print(f"{acfg.name:>14s}  {rate.theorem}  mu={rate.mu:.6g}"
                  f"  mu_bound={rate.mu_bound:.6g}  gamma={rate.gamma:.8f}"
                  f"  feasible={rate.feasible}")
    return 0


def _cmd_counterexample(args):
    cfg = ExperimentConfig(
        problem="counterexample",
        graph=GraphConfig(kind="complete", K=2, seed=0, extra_edge_prob=0.0),
        algorithms=[AlgorithmConfig(name, 0.005)
                    for name in ("PGEXTRA", "DLADMM", "ProxED")],
        eta=1.0, c=1.0, M=args.M, iters=args.iters,
        output_dir=args.out,
    )
    _check_domains(cfg)
    summary, diverged = run_experiment(cfg)
    for row in summary:
        print(f"{row['algorithm']:>14s}  final={_fmt(row['final_error'])}"
              f"  verdict={row['verdict'] or '-'}")
    return 3 if diverged else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="decprox",
        description="Decentralized proximal gradient experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a full experiment from a JSON config")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("validate", help="spectral/assumption report only")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("rates", help="theoretical rate reports without running")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_rates)

    p = sub.add_parser("counterexample",
                       help="two-agent separate-regularizer preset")
    p.add_argument("--M", type=int, default=2000)
    p.add_argument("--iters", type=int, default=20000)
    p.add_argument("--out", default="decprox_counterexample")
    p.set_defaults(fn=_cmd_counterexample)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except engine.DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
