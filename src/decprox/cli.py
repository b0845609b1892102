"""Configuration-driven experiment runner.

Commands: ``run`` (full experiment), ``validate`` (spectral/assumption
report), ``rates`` (theoretical rate reports), ``counterexample`` (the
two-agent separate-regularizer preset).  Trajectories are written as
deterministic CSV.

A config is JSON.  Each field of the config dataclasses below is one key,
with its default and its allowed values; one loader checks every key's
name, type and range against them, and any config it cannot honour, or a
reference solution it cannot reach, exits with code 2.  A diverged run
prints its note after ``DIVERGED``, and the command exits with code 3.

A config names algorithms of ``engine.ALGORITHMS``; each entry gives the
row to build and the theorem whose bound sets the ``"auto"`` step (0.9 of
it).  Every spectral scalar of a row is decided by three eigenvalues of
its base (``netgraph.deciding_eigenvalues``): the consensus eigenvalue and
the extremes of the spectrum off the ones vector.  They are solved at most
once per experiment for A and for the Laplacian, on first need, for every
row on that base.  Each algorithm is resolved, run and summarized in turn,
and nothing of one (its triple, step) outlives its summary row.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from . import analysis, costs as costs_mod, engine, netgraph, prox as prox_mod

__all__ = ["ExperimentConfig", "parse_config", "run_experiment", "main"]


class ConfigError(ValueError):
    pass


# Per problem: the algorithms and the iteration budget of a config that
# names none (``algorithms`` and ``iters`` left null).
PROBLEMS = {
    "lasso_quadratic": (("ProxED", "ProxATC1", "ProxATC2"), 5000),
    "logistic_l1": (("ProxED", "ProxATC1", "ProxATC2"), 5000),
    "counterexample": (("PGEXTRA", "DLADMM", "ProxED"), 20000),
}

# The `counterexample` command's config where it differs from the
# defaults; --M, --iters and --out override M, iters and output_dir.
COUNTEREXAMPLE_PRESET = {
    "problem": "counterexample",
    "graph": {"kind": "complete", "K": 2, "seed": 0, "extra_edge_prob": 0.0},
    "algorithms": [{"name": name, "mu": 0.005}
                   for name in ("PGEXTRA", "DLADMM", "ProxED")],
    "c": 1.0,
    "output_dir": "decprox_counterexample",
}

CSV_HEADER = "iter,comm_rounds,rel_sq_error,r_primal,r_dual,r_prox"

# ---------------------------------------------------------------------------
# config: each dataclass field is one JSON key, with its default and its
# allowed values; the loader and the metadata sidecar both read the fields.

def _key(default, allowed=(None, ""), key=None, item=None):
    """A config key: its default (a dataclass for a section), its allowed
    values as (test, wording), its JSON name where that differs from the
    field's, and for a list the dataclass of its entries."""
    if isinstance(default, type):
        return field(default_factory=default)
    return field(default=default,
                 metadata={"allowed": allowed, "key": key, "item": item})


def _at_least(n):
    return lambda v: v >= n, f">= {n}"


def _one_of(*choices):
    return lambda v: v in choices, "one of " + ", ".join(choices)


_POSITIVE = (lambda v: v > 0, "> 0")
_UNIT = (lambda v: 0 <= v <= 1, "in [0, 1]")


def _is(v, t):
    """Whether the JSON value v has type t; a number is finite and no
    boolean, an integer also no float."""
    if t in (int, float):
        return (isinstance(v, (int, float) if t is float else int)
                and not isinstance(v, bool) and math.isfinite(v))
    return isinstance(v, t)


@dataclass
class AlgorithmConfig:
    name: str = _key(MISSING, _one_of(*engine.ALGORITHMS))
    mu: float = _key("auto", (lambda v: v > 0, '> 0, or "auto"'))


@dataclass
class GraphConfig:
    kind: str = _key("random_connected",
                     _one_of("ring", "grid", "complete", "random_connected"))
    K: int = _key(20, _at_least(2))
    seed: int = _key(7, _at_least(0))
    extra_edge_prob: float = _key(0.2, _UNIT)


@dataclass
class DataConfig:
    source: str = _key("synthetic", _one_of("synthetic", "libsvm"))
    n_samples: int = _key(500, _at_least(1))
    dim: int = _key(30, _at_least(1))
    seed: int = _key(3, _at_least(0))
    flip_prob: float = _key(0.1, _UNIT)
    path: str = _key(None)
    normalize: bool = _key(True)
    label_map: list = _key(None, (lambda v: len(v) == 2 and all(
        _is(x, float) for x in v), "[positive label, negative label]"))


@dataclass
class SeedsConfig:
    init: int = _key(None, _at_least(0))
    partition: int = _key(0, _at_least(0))


@dataclass
class ExperimentConfig:
    problem: str = _key(MISSING, _one_of(*PROBLEMS))
    graph: GraphConfig = _key(GraphConfig)
    algorithms: list = _key(None, (None, "of names or {name, mu} objects"),
                            item=AlgorithmConfig)
    lam: float = _key(1e-4, _POSITIVE, key="lambda")
    rho: float = _key(2e-3, _POSITIVE)
    eta: float = _key(1.0, _POSITIVE)
    c: float = _key(0.5, _POSITIVE)
    M: int = _key(2000, (lambda v: v >= 2 and v % 2 == 0, "even, >= 2"))
    iters: int = _key(None, _at_least(1))
    record_every: int = _key(1, _at_least(1))
    output_dir: str = _key("decprox_out")
    data: DataConfig = _key(DataConfig)
    seeds: SeedsConfig = _key(SeedsConfig)


def _load(cls, raw, where):
    """The config dataclass cls from the JSON object raw, every key checked."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    fields_ = {f.metadata.get("key") or f.name: f for f in fields(cls)}
    unknown = sorted(set(raw) - set(fields_))
    if unknown:
        raise ConfigError(f"unknown keys in {where or 'config'}: "
                          f"{', '.join(unknown)}")
    values = {}
    for key, f in fields_.items():
        name = f"{where}.{key}" if where else key
        if key in raw:
            values[f.name] = _value(f, raw[key], name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key: {name}")
    return cls(**values)


def _value(f, v, name):
    if is_dataclass(f.type):
        return _load(f.type, v, name)
    if type(v) is type(f.default) and v == f.default:
        return v  # a key may always be set to its default
    test, wording = f.metadata["allowed"]
    if not _is(v, f.type) or (test and not test(v)):
        expected = f"{f.type.__name__} {wording}".rstrip()
        raise ConfigError(f"{name}: expected {expected}, got {v!r}")
    if f.metadata["item"]:
        v = [_load(f.metadata["item"], {"name": e} if isinstance(e, str) else e,
                   f"{name}[{i}]") for i, e in enumerate(v)]
    return v


def config_from_dict(raw):
    """Check a JSON config's keys, types and ranges, and fill in the
    problem's defaults."""
    cfg = _load(ExperimentConfig, raw, "")
    algorithms, iters = PROBLEMS[cfg.problem]
    if cfg.algorithms is None:
        cfg.algorithms = [AlgorithmConfig(name) for name in algorithms]
    cfg.iters = cfg.iters or iters
    if cfg.problem == "counterexample" and cfg.graph.K != 2:
        raise ConfigError("the counterexample is a two-agent problem: "
                          f"graph.K must be 2, got {cfg.graph.K}")
    if cfg.data.source == "libsvm" and cfg.data.path is None:
        raise ConfigError("data.source 'libsvm' requires data.path")
    if (cfg.problem == "logistic_l1" and cfg.data.source == "synthetic"
            and cfg.data.n_samples < cfg.graph.K):
        raise ConfigError(f"data.n_samples must be >= graph.K = "
                          f"{cfg.graph.K}, got {cfg.data.n_samples}")
    return cfg


def parse_config(path):
    """Load and check a JSON experiment config (:func:`config_from_dict`)."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return config_from_dict(raw)


def _config_dict(v):
    """A config (value) as JSON, under the names a config file gives keys."""
    if is_dataclass(v):
        return {f.metadata.get("key") or f.name: _config_dict(getattr(v, f.name))
                for f in fields(v)}
    return [_config_dict(x) for x in v] if isinstance(v, list) else v


# ---------------------------------------------------------------------------
# problem construction

@dataclass
class Problem:
    costs: object
    common_prox: object  # R on every row
    agent_prox: object   # agent k's R_k on row k (PGEXTRA, DLADMM)
    w_star: np.ndarray
    A: object          # netgraph's form: CSR on a sparse graph, else ndarray
    laplacian: object
    _eig: dict = field(default_factory=dict, init=False)

    def eigvals(self, row, shifted):
        """The deciding eigenvalues of the row's base, L, A or 0.5 (I + A),
        from one solve for L or A per problem, made on first need."""
        base = "L" if row.on_laplacian else "A"
        if base not in self._eig:
            X = self.laplacian if row.on_laplacian else self.A
            self._eig[base] = netgraph.deciding_eigenvalues(X)
        return 0.5 * (1.0 + self._eig[base]) if shifted else self._eig[base]


def build_problem(cfg):
    g = netgraph.build_graph(cfg.graph.kind, cfg.graph.K, seed=cfg.graph.seed,
                             extra_edge_prob=cfg.graph.extra_edge_prob)
    A = netgraph.metropolis_matrix(g)
    L = netgraph.laplacian_matrix(g)
    K = g.K
    common = agent = prox_mod.L1Prox(cfg.rho)

    if cfg.problem == "lasso_quadratic":
        M = cfg.data.dim
        rng = np.random.default_rng(cfg.data.seed)
        targets = rng.standard_normal((K, M))
        costs = costs_mod.quadratic_cost(cfg.eta, K, M, targets=targets)
        w_star = prox_mod.prox_l1(targets.mean(axis=0), cfg.rho / cfg.eta)

    elif cfg.problem == "logistic_l1":
        try:  # the config is checked: only a data.path file can fail here
            if cfg.data.source == "synthetic":
                dataset = costs_mod.synthetic_classification(
                    cfg.data.n_samples, cfg.data.dim, seed=cfg.data.seed,
                    flip_prob=cfg.data.flip_prob)
            else:
                dataset = costs_mod.read_libsvm(
                    cfg.data.path, normalize=cfg.data.normalize,
                    label_map=cfg.data.label_map)
            shards = costs_mod.partition_data(dataset, K,
                                              seed=cfg.seeds.partition)
        except (OSError, ValueError) as e:  # unreadable, or too few samples
            raise ConfigError(f"data.path: {e}") from e
        costs = costs_mod.logistic_cost(shards, cfg.lam)
        w_star = analysis.centralized_reference(costs, common)

    else:  # counterexample
        pair = prox_mod.build_counterexample(cfg.M)
        costs = costs_mod.quadratic_cost(cfg.eta, K, cfg.M)
        # Weight 1/K so the common-regularizer runs target the same
        # minimizer as the separate runs, whose effective non-smooth part
        # is the average (R1 + R2)/K.
        common = prox_mod.ChainSumProx(pair, weight=1.0 / K)
        agent = prox_mod.CounterexampleProx(pair)
        w_star = analysis.centralized_reference(costs, common)

    return Problem(costs=costs, common_prox=common, agent_prox=agent,
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
    prox = problem.agent_prox
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
    for it, cr, err, res in zip(record.iterations, record.comm_rounds,
                                record.errors, record.residuals):
        lines.append(",".join([str(it), str(cr), _fmt(err),
                               *map(_fmt, res or (None,) * 3)]))
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def _run_algorithm(acfg, cfg, problem):
    """Resolve and run one configured algorithm and write its CSV; returns
    its summary row.  Its triple and step die on return."""
    r = resolve_algorithm(acfg, cfg, problem)
    residual_fn = None
    if r.triple is not None:
        residual_fn = lambda st, mu=r.mu: analysis.fixed_point_residuals(st, mu)
    record = engine.run(r.algorithm, r.step, problem.costs, problem.w_star,
                        cfg.iters, record_every=cfg.record_every,
                        seed=cfg.seeds.init, residual_fn=residual_fn)
    write_trajectory_csv(os.path.join(cfg.output_dir, f"{acfg.name}.csv"),
                         record)

    verdict = ""
    empirical_ratio = ""
    if not record.diverged and len(record.errors) >= 100:
        fv = analysis.classify_decay(record)
        verdict = fv.classification
        if fv.geometric_ratio_windows:
            empirical_ratio = _fmt(fv.geometric_ratio_windows[-1])
    return {
        "algorithm": acfg.name,
        "mu": r.mu,
        "theoretical_gamma": r.rate.gamma if r.rate else None,
        "empirical_ratio": empirical_ratio,
        "final_error": record.errors[-1] if record.errors else None,
        "comm_rounds": record.comm_rounds[-1] if record.comm_rounds else 0,
        "verdict": verdict,
        "diverged": record.diverged,
        "note": record.note,  # printed, never written to summary.csv
    }


def run_experiment(cfg):
    """Run every configured algorithm; write one CSV per algorithm plus a
    summary table and a metadata sidecar.  Returns the summary rows."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    problem = build_problem(cfg)
    summary = [_run_algorithm(acfg, cfg, problem) for acfg in cfg.algorithms]
    any_diverged = any(row["diverged"] for row in summary)

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

def _diverged(row):
    """The marker of a diverged run, with its note; empty otherwise."""
    return f"  DIVERGED: {row['note']}" if row["diverged"] else ""


def _cmd_run(args):
    cfg = parse_config(args.config)
    summary, diverged = run_experiment(cfg)
    for row in summary:
        gamma = _fmt(row["theoretical_gamma"]) or "-"
        print(f"{row['algorithm']:>14s}  mu={row['mu']:.6g}  gamma={gamma}"
              f"  final={_fmt(row['final_error'])}  verdict={row['verdict'] or '-'}"
              f"{_diverged(row)}")
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
    given = {"M": args.M, "iters": args.iters, "output_dir": args.out}
    cfg = config_from_dict({**COUNTEREXAMPLE_PRESET,
                            **{k: v for k, v in given.items() if v is not None}})
    summary, diverged = run_experiment(cfg)
    for row in summary:
        print(f"{row['algorithm']:>14s}  final={_fmt(row['final_error'])}"
              f"  verdict={row['verdict'] or '-'}{_diverged(row)}")
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
    p.add_argument("--M", type=int, help=f"default {ExperimentConfig.M}")
    p.add_argument("--iters", type=int,
                   help=f"default {PROBLEMS['counterexample'][1]}")
    p.add_argument("--out",
                   help=f"default {COUNTEREXAMPLE_PRESET['output_dir']}")
    p.set_defaults(fn=_cmd_counterexample)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except analysis.NotConvergedError as e:
        print(f"no reference solution: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
