"""The benchmark's three workloads: seeded inputs, decprox configs and checks.

Each workload is one ``decprox run`` experiment.  An operation is one
algorithm's run inside it, so an experiment attempts ``len(algorithms)``
operations.  ``prepare`` writes the inputs and the JSON config for a seed;
``check`` judges the outputs with the computations in ``checks``.
"""

import json
from dataclasses import dataclass

import numpy as np

import checks

# Theorem 1 slack on the per-window decay ratio.
RATIO_SLACK = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    algorithms: tuple
    iters: int
    tol: float        # ProxED's target: rel_sq_error <= tol * (its value at iteration 1)
    burn_in: int      # first iteration of the Theorem 1 windows
    window: int       # iterations per Theorem 1 window
    build: object     # (workload, seed, out_dir, warmup) -> (config dict, inputs)
    certificate: object  # (w*, inputs) -> problems

    def prepare(self, seed, out_dir, warmup=False):
        """Write the seeded inputs and config under out_dir; return (config path, inputs)."""
        out_dir.mkdir(parents=True, exist_ok=True)
        config, inputs = self.build(self, seed, out_dir, warmup)
        config.update(iters=5 if warmup else self.iters, record_every=1,
                      output_dir=str(out_dir / "csv"))
        path = out_dir / "config.json"
        path.write_text(json.dumps(config, indent=2))
        return path, inputs

    def check(self, inputs, out):
        """Return (experiment problems, {algorithm: problems}, ProxED iters_to_tol)."""
        ops = {}
        for alg in self.algorithms:
            iters, errors = out["traj"][alg]
            problems = []
            if out["diverged"][alg]:
                problems.append("diverged")
            if not np.all(np.isfinite(errors)):
                problems.append("non-finite error")
            if len(iters) == 0 or iters[-1] != self.iters:
                problems.append("trajectory stops before the last iteration")
            ops[alg] = problems

        iters, errors = out["traj"]["ProxED"]
        reached = checks.iters_to_tol(iters, errors, self.tol)
        if reached is None:
            ops["ProxED"].append(f"never reached {self.tol:g} of its first error")
        ops["ProxED"] += checks.theorem1_ratio(iters, errors, out["gamma"]["ProxED"],
                                               self.burn_in, self.window, RATIO_SLACK)
        for alg in ("PGEXTRA", "DLADMM"):
            if alg in ops:
                ops[alg] += checks.finite_and_decreased(out["traj"][alg][1])
        return self.certificate(out["w_star"], inputs), ops, reached


# ---------------------------------------------------------------------------
# logistic_readme: the README logistic_l1 config on data the benchmark writes

N_SAMPLES, DIM, FLIP_PROB = 500, 30, 0.1
LAM, RHO = 0.01, 0.002


def _logistic_data(seed):
    """The README's synthetic data (data seed 3: unit-norm Gaussian rows,
    labels from a planted hyperplane, FLIP_PROB of them flipped), with its
    features permuted and every label's sign flipped by the seed.

    The seeded variants are the same problem up to a signed permutation of
    w, so each has the README data's conditioning: a fresh draw per seed
    moved ProxED's iters_to_tol between 123 and 175."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((N_SAMPLES, DIM))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = np.sign(X @ rng.standard_normal(DIM))
    y[y == 0] = 1.0
    y[rng.random(N_SAMPLES) < FLIP_PROB] *= -1.0
    variant = np.random.default_rng(seed)
    return X[:, variant.permutation(DIM)], y * variant.choice((-1.0, 1.0))


def _logistic_readme(wl, seed, out_dir, warmup):
    X, y = _logistic_data(seed)
    path = out_dir / "data.svm"
    with open(path, "w") as f:
        for xi, yi in zip(X, y):
            feats = " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(xi.tolist()))
            f.write(f"{int(yi)} {feats}\n")
    config = {
        "problem": "logistic_l1",
        "graph": {"kind": "random_connected", "K": 20, "seed": 7, "extra_edge_prob": 0.2},
        "algorithms": ["ProxED", "ProxATC1", {"name": "ProxATC2", "mu": 0.5}],
        "lambda": LAM, "rho": RHO,
        "data": {"source": "libsvm", "path": str(path), "normalize": False},
    }
    return config, {"X": X, "y": y}


def _logistic_certificate(w, inputs):
    # 500 samples over 20 agents gives equal shards, so the average of the
    # per-agent mean losses is the mean over all samples, whatever the split.
    return checks.logistic_kkt(w, inputs["X"], inputs["y"], LAM, RHO)


# ---------------------------------------------------------------------------
# chain_counterexample: the `decprox counterexample` preset, shrunk

CHAIN_M = 200
CHAIN_ETA = 1.0
CHAIN_K = 2


def _chain_counterexample(wl, seed, out_dir, warmup):
    # The paper's two-agent problem has no random data and the preset starts
    # from zero, so the seed changes nothing here: a seeded random start
    # moves iters_to_tol by about 15% from seed to seed.
    config = {
        "problem": "counterexample",
        "graph": {"kind": "complete", "K": CHAIN_K, "seed": 0, "extra_edge_prob": 0.0},
        "algorithms": [{"name": a, "mu": 0.005} for a in wl.algorithms],
        "eta": CHAIN_ETA, "c": 1.0, "M": 20 if warmup else CHAIN_M,
    }
    return config, {}


def _chain_certificate(w, inputs):
    # The CLI gives the common regularizer weight 1/K.
    return checks.chain_dual_certificate(w, len(w), CHAIN_ETA, 1.0 / CHAIN_K)


# ---------------------------------------------------------------------------
# sparse_k2000: lasso over isotropic quadratics on a sparse 2000-agent graph

SPARSE_K, SPARSE_DIM, SPARSE_P = 2000, 30, 0.0005
SPARSE_RHO, SPARSE_ETA = 2e-3, 1.0


def _sparse_k2000(wl, seed, out_dir, warmup):
    K = 100 if warmup else SPARSE_K
    config = {
        "problem": "lasso_quadratic",
        "graph": {"kind": "random_connected", "K": K, "seed": 7,
                  "extra_edge_prob": SPARSE_P},
        "algorithms": list(wl.algorithms),
        "rho": SPARSE_RHO, "eta": SPARSE_ETA,
        "data": {"dim": SPARSE_DIM, "seed": seed},
    }
    # lasso_quadratic draws agent k's target as row k of a seeded standard
    # normal K x dim matrix; the benchmark draws the same matrix itself.
    targets = np.random.default_rng(seed).standard_normal((K, SPARSE_DIM))
    return config, {"targets": targets}


def _sparse_certificate(w, inputs):
    return checks.soft_threshold_mean(w, inputs["targets"], SPARSE_RHO, SPARSE_ETA)


WORKLOADS = {wl.name: wl for wl in (
    Workload("logistic_readme", ("ProxED", "ProxATC1", "ProxATC2"),
             iters=400, tol=1e-12, burn_in=50, window=25,
             build=_logistic_readme, certificate=_logistic_certificate),
    Workload("chain_counterexample", ("PGEXTRA", "DLADMM", "ProxED"),
             iters=500, tol=1e-2, burn_in=100, window=50,
             build=_chain_counterexample, certificate=_chain_certificate),
    Workload("sparse_k2000", ("ProxED", "ProxATC1"),
             iters=40, tol=0.03, burn_in=20, window=5,
             build=_sparse_k2000, certificate=_sparse_certificate),
)}
