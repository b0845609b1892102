"""Run one decprox experiment in this process, check it and print one JSON line.

Started by run.py in a fresh interpreter whose BLAS pool size is already
fixed.  Modes: ``warmup`` (a shrunken experiment, nothing reported),
``plain`` (phase timers only), ``traced`` (every layer wrapped; spans are
written to spans.json) and ``selftest`` (traced, then every check is run
again on perturbed outputs and must reject them).
"""

import argparse
import csv
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

import decprox
from decprox import cli

import tracing
from workloads import RATIO_SLACK, WORKLOADS


# Times are reported at a reference machine speed.  On the 2-core machine
# this was tuned on, the same code switches between speed states from one
# second to the next (a fixed kernel takes 0.30 s or 0.45 s), so raw wall
# times of identical runs spread by 25-35%.  A fixed kernel that uses no
# decprox code is timed right before and right after the experiment, and
# every time is scaled by REFERENCE_CAL_S / (its mean time).  A change to
# decprox moves the experiment but not the kernel, so it shows in full.
REFERENCE_CAL_S = 0.25


def calibrate(reps=30):
    """Seconds for the fixed kernel: L-BFGS-B on a seeded 200-dimensional
    box QP, a mix of Python callbacks, sparse products and Fortran."""
    B = sp.random(200, 200, density=0.01, random_state=1, format="csr") + sp.eye(200, format="csr")
    c = np.random.default_rng(0).standard_normal(200)

    def q(u):
        w = B.T @ u
        return 0.5 * float(w @ w) - float(u @ c), B @ w - c

    t0 = time.perf_counter()
    for _ in range(reps):
        minimize(q, np.zeros(200), jac=True, method="L-BFGS-B", bounds=[(-1.0, 1.0)] * 200,
                 options={"ftol": 1e-18, "gtol": 1e-12, "maxiter": 2000})
    return time.perf_counter() - t0


def read_outputs(csv_dir, algorithms, w_star):
    traj = {}
    for alg in algorithms:
        with open(csv_dir / f"{alg}.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        traj[alg] = (np.array([int(r["iter"]) for r in rows]),
                     np.array([float(r["rel_sq_error"]) for r in rows]))
    with open(csv_dir / "summary.csv", newline="") as f:
        summary = {r["algorithm"]: r for r in csv.DictReader(f)}
    return {
        "w_star": w_star,
        "traj": traj,
        "gamma": {a: float(summary[a]["theoretical_gamma"] or "nan") for a in algorithms},
        "diverged": {a: summary[a]["diverged"] != "false" for a in algorithms},
    }


def judge(wl, inputs, out):
    """Per-operation problems: an experiment-level problem fails every operation."""
    experiment, ops, reached = wl.check(inputs, out)
    return {alg: experiment + ops[alg] for alg in wl.algorithms}, reached


def perturbations(wl, out):
    """Wrong answers each check must reject, as (label, outputs)."""
    def with_errors(alg, errors):
        return {**out, "traj": {**out["traj"], alg: (out["traj"][alg][0], errors)}}

    w = out["w_star"].copy()
    j = int(np.argmax(np.abs(w)))
    w[j] += 1e-4 * max(1.0, abs(w[j]))
    yield "w* moved by 1e-4 in one coordinate", {**out, "w_star": w}

    iters, errors = out["traj"]["ProxED"]
    rate = out["gamma"]["ProxED"] + 2 * RATIO_SLACK
    yield "ProxED decaying at gamma + 2 slack", with_errors(
        "ProxED", errors[0] * rate ** (iters - iters[0]))
    yield "ProxED stalled at its first error", with_errors(
        "ProxED", np.full_like(errors, errors[0]))
    for alg in ("PGEXTRA", "DLADMM"):
        if alg in wl.algorithms:
            grown = out["traj"][alg][1].copy()
            grown[-1] = 2 * grown[0]
            yield f"{alg} ending above its first error", with_errors(alg, grown)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("warmup", "plain", "traced", "selftest"))
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--src", required=True, type=Path)
    args = p.parse_args()

    if not Path(decprox.__file__).resolve().is_relative_to(args.src.resolve()):
        sys.exit(f"decprox imported from {decprox.__file__}, not from {args.src}")

    wl = WORKLOADS[args.workload]
    config_path, inputs = wl.prepare(args.seed, args.out, warmup=args.mode == "warmup")
    cfg = cli.parse_config(str(config_path))

    problems = []
    tracer = tracing.Tracer()
    tracing.install(tracer, full=args.mode in ("traced", "selftest"),
                    on_problem=problems.append)
    cal_s = calibrate()
    t0 = time.perf_counter()
    cli.run_experiment(cfg)
    wall_s = time.perf_counter() - t0
    cal_s = 0.5 * (cal_s + calibrate())
    speed = REFERENCE_CAL_S / cal_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.mode == "warmup":
        print(json.dumps({"warmup_s": wall_s}))
        return

    phases = tracer.totals()
    result = {
        "run_s": wall_s * speed,
        "setup_s": speed * sum(phases[n][0] for n in ("cli.build_problem", "cli.resolve_algorithm")),
        "solve_s": speed * phases["engine.run"][0],
        "peak_rss_mb": peak_rss_mb,
        "wall_s": wall_s,
        "cal_s": cal_s,
    }
    out = read_outputs(Path(cfg.output_dir), wl.algorithms, problems[0].w_star)
    result["problems"], reached = judge(wl, inputs, out)
    result["iters_to_tol"] = reached if reached is not None else wl.iters + 1

    if args.mode in ("traced", "selftest"):
        result["layers"] = {
            name: (value * speed if unit in ("s", "us/iter") else value, unit)
            for name, (value, unit) in tracing.per_layer(tracer).items()}
        tracer.dump(args.out / "spans.json")
    if args.mode == "selftest":
        result["selftest"] = []
        for label, wrong in perturbations(wl, out):
            caught, _ = judge(wl, inputs, wrong)
            result["selftest"].append([label, sorted({p for ps in caught.values() for p in ps})])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
