"""decprox benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a decprox checkout; the program is imported from its
``src`` directory.  After one untimed warm-up, each experiment runs in a
fresh interpreter (child.py), one after another, until the next one would
end after ``--seconds`` (at least two run).  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
operations (one algorithm's run in one experiment), and the metrics, each
the median over the run's experiments.  With ``--trace 1`` plain and traced
experiments alternate and the metrics are the per-layer ones plus
``trace.overhead_s``, the traced minus the plain median ``run_s``.
Outputs go to perfbench/out/<workload>/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS/OpenMP thread: on two cores it was the steadier choice, and the
# outputs of the K=2000 workload depend on the thread count.
BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS
os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])

from workloads import WORKLOADS  # noqa: E402  (numpy loads after the pool size is set)

MIN_EXPERIMENTS = 2
CHILD_TIMEOUT_S = 150
END_TO_END = {"run_s": "s", "setup_s": "s", "solve_s": "s",
              "peak_rss_mb": "MB", "iters_to_tol": "iterations"}


def run_child(name, seed, mode):
    """Run one experiment in a fresh interpreter; return (result or None, error)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           "--seed", str(seed), "--mode", mode, "--out", str(OUT / name / mode),
           "--src", str(SRC)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{mode} experiment exceeded {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{mode} experiment exited {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(lines[-1]), None


def measure(wl, seed, seconds, traced):
    warm, err = run_child(wl.name, seed, "warmup")
    if warm is None:
        sys.exit(f"warm-up failed: {err}")
    modes = ("plain", "traced") if traced else ("plain",)
    results = {m: [] for m in modes}
    attempted = failed = 0
    durations = []
    start = time.monotonic()
    while True:
        for mode in modes:
            t0 = time.monotonic()
            res, err = run_child(wl.name, seed, mode)
            durations.append(time.monotonic() - t0)
            attempted += len(wl.algorithms)
            if res is None:
                failed += len(wl.algorithms)
                print(err, file=sys.stderr)
                continue
            bad = {alg: p for alg, p in res["problems"].items() if p}
            failed += len(bad)
            for alg, problems in bad.items():
                print(f"{wl.name} {alg}: {'; '.join(problems)}", file=sys.stderr)
            print(f"{mode} experiment: wall {res['wall_s']:.3f} s, calibration "
                  f"{res['cal_s']:.3f} s, run_s {res['run_s']:.3f}", file=sys.stderr)
            results[mode].append(res)
        done = len(durations) >= MIN_EXPERIMENTS
        next_end = time.monotonic() - start + len(modes) * statistics.median(durations)
        if done and next_end > seconds:
            break
    if not all(results.values()):
        sys.exit("no experiment finished; see the errors above")
    return results, attempted, failed


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="show that every correctness check rejects a wrong answer")
    args = p.parse_args()
    if not (SRC / "decprox" / "cli.py").is_file():
        sys.exit(f"no decprox sources under {SRC}; run from a decprox checkout")
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")

    wl = WORKLOADS[args.workload]
    results, attempted, failed = measure(wl, args.seed, args.seconds, args.trace == 1)
    if args.trace:
        traced = results["traced"]
        metrics = {name: {"value": statistics.median(r["layers"][name][0] for r in traced),
                          "unit": unit}
                   for name, (_, unit) in traced[0]["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": median_of(traced, "run_s") - median_of(results["plain"], "run_s"),
            "unit": "s"}
    else:
        metrics = {name: {"value": median_of(results["plain"], name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def self_test():
    """Check every workload once, then feed each check wrong answers.

    Passes when the real outputs pass every check, every perturbation is
    rejected, and the metric names agree with BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in sorted(WORKLOADS):
        res, err = run_child(name, 1, "selftest")
        if res is None:
            print(f"{name}: {err}")
            ok = False
            continue
        real = sorted({p for ps in res["problems"].values() for p in ps})
        print(f"{name}: real outputs {'pass' if not real else 'FAIL ' + '; '.join(real)}")
        ok &= not real
        for label, caught in res["selftest"]:
            print(f"  {label}: {'rejected: ' + '; '.join(caught) if caught else 'NOT REJECTED'}")
            ok &= bool(caught)
        layers = {n: u for n, (_, u) in res["layers"].items()} | {"trace.overhead_s": "s"}
        for kind, have in (("per_layer", layers), ("end_to_end", END_TO_END)):
            listed = {m["name"]: m["unit"] for m in spec[kind]}
            if listed != have:
                print(f"  {kind} metrics differ from BENCHMARK.json")
                ok = False
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
