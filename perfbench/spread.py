"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload NAME ...]

Runs ``run.py`` once per seed and workload, one run at a time, and prints
for each metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the quartile distance as a share of the median.  Every result line is
kept in perfbench/out/spread-<first seed>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   default=None, choices=[w["name"] for w in SPEC["workloads"]])
    args = p.parse_args()
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    lines = {}
    for name in names:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} failed: {proc.stderr[-2000:]}")
            lines.setdefault(name, []).append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(name, seed, lines[name][-1], flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.first_seed}.json").write_text(json.dumps(lines, indent=1))
    print(f"\n{'workload':22s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'bound':>6s}  failed/attempted")
    for name, results in lines.items():
        share = f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}"
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"{name:22s} {metric['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{(q3 - q1) / med:8.4f} {metric['bound']:6.2f}  {share}")


if __name__ == "__main__":
    main()
