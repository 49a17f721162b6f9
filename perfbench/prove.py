"""Repeat the benchmark over several seeds and report how steady it is.

    python3 perfbench/prove.py [--workloads flat star corpus]

Runs the command from BENCHMARK.json untraced once per workload and seed
(seeds 1-10), one run at a time, and prints for every end-to-end metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound, plus the failed share of
operations. The raw results go to ``perfbench/out/prove-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    (HERE / "out").mkdir(exist_ok=True)
    for workload in args.workloads:
        results = []
        for seed in SEEDS:
            results.append(run_once(spec, workload, seed))
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in results[-1]["metrics"].items()),
                  flush=True)
        out = HERE / "out" / f"prove-{workload}.json"
        out.write_text(json.dumps(results, indent=1) + "\n")

        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"== {workload}: {len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed shares {sorted(shares)}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"]
                      for r in results if m["name"] in r["metrics"]]
            if len(values) < 2:
                print(f"  {m['name']}: {len(values)} values")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m["bound"]
            verdict = "ok" if spread <= bound / 3 else (
                "WITHIN BOUND" if spread <= bound else "OVER BOUND")
            print(f"  {m['name']}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"{m['unit']} spread {spread:.3f} bound {bound} {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
