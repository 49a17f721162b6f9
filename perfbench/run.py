"""Benchmark entry point: runs one workload in a fresh, steady process.

    python3 perfbench/run.py --workload flat --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; pullup need not be installed.
The workload runs in a child interpreter with ``PYTHONPATH=src`` (as the
tests use it), a fixed ``PYTHONHASHSEED`` so that set iteration orders repeat
from run to run, and no bytecode writes. The child's standard output, whose
last line is the JSON result, passes straight through. A child that runs
past ``TIMEOUT_S`` is killed and the run fails without a result.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170


def main() -> int:
    needed = [ROOT / "src" / "pullup" / "__init__.py", ROOT / "fixtures" / "left.model",
              ROOT / "BENCHMARK.json"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: not a pullup source checkout, missing {', '.join(absent)}",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), *sys.argv[1:]],
            env=env, cwd=ROOT, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: the run took longer than {TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
