"""The benchmark still measures everything it declares.

A short ``flat`` run, traced and untraced, must end with a JSON result that
is correct and holds every metric ``BENCHMARK.json`` names for that mode, and
no hook may be missing or broken. A change that stops calling a hooked
function in some phase (say, ``common_props`` on a recheck) leaves that
phase's metric unmeasured, which only this check sees.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1])
def test_a_short_flat_run_reports_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    assert sorted(wanted - result["metrics"].keys()) == []
    assert [l for l in lines if l.startswith(("missing hook", "broken hook"))] == []
