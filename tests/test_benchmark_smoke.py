"""The benchmark's own oracles accept what the program writes.

Each workload of ``perfbench/run.py`` checks the program's output files
against its own computation: BP per-task sums bit for bit, report means,
per-task prediction CSVs and DCT references. A smoke-sized run of each takes
seconds and must end with a correct result and no failed calls.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep", "ingest", "predict-replay"])
def test_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0", "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stderr
    assert proc.returncode == 0, proc.stderr
