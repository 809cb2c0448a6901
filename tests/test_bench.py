"""The benchmark's own gate: every workload's checks pass on this tree.

``bench/run.py`` checks each episode: pinned report digests, frame
conservation and the bytes of every round trip.  Each run here is a
subprocess, because the bench re-imports ``tasnic`` for each episode and
would split module identity inside the test process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.mark.parametrize("args", [
    ["--seconds", "0"],
    ["--workload", "rpc", "--seconds", "0", "--trace", "1"],
    # mesh drops frames (link_down, ttl_expired), so the tracer's drop count runs
    ["--workload", "mesh", "--seconds", "0", "--trace", "1"],
], ids=["every_workload", "rpc_traced", "mesh_traced"])
def test_bench_run_is_correct(args):
    proc = subprocess.run([sys.executable, str(BENCH_RUN), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout
