"""Smoke test: each experiment script runs to completion on small arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

RUNS = {
    "bandwidth_partition.py": ["--duration-ms", "5"],
    "fault_reroute.py": ["--duration-ms", "20"],
    "proportional_shares.py": ["--cases", "1", "--windows", "10"],
    "ptp_convergence.py": ["--seconds", "1"],
}


def test_every_script_has_a_run():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_exits_zero(name):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *RUNS[name]],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
