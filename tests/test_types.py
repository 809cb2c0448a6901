"""Guards on how the model's types are written.

Values are NamedTuples and state is plain ``__slots__`` classes, so
importing the package generates no code: nothing under ``src/tasnic``
uses ``dataclasses``, and the CLI's import pulls in neither it, ``inspect``
nor the process pool that only ``sweep --jobs`` uses.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tasnic.engine import RunStats
from tasnic.fabric import GridCoord, PortKind
from tasnic.metrics import FlowRecorder
from tasnic.nic import TxQueue, TxRecord
from tasnic.ptp import PtpMessage
from tasnic.qdisc import PriorityMap
from tasnic.runtime import FragmentHeader, ScheduleConfig
from tasnic.scenario import Scenario

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_code_generation_or_process_pool():
    probe = ("import sys, tasnic.cli; "
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'concurrent.futures') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_no_module_imports_dataclasses():
    imports = re.compile(r"^\s*(from|import)\s+dataclasses\b", re.MULTILINE)
    offenders = [p.name for p in (SRC / "tasnic").glob("*.py") if imports.search(p.read_text())]
    assert offenders == []


VALUES = [
    (RunStats, (10, 2_000)),
    (GridCoord, (2, 5)),
    (PriorityMap, (3, (2, 0, 1), (1, 2, 0))),
    (TxRecord, (100, 96, 1, 84, 68, None)),
    (FragmentHeader, (7, 2, 3, 4000, 0x01020001, 0x00000101)),
    (PtpMessage, (0, 123_456_789, 9)),
    (ScheduleConfig, (PortKind.INTRA_H, 100, ((0, 90),), 1300)),
]


@pytest.mark.parametrize("cls, args", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
def test_value_types_compare_and_hash_by_field_and_refuse_assignment(cls, args):
    a, b = cls(*args), cls(*args)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a._replace(**{a._fields[-1]: object()}) != a
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], args[0])
    with pytest.raises(AttributeError):
        a.extra = 1


def test_state_classes_never_share_containers():
    one, two = FlowRecorder(0, "a", "b", 0, 0, 1), FlowRecorder(1, "a", "b", 0, 0, 1)
    assert one.drops is not two.drops and one.messages is not two.messages
    one.on_drop("crc")
    assert two.drops == {}

    s1, s2 = Scenario(), Scenario()
    for name in ("schedules", "faults", "flows"):
        assert getattr(s1, name) is not getattr(s2, name), name
    for name in ("grid", "host", "ptp", "nic"):  # mutable settings, one per scenario
        assert getattr(s1, name) is not getattr(s2, name), name
    s1.flows.append(object())
    assert s2.flows == []

    q1, q2 = TxQueue(0, 4, 0), TxQueue(0, 4, 0)
    assert q1.frames is not q2.frames
    q1.frames.append(object())
    assert not q2.frames
