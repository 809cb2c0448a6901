import json
import random
from pathlib import Path

import pytest

from tasnic import frame as frame_module
from tasnic.fabric import NodeId, abs_coords, mac_of
from tasnic.frame import (
    ETHERTYPE_RUNTIME,
    Frame,
    crc32,
    serialization_ticks,
    wire_bytes,
)
from tasnic.harness import run_scenario
from tasnic.scenario import parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def crc32_reference(data: bytes) -> int:
    """Bit-at-a-time IEEE CRC-32, the independent oracle."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def test_crc32_fixed_vectors():
    assert crc32(b"123456789") == 0xCBF43926
    assert crc32(b"") == 0x00000000
    assert crc32(b"\x00") == 0xD202EF8D


def test_crc32_fixed_vectors_match_reference():
    for vec in (b"123456789", b"", b"\x00"):
        assert crc32(vec) == crc32_reference(vec)


def test_crc32_matches_reference_on_random_inputs():
    rng = random.Random(1234)
    for _ in range(100):
        data = rng.randbytes(rng.randrange(0, 128))
        assert crc32(data) == crc32_reference(data)


A, B = NodeId(0, 0, 0, 0), NodeId(0, 0, 0, 1)


def _frame(payload=b"x" * 100, pcp=2):
    return Frame(src=A, final_dst=B, pcp=pcp, ethertype=ETHERTYPE_RUNTIME, payload=payload)


def test_wire_length_accounting():
    frame = _frame(payload=bytes(1500))
    assert frame.wire_bytes == 1522
    assert _frame(payload=bytes(46)).wire_bytes == 68


def test_payload_bounds_enforced():
    with pytest.raises(ValueError):
        _frame(payload=bytes(1501))
    with pytest.raises(ValueError):
        _frame(pcp=8)


def test_a_short_payload_is_zero_padded_to_the_minimum():
    frame = _frame(payload=b"\xff" * 45)
    assert frame.wire_bytes == 68
    assert frame.payload == b"\xff" * 45 + bytes(1)
    assert _frame(payload=bytes(45)).payload == bytes(46)
    short = bytearray(b"abc")
    assert _frame(payload=short).payload == b"abc" + bytes(43)
    assert short == b"abc"  # the caller's buffer is left as it was
    assert len(_frame(payload=bytes(100)).payload) == 100


def test_the_fcs_covers_both_ends_macs():
    frame = _frame()
    assert frame.covered_bytes()[:12] == mac_of(abs_coords(B)) + mac_of(abs_coords(A))
    frame.stamp_fcs()
    assert frame.fcs_ok()
    for end in ("final_dst", "src"):
        stamped = getattr(frame, end)
        setattr(frame, end, NodeId(0, 0, 1, 1))
        assert not frame.fcs_ok(), end
        setattr(frame, end, stamped)
    assert frame.fcs_ok()


def test_fcs_round_trip_and_single_bit_detection():
    frame = _frame()
    frame.stamp_fcs()
    assert frame.fcs_ok()
    original = frame.payload
    for bit_position in (0, 7, 101, 799):
        corrupted = bytearray(original)
        corrupted[bit_position // 8] ^= 1 << (bit_position % 8)
        frame.payload = bytes(corrupted)
        assert not frame.fcs_ok(), f"bit {bit_position} not detected"
        frame.payload = original
    assert frame.fcs_ok()


def test_header_corruption_detected():
    frame = _frame()
    frame.stamp_fcs()
    frame.pcp ^= 1
    assert not frame.fcs_ok()


def test_serialization_arithmetic():
    # short payloads are padded to the 46-byte minimum on the wire
    assert wire_bytes(1) == 68
    assert wire_bytes(1500) == 1522
    # the engine rounds up to whole nanoseconds
    assert serialization_ticks(64, 10_000_000_000) == 52
    assert serialization_ticks(1522, 10_000_000_000) == 1218
    assert serialization_ticks(1250, 10_000_000_000) == 1000


def test_scenario_run_computes_no_crc(monkeypatch):
    # nothing on the data path stamps an FCS, so no hop checks one
    def no_crc(data):
        raise AssertionError("crc32 computed during a scenario run")

    monkeypatch.setattr(frame_module, "crc32", no_crc)
    doc = json.loads((SCENARIOS / "bandwidth_partition.json").read_text())
    doc["duration_ns"] = 1_000_000
    result = run_scenario(parse_scenario(doc))
    assert result.network.frames_delivered > 0
