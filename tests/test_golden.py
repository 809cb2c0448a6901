"""Golden hashes: short runs of each shipped scenario, byte for byte.

Two kinds of pin: the sha256 of the written report files, and the sha256 of
the engine's event trace (one ``"{fire_at} {seq} {label}\n"`` line per
processed event, collected through ``Simulator.trace_hook``), which also
pins the order in which events are scheduled.

A refactor or speed change must leave every hash below unchanged.  When a
change to the model's behaviour is intended, recompute the pins on purpose
and record the change in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tasnic import harness
from tasnic.engine import Simulator
from tasnic.harness import emit_report, run_scenario
from tasnic.scenario import parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# The fault_reroute link fails while one of the flow's frames is on that
# link (sent at 9_987_756 ns, arriving at 9_989_474 ns), so the run also
# pins a link_down drop.
_FAULT = [{"a": "0.1.0.1", "b": "0.1.1.1", "time_ns": 9_988_000, "state": "down"}]

# name: (scenario file, overrides, {output file: sha256})
CASES = {
    "bandwidth_partition": ("bandwidth_partition.json", {"duration_ns": 5_000_000}, {
        "report.json": "3494de8c294a7e73ce03567ea10d8c0aa85a57181f69ae1ea5992d7b1837864d",
    }),
    "fault_reroute": ("fault_reroute.json", {"duration_ns": 20_000_000, "faults": _FAULT}, {
        "report.json": "1b782cae48b3e3b109fbd0d2cd91fe4b4b34f3ecb9fe75e4171b8ba847c14d58",
    }),
    "fault_reroute_traced": ("fault_reroute.json",
                             {"duration_ns": 20_000_000, "faults": _FAULT, "trace": True}, {
        "report.json": "6368e6ceba2af2b982782e5beb50229eef7965334b5726c650f8b23076c2c2b7",
        "traces.jsonl": "93b66cb82eee41af7f968cd0d920a121f4c30da9ab5477f67c598b8ab752948b",
        "routes.jsonl": "1007fec504adfa489703af2d97277bdb8c6b80dc70e4d92b8297a0ee859d7b9e",
    }),
    # past the convergence horizon (11 sync intervals), so offsets are sampled
    "ptp_defaults": ("ptp_defaults.json", {"duration_ns": 3_000_000_000}, {
        "report.json": "932b540f3c9871bc336989f292353fd9a61329884101d6ec4dca52d6f8fe9f2f",
    }),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(name, tmp_path):
    filename, overrides, pins = CASES[name]
    doc = json.loads((SCENARIOS / filename).read_text())
    doc.update(overrides)
    written = emit_report(run_scenario(parse_scenario(doc)), "json", tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert digests == pins


# name: (key in CASES, events processed, sha256 of the event trace)
EVENT_TRACES = {
    # slot scheduler plus host token bucket
    "bandwidth_partition": (
        "bandwidth_partition", 9283,
        "9ce056f658ce2af413378cee74019fc73a46a3110ad5c4a2c493ff800724f369"),
    # round-robin path, reroute and a link_down drop
    "fault_reroute": (
        "fault_reroute", 3697,
        "d1d50b66a29095e769526c1e94c8fdf6b92be0b99ecfb364b10a63d25c828e53"),
}


@pytest.mark.parametrize("name", sorted(EVENT_TRACES))
def test_event_trace_unchanged(name, monkeypatch):
    case, events, pin = EVENT_TRACES[name]
    filename, overrides, _ = CASES[case]
    digest = hashlib.sha256()
    seen = [0]

    def hook(fire_at, seq, label):
        digest.update(f"{fire_at} {seq} {label}\n".encode())
        seen[0] += 1

    monkeypatch.setattr(harness, "Simulator", lambda: Simulator(trace_hook=hook))
    doc = json.loads((SCENARIOS / filename).read_text())
    doc.update(overrides)
    run_scenario(parse_scenario(doc))
    assert (seen[0], digest.hexdigest()) == (events, pin)
