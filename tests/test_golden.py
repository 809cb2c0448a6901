"""Golden hashes: short runs of each shipped scenario, byte for byte.

Three kinds of pin:

* the sha256 of the written report files;
* the sha256 of the engine's processed-event trace without ``seq``: one
  ``"{fire_at} {label}\n"`` line per processed event, collected through
  ``Simulator.trace_hook``;
* the sha256 of the same trace with ``seq`` (``"{fire_at} {seq} {label}\n"``),
  which also pins the order in which events are scheduled, cancelled ones
  included.

A refactor or speed change must leave every hash below unchanged, with one
exception: a change that removes only events that are never processed
(scheduled, then cancelled before they fire) shifts the ``seq`` of later
events, so it may move the with-``seq`` pins, but never the seq-free pins or
the report pins.  When a change to the model's behaviour is intended,
recompute the pins on purpose and record the change in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

import tasnic.node
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


# name: (key in CASES, events processed, sha256 of the seq-free trace,
#        sha256 of the trace with seq)
EVENT_TRACES = {
    # slot scheduler plus host token bucket
    "bandwidth_partition": (
        "bandwidth_partition", 9283,
        "b3d538e73a9366edc8607b7925bb8ddfa03aac465307dd7f219032ab39dd0c31",
        "698042c4ef196fec36de4a55389f0416927d817430a066e74e1e9980dbb32631"),
    # round-robin path, reroute and a link_down drop
    "fault_reroute": (
        "fault_reroute", 3697,
        "41b2910ea7877d53cfa5a537b69e13bed541020fc6135f5f2b8f6aa351c927e5",
        "d5cea0364e217a64d968cddacf1d3f0e9fc71aef417b41f56de5294f99bd5491"),
}


@pytest.mark.parametrize("name", sorted(EVENT_TRACES))
def test_event_trace_unchanged(name, monkeypatch):
    case, events, processed_pin, seq_pin = EVENT_TRACES[name]
    filename, overrides, _ = CASES[case]
    processed, with_seq = hashlib.sha256(), hashlib.sha256()
    seen = [0]

    def hook(fire_at, seq, label):
        processed.update(f"{fire_at} {label}\n".encode())
        with_seq.update(f"{fire_at} {seq} {label}\n".encode())
        seen[0] += 1

    monkeypatch.setattr(tasnic.node, "Simulator", lambda: Simulator(trace_hook=hook))
    doc = json.loads((SCENARIOS / filename).read_text())
    doc.update(overrides)
    run_scenario(parse_scenario(doc))
    assert ((seen[0], processed.hexdigest(), with_seq.hexdigest())
            == (events, processed_pin, seq_pin))
