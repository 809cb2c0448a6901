#!/usr/bin/env python3
"""Fault-reroute experiment.

A steady flow crosses the central tile on its 4-hop shortest path; halfway
through the run the vertical link on that path goes down.  Frames re-route
through the tile's north-south wrap, one hop longer, and the one-way
latency rises accordingly while delivery stays complete.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tasnic.harness import run_scenario
from tasnic.scenario import parse_scenario


def main() -> int:
    doc = json.loads((ROOT / "scenarios" / "fault_reroute.json").read_text())
    flow, fault = doc["flows"][0], doc["faults"][0]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate-mbps", type=int, default=flow["offered_rate_bps"] // 1_000_000)
    parser.add_argument("--duration-ms", type=int, default=doc["duration_ns"] // 1_000_000)
    parser.add_argument("--seed", type=int, default=doc["seed"])
    args = parser.parse_args()
    flow["offered_rate_bps"] = args.rate_mbps * 1_000_000
    doc["duration_ns"] = args.duration_ms * 1_000_000
    fault["time_ns"] = fault_t = doc["duration_ns"] // 2
    doc["seed"] = args.seed
    result = run_scenario(parse_scenario(doc))
    rec = result.recorders[0]
    pre = [m for m in rec.messages if m.deliver_true_ns < fault_t]
    post = [m for m in rec.messages if m.send_true_ns > fault_t]

    def stats(msgs):
        lats = [m.latency_ns for m in msgs]
        return (statistics.mean(lats) / 1e3, statistics.median(lats) / 1e3,
                min(m.hops for m in msgs), max(m.hops for m in msgs))

    for name, msgs in (("before fault", pre), ("after fault", post)):
        mean, median, hop_lo, hop_hi = stats(msgs)
        print(f"{name:>12}: {len(msgs):>6} msgs, latency mean {mean:8.2f} us "
              f"median {median:8.2f} us, hops {hop_lo}..{hop_hi}")
    print(f"\ndelivered {rec.delivered_frames}/{rec.offered_frames} frames, "
          f"drops by cause: {rec.drops or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
