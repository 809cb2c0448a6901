#!/usr/bin/env python3
"""Bandwidth-partition experiment.

Two backlogged flows leave the west single node for the east single node
across the central tile: priority 2 on a queue holding 90% of a 100 us
window, priority 0 riding the leftover round-robin time.  With the host
injection budget at 2.25 Gbps the high-priority flow should land near
2.0 Gbps, i.e. ~90% of the combined goodput.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tasnic.harness import emit_report, run_scenario
from tasnic.scenario import parse_scenario


def main() -> int:
    doc = json.loads((ROOT / "scenarios" / "bandwidth_partition.json").read_text())
    schedule = doc["schedules"][0]
    slot = schedule["entries"][0]  # [queue, slot_us] of the high-priority queue
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration-ms", type=int, default=doc["duration_ns"] // 1_000_000)
    parser.add_argument("--slot-us", type=int, default=slot[1])
    parser.add_argument("--seed", type=int, default=doc["seed"])
    parser.add_argument("--out", default=None, help="also write a JSON report here")
    args = parser.parse_args()
    doc["duration_ns"] = args.duration_ms * 1_000_000
    slot[1] = args.slot_us
    doc["seed"] = args.seed

    result = run_scenario(parse_scenario(doc))
    report = result.report()

    print(f"{'flow':>4} {'pcp':>3} {'goodput_gbps':>12} {'delivered':>9} {'drops':>6}")
    combined = 0.0
    for flow in report["flows"]:
        combined += flow["goodput_bps"]
        print(f"{flow['flow_id']:>4} {flow['pcp']:>3} "
              f"{flow['goodput_bps']/1e9:>12.4f} {flow['delivered_messages']:>9} "
              f"{flow['dropped_frames']:>6}")
    hi = report["flows"][0]["goodput_bps"]
    print(f"\nhigh-priority share of combined goodput: {hi/combined:.4f}"
          f"  (slot fraction {args.slot_us / schedule['window_us']:.2f})")
    if args.out:
        for path in emit_report(result, "json", args.out):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
