#!/usr/bin/env python3
"""Scheduler-share sweep.

Programs random slot tables over 2..4 queues on a single link with every
queue backlogged and no host cap, then compares each queue's measured
share of the link against its slot fraction of the window.  Each case is
``scenarios/proportional_shares.json`` with its own slot table, flows and
seed.
"""

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tasnic.frame import MAX_WIRE_BYTES
from tasnic.harness import run_scenario
from tasnic.runtime import MAX_CHUNK
from tasnic.scenario import parse_scenario


def main() -> int:
    doc = json.loads((ROOT / "scenarios" / "proportional_shares.json").read_text())
    schedule, template = doc["schedules"][0], doc["flows"][0]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=int, default=5)
    parser.add_argument("--window-us", type=int, default=schedule["window_us"])
    parser.add_argument("--windows", type=int,
                        default=doc["duration_ns"] // (schedule["window_us"] * 1000))
    args = parser.parse_args()

    window = schedule["window_us"] = args.window_us
    doc["duration_ns"] = args.windows * window * 1000
    print(f"{'case':>4} {'queue':>5} {'slot_us':>7} {'target':>8} {'measured':>9} {'error':>8}")
    worst = 0.0
    for case in range(args.cases):
        rng = random.Random(case)
        count = rng.randint(2, 4)
        queues = rng.sample(range(4), count)
        slots = [rng.randint(30, 55) for _ in range(count)]
        schedule["entries"] = [[q, s] for q, s in zip(queues, slots)]
        doc["flows"] = [dict(template, pcp=q) for q in queues]
        doc["seed"] = case
        scenario = parse_scenario(doc)
        report = run_scenario(scenario).report()
        for flow, slot in zip(report["flows"], slots):
            measured = flow["goodput_bps"] * MAX_WIRE_BYTES / MAX_CHUNK / scenario.rate_bps
            target = slot / window
            err = measured - target
            worst = max(worst, abs(err))
            print(f"{case:>4} {flow['pcp']:>5} {slot:>7} {target:>8.4f} "
                  f"{measured:>9.4f} {err:>+8.4f}")
    print(f"\nworst absolute share error: {worst:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
