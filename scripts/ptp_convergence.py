#!/usr/bin/env python3
"""Clock-sync convergence experiment.

Runs one quiet tile for a few simulated seconds with seeded oscillator
drift and prints, per slave, the servo's recent offset estimates and the
worst true divergence from the grandmaster after the convergence horizon.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tasnic.engine import TICKS_PER_S
from tasnic.harness import run_scenario
from tasnic.scenario import parse_scenario


def main() -> int:
    doc = json.loads((ROOT / "scenarios" / "ptp_defaults.json").read_text())
    ptp = doc["ptp"]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=int, default=doc["duration_ns"] // TICKS_PER_S)
    parser.add_argument("--max-drift-ppm", type=float,
                        default=ptp["drift_ppm"]["seeded_max_ppm"])
    parser.add_argument("--interval-ms", type=int, default=ptp["interval_ms"])
    parser.add_argument("--seed", type=int, default=doc["seed"])
    args = parser.parse_args()
    doc["duration_ns"] = args.seconds * TICKS_PER_S
    ptp["drift_ppm"]["seeded_max_ppm"] = args.max_drift_ppm
    ptp["interval_ms"] = args.interval_ms
    doc["seed"] = args.seed
    result = run_scenario(parse_scenario(doc))
    net = result.network

    print(f"grandmaster: {net.ptp.grandmaster}")
    print(f"{'slave':>10} {'drift_ppm':>10} {'rounds':>7} "
          f"{'last estimates (ns)':>22} {'worst offset (ns)':>18}")
    for slave, state in sorted(net.ptp.slaves.items()):
        drift = net.nodes[slave].clock.drift_ppm
        recent = [est for _, est in state.estimates[-4:]]
        worst = result.ptp_offsets[slave].max_abs_offset_ns
        print(f"{str(slave):>10} {drift:>10.2f} {state.rounds_completed:>7} "
              f"{str(recent):>22} {worst:>18.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
