#!/usr/bin/env python3
"""tasnic benchmark: host-time cost of simulating, per workload.

    python3 bench/run.py --workload partition|mesh|rpc --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]   # every workload

With ``--workload`` one workload runs in this process.  Without it each
workload runs in a fresh process of its own, one after another.

``--trace 0`` measures the end-to-end metrics: episodes run until
``--seconds`` have passed, each after two set-ups that are timed and then
abandoned, and each metric is the median over them.  ``--trace 1`` runs one untraced and one
traced episode on the same inputs and reports the per-layer metrics.

Every episode is checked; a check that fails counts as a failed operation.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  bench/README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("partition", "mesh", "rpc")
# set-up-only episodes before each measured one, so that set-up samples are
# spread over the run like the episodes
SETUPS_PER_EPISODE = 2
SUBPROCESS_TIMEOUT_S = 900

sys.path.insert(0, str(BENCH_DIR))
import workloads as wl  # noqa: E402
from tracing import EVENT_KINDS, OTHER_KIND, Tracer, layer_metrics  # noqa: E402

WORKLOAD_PARAMS = {
    "partition": {
        "scenario": str(wl.PARTITION_SCENARIO), "duration_ns": wl.PARTITION_DURATION_NS,
        "op": "one 100 us schedule window of simulated time",
        "slice_ns": wl.PARTITION_SLICE_NS, "loop": "open, simulated time",
    },
    "mesh": {
        "tiles": f"{wl.MESH_TILES}x{wl.MESH_TILES}", "flows": wl.MESH_FLOWS,
        "rate_bps": wl.MESH_RATE_BPS, "payload_bytes": wl.MESH_PAYLOAD,
        "fault": f"{wl.MESH_FAULT[0]}-{wl.MESH_FAULT[1]} down "
                 f"{wl.MESH_FAULT_DOWN_NS}..{wl.MESH_FAULT_UP_NS} ns",
        "duration_ns": wl.MESH_DURATION_NS,
        "op": "one 100 us slice of simulated time", "slice_ns": wl.MESH_SLICE_NS,
        "loop": "open, simulated time",
    },
    "rpc": {
        "layout": "tile_plus_two", "clients": 1, "loop": "closed",
        "round_trips_per_batch": 30 * wl.RPC_PAIRS_REPEAT,
        "request_bytes": f"log-uniform {wl.RPC_MIN_BYTES}..{wl.RPC_MAX_BYTES}",
        "reply_bytes": wl.RPC_REPLY_BYTES, "recv_timeout_ns": wl.RPC_TIMEOUT_NS,
        "op": "one round trip",
    },
}

NOTES = [
    "partition and mesh are open loops on simulated time: their generators are "
    "never late, so no generator lateness is reported.",
    "events/s is a per-layer metric (engine.events_per_s), not an end-to-end one: "
    "fewer events per frame-hop lowers it even while every run gets faster.",
]

# per-call costs from the ROADMAP's microbenchmarks (2 cores, Python 3.11.7)
ROADMAP_PER_CALL_US = [
    ("routing.next_hop_us", "next_hop", 9.4),
    ("frame.stamp_fcs_us", "stamp_fcs", 2.2),
    ("frame.fcs_ok_us", "fcs_ok", 1.8),
    ("engine.push_pop_us", "engine push + pop", 1.7),
    ("clock.read_us", "LocalClock.read_ns", 0.5),
    ("runtime.send_us_per_fragment", "send_msg per fragment", None),
    ("runtime.on_frame_us", "reassembly per fragment", None),
]


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(workload: str, args) -> dict:
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": WORKLOAD_PARAMS[workload],
        "commit": git_commit(ROOT), "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": cpu_model(),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = min(max(math.ceil(q / 100 * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least 10 of n samples beyond it."""
    for q in (99.9, 99.0, 98.0, 95.0, 90.0, 80.0):
        if n * (1 - q / 100) >= 10:
            return q
    return 50.0


def check_digest(workload: str, seed: int, episodes: list) -> None:
    """Pin the report for the default seed; demand identical reports otherwise."""
    pinned = wl.PINNED_DIGESTS[workload] if seed == wl.DEFAULT_SEED else None
    expected = pinned or episodes[0].digest
    for ep in episodes:
        if ep.digest != expected:
            ep.failures.append(f"report sha256 {ep.digest} != {expected}")
            ep.failed = ep.attempted


def run_untraced(workload: str, args) -> tuple[dict, list, list[str]]:
    out_dir = OUT_DIR / workload
    setups = []
    episodes = []
    start = perf_counter()
    while not episodes or perf_counter() - start < args.seconds:
        for _ in range(SETUPS_PER_EPISODE):
            setups.append(wl.run_episode(workload, ROOT, args.seed, out_dir,
                                         stop_at_setup=True).setup_s)
            gc.collect()
        episodes.append(wl.run_episode(workload, ROOT, args.seed, out_dir))
        gc.collect()
    check_digest(workload, args.seed, episodes)

    # Every episode repeats the same operations, so each operation's host time
    # is taken as its median over the episodes, which filters out short stalls
    # of the host; the percentiles then run over the operations.
    per_op = [statistics.median(times) for times in zip(*(e.op_s for e in episodes))]
    q_tail = tail_percentile(len(per_op))
    metrics = {
        "sim_ns_per_s": (statistics.median(e.sim_ns / e.run_s for e in episodes), "ns/s"),
        "frame_hops_per_s": (statistics.median(e.hops / e.run_s for e in episodes), "1/s"),
        "setup_s": (statistics.median(setups + [e.setup_s for e in episodes]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_ms_p50": (percentile(per_op, 50) * 1e3, "ms"),
        "op_ms_tail": (percentile(per_op, q_tail) * 1e3, "ms"),
    }
    lines = [
        f"episodes: {len(episodes)} measured, {len(setups)} set-up only; "
        f"report sha256 {episodes[0].digest}",
        f"op = {WORKLOAD_PARAMS[workload]['op']}; op_ms_tail is p{q_tail:g} over "
        f"{len(per_op)} ops, each the median of {len(episodes)} samples",
        f"per episode: {episodes[0].events} events, {episodes[0].hops} frame-hops, "
        f"{episodes[0].sim_ns} simulated ns",
    ]
    return metrics, episodes, lines


def run_traced(workload: str, args) -> tuple[dict, list, list[str]]:
    out_dir = OUT_DIR / workload
    untraced = wl.run_episode(workload, ROOT, args.seed, out_dir)
    gc.collect()
    tracer = Tracer()
    traced = wl.run_episode(workload, ROOT, args.seed, out_dir, tracer=tracer)
    episodes = [untraced, traced]
    check_digest(workload, args.seed, episodes)
    metrics = layer_metrics(tracer, traced, untraced)
    written = tracer.write(out_dir / "trace")
    lines = [
        f"traced and untraced report sha256: {traced.digest} / {untraced.digest}",
        f"{len(tracer.start)} spans written to {written[0].relative_to(ROOT)}",
        "per-call cost (traced self time / calls) beside the ROADMAP microbenchmarks; "
        f"each span adds about {metrics['harness.span_overhead_us'][0]:.2f} us, "
        "counted in its parent's self time:",
    ]
    for key, label, roadmap in ROADMAP_PER_CALL_US:
        ref = f"{roadmap:.1f} us" if roadmap is not None else "-"
        lines.append(f"  {label:<26} {metrics[key][0]:8.2f} us   ROADMAP {ref}")
    by_kind = sorted(((metrics[f"engine.events.{k}"][0], k, metrics[f"engine.action_s.{k}"][0])
                      for k in (*EVENT_KINDS, OTHER_KIND)), reverse=True)
    lines.append("events by kind (count, action self time s): " + ", ".join(
        f"{k} {n} {s:.3f}" for n, k, s in by_kind if n))
    return metrics, episodes, lines


def run_workload(workload: str, args) -> int:
    OUT_DIR.joinpath(workload).mkdir(parents=True, exist_ok=True)
    runner = run_traced if args.trace else run_untraced
    metrics, episodes, lines = runner(workload, args)
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    failures = sorted({msg for e in episodes for msg in e.failures})
    ctx = context(workload, args)
    print(f"# tasnic benchmark: {workload} seed={args.seed} trace={args.trace} "
          f"commit={ctx['commit'][:12]} python={ctx['python']} nproc={ctx['nproc']} "
          f"cpu={ctx['cpu']}")
    for line in lines + NOTES:
        print("# " + line)
    for msg in failures[:20]:
        print("# FAILED: " + msg)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"context": ctx, "notes": NOTES, "details": lines, "failures": failures,
              **result}
    (OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {workload} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tasnic" / "__init__.py").is_file() or \
            not (ROOT / wl.PARTITION_SCENARIO).is_file():
        print(f"error: no tasnic checkout at {ROOT} (need src/tasnic and "
              f"{wl.PARTITION_SCENARIO})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args)


if __name__ == "__main__":
    sys.exit(main())
