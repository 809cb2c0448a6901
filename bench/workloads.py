"""Workload generators and the episode runners that time them.

An episode is one unit of measured work, run on a freshly imported
``tasnic`` so that its set-up time includes the import a user pays on every
``tasnic run``:

* ``partition`` and ``mesh``: one ``run_scenario`` of the generated
  scenario, timed in fixed slices of simulated time, then ``emit_report``;
* ``rpc``: one batch of closed-loop round trips over ``send_msg`` and
  ``recv_msg`` on a fresh ``Network``, then ``emit_report``.

Generators depend only on the seed; the program sees only the generated
scenario documents, message sizes, node pairs and bytes.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

DEFAULT_SEED = 1

# partition: criterion 1 of the acceptance suite, cut to 50 ms of simulated
# time; timed per 100 us schedule window of the partitioned port.
PARTITION_SCENARIO = Path("scenarios") / "bandwidth_partition.json"
PARTITION_DURATION_NS = 50_000_000
PARTITION_SLICE_NS = 100_000

# mesh: 4x4 tiles (64 nodes), 32 rate-paced 64-byte flows, one external link
# down for the middle 40% of the run.
MESH_TILES = 4
MESH_DURATION_NS = 20_000_000
MESH_SLICE_NS = 100_000
MESH_RATE_BPS = 10_000_000
MESH_PAYLOAD = 64
MESH_FAULT = ("0.0.1.1", "0.1.0.0")
MESH_FAULT_DOWN_NS = 6_000_000
MESH_FAULT_UP_NS = 14_000_000
# The two flows whose tile-column leg crosses the faulted link with an
# equally long way round; every mix holds exactly these two, so the share of
# traffic exposed to the fault is the same on every seed.
MESH_EXPOSED_FLOWS = (("0.3.0.0", "1.1.1.1"), ("0.3.0.1", "1.1.0.0"))
MESH_FLOWS = 32

# rpc: one client, closed loop, on the tile_plus_two layout.
RPC_PAIRS_REPEAT = 7            # each of the 30 ordered node pairs 7 times
RPC_PAIR_ROTATION = 11
RPC_MIN_BYTES = 64
RPC_MAX_BYTES = 1 << 20
RPC_REPLY_BYTES = 256
RPC_TIMEOUT_NS = 1_000_000_000

# criterion 1 bounds, checked on every partition episode
PARTITION_SHARE = (0.88, 0.92)
PARTITION_HI_BPS = 2.0e9
PARTITION_HI_TOLERANCE = 0.05

# ROADMAP baseline for partition with the default seed: events, frame-hops
PARTITION_BASELINE = (92_740, 36_703)

# sha256 of report.json for the default seed, one per workload
PINNED_DIGESTS = {
    "partition": "cf22711c112d872b93fef88d024616312c9c02ed7306c7388bbaf5c1b29de1cd",
    "mesh": "414e0c5d1ca4f21cd558ade7a34eb216327cd96a8f4138fa653ef7eb3f576f30",
    "rpc": "8e6dcc116df970aa19e8342097090cce44e35d789137859fd13dcdfe60a71561",
}


class SetupDone(Exception):
    """Raised at the first ``run_until`` by a set-up-only episode."""


@dataclass
class Episode:
    setup_s: float
    run_s: float = 0.0            # host seconds inside run_until / round trips
    sim_ns: int = 0               # simulated ns advanced while timed
    hops: int = 0                 # frame-hops: sum of links[].tx_frames
    events: int = 0
    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str | None = None
    report: dict | None = None
    network: object = None        # kept for the traced run's layer counts
    recorders: list = field(default_factory=list)


def fresh_tasnic():
    """Import ``tasnic`` anew, dropping any earlier copy of the package."""
    for name in [m for m in sys.modules if m == "tasnic" or m.startswith("tasnic.")]:
        del sys.modules[name]
    return importlib.import_module("tasnic")


class SliceProbe:
    """Runs ``Simulator.run_until`` in fixed simulated slices and times each.

    Slicing leaves the model unchanged: no event runs between slices, so the
    events processed and the report bytes are those of one call.  The first
    call also marks the end of set-up.
    """

    def __init__(self, engine, slice_ns: int, stop_at_setup: bool):
        self.setup_end: float | None = None
        self.slices: list[float] = []
        orig = engine.Simulator.run_until
        run_stats = engine.RunStats
        probe = self

        def run_until(sim, t_end):
            if probe.setup_end is None:
                probe.setup_end = perf_counter()
                if stop_at_setup:
                    raise SetupDone
            if t_end <= sim.now:
                return orig(sim, t_end)
            first = sim.events_processed
            t = sim.now
            while t < t_end:
                t = min(t + slice_ns, t_end)
                t0 = perf_counter()
                orig(sim, t)
                probe.slices.append(perf_counter() - t0)
            return run_stats(sim.events_processed - first, sim.now)

        engine.Simulator.run_until = run_until


# -- generators ---------------------------------------------------------------

def partition_doc(root: Path, seed: int) -> dict:
    doc = json.loads((root / PARTITION_SCENARIO).read_text())
    doc["seed"] = seed
    doc["duration_ns"] = PARTITION_DURATION_NS
    return doc


def mesh_doc(seed: int) -> dict:
    """64-node torus with seeded pairs over a fixed geometry mix.

    Every flow but the two fault-exposed ones gets a displacement in tiles and
    a pair of positions inside the tiles from a fixed list; the seed picks its
    source tile (rows 1-3, so its column leg never crosses the faulted row-0
    link), its PCP and its start offset.  Routing without faults is the same
    under a shift of whole tiles, so every seed carries the same number of
    frame-hops while the node pairs, and so the routing keys, differ.
    """
    rng = random.Random(f"mesh:{seed}")
    flows = list(MESH_EXPOSED_FLOWS)
    for k in range(MESH_FLOWS - len(MESH_EXPOSED_FLOWS)):
        d_r, d_c = divmod(k % 15 + 1, MESH_TILES)
        src_pos = divmod(k % 4, 2)
        dst_pos = divmod((k // 4 + k) % 4, 2)
        g_r = rng.randrange(1, MESH_TILES)
        g_c = rng.randrange(MESH_TILES)
        src = f"{g_r}.{g_c}.{src_pos[0]}.{src_pos[1]}"
        dst = (f"{(g_r + d_r) % MESH_TILES}.{(g_c + d_c) % MESH_TILES}."
               f"{dst_pos[0]}.{dst_pos[1]}")
        flows.append((src, dst))
    return {
        "grid": {"G_r": MESH_TILES, "G_c": MESH_TILES},
        "flows": [{"src": src, "dst": dst, "pcp": rng.randrange(3),
                   "start": rng.randrange(50_000),
                   "offered_rate_bps": MESH_RATE_BPS,
                   "frame_payload_bytes": MESH_PAYLOAD} for src, dst in flows],
        "faults": [
            {"a": MESH_FAULT[0], "b": MESH_FAULT[1], "time_ns": MESH_FAULT_DOWN_NS,
             "state": "down"},
            {"a": MESH_FAULT[0], "b": MESH_FAULT[1], "time_ns": MESH_FAULT_UP_NS,
             "state": "up"},
        ],
        "duration_ns": MESH_DURATION_NS,
        "seed": seed,
    }


def rpc_doc(seed: int) -> dict:
    return {"grid": {"preset": "tile_plus_two"}, "seed": seed}


def rpc_plan(seed: int, n_nodes: int) -> list[tuple[int, int, int]]:
    """(caller index, peer index, size) per round trip of one batch.

    Sizes are log-uniform from 64 B to 1 MiB, stratified: the batch holds one
    size from each of its equal-width log bands, the seed placing it within
    the band.  Each ordered pair of nodes gets one band from every block of
    consecutive bands, by a fixed rotation, and the seed shuffles the order
    of the round trips.  So every batch has the same mix of sizes and path
    lengths, and its percentiles stay steady from seed to seed.
    """
    rng = random.Random(f"rpc:{seed}")
    pairs = [(a, b) for a in range(n_nodes) for b in range(n_nodes) if a != b]
    n = len(pairs) * RPC_PAIRS_REPEAT
    span = math.log(RPC_MAX_BYTES / RPC_MIN_BYTES)
    plan = []
    for i in range(n):
        block, offset = divmod(i, len(pairs))
        a, b = pairs[(offset + RPC_PAIR_ROTATION * block) % len(pairs)]
        size = min(RPC_MAX_BYTES, int(RPC_MIN_BYTES * math.exp(span * (i + rng.random()) / n)))
        plan.append((a, b, size))
    rng.shuffle(plan)
    return plan


# -- episodes -------------------------------------------------------------------

def _record_report(tas, result, out_dir: Path, ep: Episode) -> None:
    """Write report.json as ``tasnic run`` does; keep its digest and counts."""
    path = tas.emit_report(result, "json", out_dir)[0]
    blob = path.read_bytes()
    ep.digest = hashlib.sha256(blob).hexdigest()
    ep.report = json.loads(blob)
    ep.hops = sum(link["tx_frames"] for link in ep.report["links"])
    ep.events = ep.report["totals"]["events_processed"]


def _check_flows(report: dict, ep: Episode) -> None:
    for f in report["flows"]:
        if f["offered_frames"] != (f["delivered_frames"] + f["dropped_frames"]
                                   + f["in_flight_frames"]) or f["in_flight_frames"] < 0:
            ep.failures.append(f"flow {f['flow_id']}: frames not conserved")


def _check_partition(report: dict, ep: Episode) -> None:
    hi, lo = report["flows"][0]["goodput_bps"], report["flows"][1]["goodput_bps"]
    share = hi / (hi + lo) if hi + lo else 0.0
    if not PARTITION_SHARE[0] <= share <= PARTITION_SHARE[1]:
        ep.failures.append(f"criterion 1: high-priority share {share:.4f}")
    if abs(hi - PARTITION_HI_BPS) > PARTITION_HI_TOLERANCE * PARTITION_HI_BPS:
        ep.failures.append(f"criterion 1: high-priority goodput {hi / 1e9:.4f} Gb/s")


def scenario_episode(workload: str, root: Path, seed: int, out_dir: Path,
                     stop_at_setup: bool = False, tracer=None) -> Episode:
    """One ``run_scenario`` of the partition or mesh scenario."""
    slice_ns = PARTITION_SLICE_NS if workload == "partition" else MESH_SLICE_NS
    t0 = perf_counter()
    tas = fresh_tasnic()
    if tracer is not None:
        tracer.install(tas)
    probe = SliceProbe(tas.engine, slice_ns, stop_at_setup)
    doc = partition_doc(root, seed) if workload == "partition" else mesh_doc(seed)
    scenario = tas.parse_scenario(doc)
    try:
        result = tas.run_scenario(scenario)
    except SetupDone:
        return Episode(setup_s=probe.setup_end - t0)
    ep = Episode(setup_s=probe.setup_end - t0, run_s=sum(probe.slices),
                 sim_ns=scenario.duration_ns, op_s=probe.slices, attempted=1)
    _record_report(tas, result, out_dir, ep)
    _check_flows(ep.report, ep)
    if workload == "partition":
        _check_partition(ep.report, ep)
        if seed == DEFAULT_SEED and (ep.events, ep.hops) != PARTITION_BASELINE:
            ep.failures.append(f"baseline: {ep.events} events and {ep.hops} frame-hops, "
                               f"not {PARTITION_BASELINE[0]} and {PARTITION_BASELINE[1]}")
    ep.failed = 1 if ep.failures else 0
    if tracer is not None:
        ep.network, ep.recorders = result.network, result.recorders
    return ep


def rpc_episode(seed: int, out_dir: Path, stop_at_setup: bool = False,
                tracer=None) -> Episode:
    """One batch of closed-loop round trips on a fresh network."""
    t0 = perf_counter()
    tas = fresh_tasnic()
    if tracer is not None:
        tracer.install(tas)
    scenario = tas.parse_scenario(rpc_doc(seed))
    net = tas.build_network(scenario)
    net.start()
    setup_s = perf_counter() - t0
    ep = Episode(setup_s=setup_s)
    if stop_at_setup:
        return ep
    nodes = sorted(net.nodes)
    runtimes = [net.nodes[n].runtime for n in nodes]
    encoded = [tas.encode_id(n) for n in nodes]
    rng = random.Random(f"rpc-bytes:{seed}")
    sim = net.sim
    sim_start = sim.now
    for a, b, size in rpc_plan(seed, len(nodes)):
        data = rng.randbytes(size)
        reply = rng.randbytes(RPC_REPLY_BYTES)
        failure = None
        ts = perf_counter()
        try:
            runtimes[a].send_msg(data, encoded[b])
            got = runtimes[b].recv_msg(size, encoded[a], timeout=RPC_TIMEOUT_NS)
            runtimes[b].send_msg(reply, encoded[a])
            got_reply = runtimes[a].recv_msg(RPC_REPLY_BYTES, encoded[b],
                                             timeout=RPC_TIMEOUT_NS)
        except tas.runtime.ReceiveTimeout:
            failure = "timed out"
        ep.op_s.append(perf_counter() - ts)
        ep.attempted += 1
        if failure is None and (got != data or got_reply != reply):
            failure = "bytes differ"
        if failure is not None:
            ep.failed += 1
            ep.failures.append(f"round trip {nodes[a]}->{nodes[b]} ({size} B) {failure}")
    ep.run_s = sum(ep.op_s)
    ep.sim_ns = sim.now - sim_start
    slaves = net.ptp.slaves if net.ptp is not None else {}
    result = tas.RunResult(scenario, net, [], {s: tas.harness.PtpSlaveReport() for s in slaves},
                           sim.events_processed)
    _record_report(tas, result, out_dir, ep)
    totals = ep.report["totals"]
    if totals["frames_offered"] != totals["frames_delivered"] or totals["drops_by_cause"]:
        ep.failures.append("runtime frames not all delivered")
        ep.failed = ep.attempted
    if tracer is not None:
        ep.network = net
    return ep


def run_episode(workload: str, root: Path, seed: int, out_dir: Path,
                stop_at_setup: bool = False, tracer=None) -> Episode:
    if workload == "rpc":
        return rpc_episode(seed, out_dir, stop_at_setup, tracer)
    return scenario_episode(workload, root, seed, out_dir, stop_at_setup, tracer)
