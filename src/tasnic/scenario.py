"""Scenario files: schema, validation, defaults and the provenance digest.

A parsed ``Scenario`` holds its settings as values (``GridSpec``,
``HostSettings``, ``PtpSettings``, ``NicSettings``, ``FaultSpec``,
``FlowSpec``) and is the only configuration a ``Network`` is built from.

JSON is the reference encoding.  Node ids appear either as 4-element
arrays [Grc, Gcc, Lrc, Lcc] or dotted strings "Grc.Gcc.Lrc.Lcc".  The
``grid`` section takes explicit dimensions (plus an optional ``populated``
subset) or the ``"preset": "tile_plus_two"`` lab shape.  Every loaded
scenario is fully validated: the topology must build, the priority map
must be acceptable, schedules must be committable, and flows and faults
must reference populated nodes and existing links.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import NamedTuple

from .clock import MAX_RATE_ADJ_PPM
from .fabric import (
    AddressError,
    DEFAULT_LINK_RATE_BPS,
    DEFAULT_PROP_DELAY_NS,
    MAX_GRID_DIM,
    NodeId,
    PortKind,
    Topology,
    build_topology,
    tile_plus_two_nodes,
)
from .nic import DEFAULT_WINDOW_US, MAX_TX_QUEUES, validate_schedule
from .qdisc import PriorityMap, validate_map
from .runtime import MAX_CHUNK, ScheduleConfig


class ScenarioError(Exception):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


def _parse_node(value, path: str, errors: list[str]) -> NodeId | None:
    try:
        if isinstance(value, str):
            return NodeId.parse(value)
        if isinstance(value, (list, tuple)) and len(value) == 4:
            return NodeId(*(_int(v, path, errors) for v in value))
    except (AddressError, ScenarioError, ValueError):
        pass
    errors.append(f"{path}: {value!r} is not a node id")
    return None


def _malformed(value, what: str, path: str, errors: list[str]) -> ScenarioError:
    """A value of the wrong shape ends validation, keeping the errors found so far."""
    return ScenarioError(errors + [f"{path}: {value!r} is not {what}"])


def _expect(value, kind: type, path: str, errors: list[str]):
    if not isinstance(value, kind):
        raise _malformed(value, "an object" if kind is dict else "a list", path, errors)
    return value


def _int(value, path: str, errors: list[str]) -> int:
    """A JSON integer, or a float with an integral value; never a bool or a string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise _malformed(value, "an integer", path, errors)


INT64_MAX = 2**63 - 1  # the largest time or rate a field may hold


def _int64(value, path: str, errors: list[str]) -> int:
    """``_int`` of a time or rate field, which must not exceed ``INT64_MAX``."""
    n = _int(value, path, errors)
    if n > INT64_MAX:
        errors.append(f"{path}: {value!r} is above 2**63 - 1")
    return n


def _bool(value, path: str, errors: list[str]) -> bool:
    if not isinstance(value, bool):
        raise _malformed(value, "a boolean", path, errors)
    return value


def _ints(value, path: str, errors: list[str]) -> tuple[int, ...]:
    return tuple(_int(v, f"{path}[{i}]", errors)
                 for i, v in enumerate(_expect(value, list, path, errors)))


def _number(value) -> bool:
    """A finite JSON number; never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _drift_bounded(value, path: str, errors: list[str]) -> None:
    """A drift the clock servo can correct: at most ``MAX_RATE_ADJ_PPM`` either way."""
    if abs(value) > MAX_RATE_ADJ_PPM:
        errors.append(f"{path}: {value!r} ppm exceeds the {MAX_RATE_ADJ_PPM:g} ppm"
                      " the clock servo can correct")


def _drift(spec, topo: Topology, path: str, errors: list[str]):
    """``spec`` unchanged once ``Scenario.resolve_drift`` can read all of it: a
    number, ``{"seeded_max_ppm": x}`` with x >= 0, or ``default`` and populated
    node ids; every value within the servo's range."""
    if spec is None:
        return spec
    if _number(spec):
        _drift_bounded(spec, path, errors)
        return spec
    if not isinstance(spec, dict):
        raise _malformed(spec, "a number or an object", path, errors)
    for key, value in spec.items():
        if not _number(value):
            raise _malformed(value, "a number", f"{path}.{key}", errors)
        _drift_bounded(value, f"{path}.{key}", errors)
    seeded = "seeded_max_ppm" in spec
    if seeded and spec["seeded_max_ppm"] < 0:
        errors.append(f"{path}.seeded_max_ppm: {spec['seeded_max_ppm']!r} is negative")
    node_ids = {str(n) for n in topo.nodes}
    for key in spec:
        if seeded and key != "seeded_max_ppm":
            errors.append(f"{path}: {key!r} cannot stand beside 'seeded_max_ppm'")
        elif not seeded and key != "default" and key not in node_ids:
            errors.append(f"{path}: {key!r} is neither 'default' nor a populated node id")
    return spec


class GridSpec(NamedTuple):
    g_r: int = 1
    g_c: int = 1
    populated: tuple[NodeId, ...] | None = None  # None: every position of the grid
    preset: str | None = None


class HostSettings(NamedTuple):
    injection_cap_bps: int | None = 2_250_000_000  # None: uncapped
    processing_delay_ns: int = 10_000


class PtpSettings(NamedTuple):
    enabled: bool = True
    grandmaster: NodeId | None = None  # None: lowest populated id
    interval_ms: int = 250
    quantization_ns: int = 8
    convergence_rounds: int = 10


class NicSettings(NamedTuple):
    num_tx_queues: int = 8
    time_aware_queues: tuple[int, ...] = (0, 1, 2)
    queue_depth: int = 1024


class FaultSpec(NamedTuple):
    a: NodeId
    b: NodeId
    time_ns: int
    up: bool


class FlowSpec(NamedTuple):
    src: NodeId
    dst: NodeId
    pcp: int
    start: int
    stop: int | None  # None runs to the scenario end
    backlogged: bool
    offered_rate_bps: int | None
    frame_payload_bytes: int


class Scenario:
    __slots__ = ("grid", "rate_bps", "prop_delay_ns", "host", "ptp", "drift_spec", "nic",
                 "priority_map", "schedules", "faults", "flows", "duration_ns", "seed", "trace")

    def __init__(self) -> None:
        self.grid = GridSpec()
        self.rate_bps = DEFAULT_LINK_RATE_BPS
        self.prop_delay_ns = DEFAULT_PROP_DELAY_NS
        self.host = HostSettings()
        self.ptp = PtpSettings()
        self.drift_spec: object = None  # None (seeded 10 ppm), number, or mapping
        self.nic = NicSettings()
        self.priority_map = PriorityMap()
        self.schedules: list[tuple[NodeId, ScheduleConfig]] = []
        self.faults: list[FaultSpec] = []
        self.flows: list[FlowSpec] = []
        self.duration_ns = 1_000_000_000
        self.seed = 0
        self.trace = False

    def build_fabric(self) -> Topology:
        if self.grid.preset == "tile_plus_two":
            return tile_plus_two_nodes(self.rate_bps, self.prop_delay_ns)
        return build_topology(self.grid.g_r, self.grid.g_c,
                              self.rate_bps, self.prop_delay_ns,
                              populated=self.grid.populated)

    def canonical_dict(self) -> dict:
        """Defaults-filled dict with stable shapes, used for the digest."""
        return {
            "grid": {
                "G_r": self.grid.g_r, "G_c": self.grid.g_c,
                "populated": ([str(n) for n in self.grid.populated]
                              if self.grid.populated is not None else None),
                "preset": self.grid.preset,
            },
            "link": {"rate_bps": self.rate_bps, "prop_delay_ns": self.prop_delay_ns},
            "host": self.host._asdict(),
            "ptp": {**self.ptp._asdict(),
                    "grandmaster": (str(self.ptp.grandmaster)
                                    if self.ptp.grandmaster is not None else None),
                    "drift_ppm": self.drift_spec},
            "nic": self.nic._asdict(),
            "priority_map": self.priority_map._asdict(),
            "schedules": [{"node": str(node), "port": cfg.port.value,
                           "window_us": cfg.window_us,
                           "entries": [list(e) for e in cfg.entries],
                           "guardband_ns": cfg.guardband_ns} for node, cfg in self.schedules],
            "faults": [{"a": str(f.a), "b": str(f.b), "time_ns": f.time_ns,
                        "state": "up" if f.up else "down"} for f in self.faults],
            "flows": [{**f._asdict(), "src": str(f.src), "dst": str(f.dst)} for f in self.flows],
            "duration_ns": self.duration_ns,
            "seed": self.seed,
            "trace": self.trace,
        }

    def digest(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def resolve_drift(self, topology: Topology, rng) -> dict[NodeId, float]:
        spec = {"seeded_max_ppm": 10.0} if self.drift_spec is None else self.drift_spec
        if isinstance(spec, (int, float)):
            return {n: float(spec) for n in topology.nodes}
        if "seeded_max_ppm" in spec:
            limit = float(spec["seeded_max_ppm"])
            return {n: rng.stream("drift", str(n)).uniform(-limit, limit)
                    for n in topology.nodes}
        default = float(spec.get("default", 0.0))
        return {n: float(spec.get(str(n), default)) for n in topology.nodes}


def parse_scenario(doc: dict) -> Scenario:
    """Validate a decoded scenario document; raises ScenarioError.

    A field the document leaves out keeps its value in ``Scenario()``."""
    errors: list[str] = []
    sc = Scenario()

    grid = _expect(doc.get("grid", {}), dict, "grid", errors)
    if grid.get("preset") == "tile_plus_two":
        sc.grid = GridSpec(1, 3, None, "tile_plus_two")
    elif grid.get("preset"):
        errors.append(f"grid.preset: unknown preset {grid['preset']!r}")
    else:
        g_r = _int(grid.get("G_r", sc.grid.g_r), "grid.G_r", errors)
        g_c = _int(grid.get("G_c", sc.grid.g_c), "grid.G_c", errors)
        if not (1 <= g_r <= MAX_GRID_DIM and 1 <= g_c <= MAX_GRID_DIM):
            errors.append(f"grid: dimensions {g_r}x{g_c} must be in 1..{MAX_GRID_DIM}")
            g_r, g_c = (min(max(d, 1), MAX_GRID_DIM) for d in (g_r, g_c))
        populated = None
        if grid.get("populated") is not None:
            populated = []
            for i, v in enumerate(_expect(grid["populated"], list, "grid.populated", errors)):
                n = _parse_node(v, f"grid.populated[{i}]", errors)
                if n is None:
                    continue
                if not (0 <= n.grc < g_r and 0 <= n.gcc < g_c and n.lrc in (0, 1)
                        and n.lcc in (0, 1)):
                    errors.append(f"grid.populated[{i}]: {n} is outside the {g_r}x{g_c} grid")
                    continue
                if n in populated:
                    errors.append(f"grid.populated[{i}]: {n} is already listed")
                    continue
                populated.append(n)
            if not grid["populated"]:
                errors.append("grid.populated: must name at least one node")
            populated = tuple(populated)
        sc.grid = GridSpec(g_r, g_c, populated, None)

    link = _expect(doc.get("link", {}), dict, "link", errors)
    sc.rate_bps = _int64(link.get("rate_bps", sc.rate_bps), "link.rate_bps", errors)
    sc.prop_delay_ns = _int64(link.get("prop_delay_ns", sc.prop_delay_ns),
                              "link.prop_delay_ns", errors)
    if sc.rate_bps <= 0:
        errors.append(f"link.rate_bps: {sc.rate_bps} must be > 0")
    if sc.prop_delay_ns < 0:
        errors.append(f"link.prop_delay_ns: {sc.prop_delay_ns} must be >= 0")

    host = _expect(doc.get("host", {}), dict, "host", errors)
    cap = host.get("injection_cap_bps", sc.host.injection_cap_bps)
    if cap is not None:
        cap = _int64(cap, "host.injection_cap_bps", errors) or None  # 0: uncapped
    sc.host = HostSettings(
        injection_cap_bps=cap,
        processing_delay_ns=_int64(host.get("processing_delay_ns", sc.host.processing_delay_ns),
                                   "host.processing_delay_ns", errors))
    if sc.host.injection_cap_bps is not None and sc.host.injection_cap_bps < 0:
        errors.append(f"host.injection_cap_bps: {sc.host.injection_cap_bps} must be >= 0"
                      " (0 or null: uncapped)")
    if sc.host.processing_delay_ns < 0:
        errors.append(f"host.processing_delay_ns: {sc.host.processing_delay_ns} must be >= 0")

    ptp = _expect(doc.get("ptp", {}), dict, "ptp", errors)
    gm = None
    if ptp.get("grandmaster") is not None:
        gm = _parse_node(ptp["grandmaster"], "ptp.grandmaster", errors)
    sc.ptp = PtpSettings(
        enabled=_bool(ptp.get("enabled", sc.ptp.enabled), "ptp.enabled", errors),
        grandmaster=gm,
        interval_ms=_int64(ptp.get("interval_ms", sc.ptp.interval_ms), "ptp.interval_ms", errors),
        quantization_ns=_int64(ptp.get("quantization_ns", sc.ptp.quantization_ns),
                               "ptp.quantization_ns", errors),
        convergence_rounds=_int(ptp.get("convergence_rounds", sc.ptp.convergence_rounds),
                                "ptp.convergence_rounds", errors))
    if sc.ptp.interval_ms < 1:
        errors.append(f"ptp.interval_ms: {sc.ptp.interval_ms} must be >= 1")
    if sc.ptp.quantization_ns < 1:
        errors.append(f"ptp.quantization_ns: {sc.ptp.quantization_ns} must be >= 1")
    if sc.ptp.convergence_rounds < 0:
        errors.append(f"ptp.convergence_rounds: {sc.ptp.convergence_rounds} must be >= 0")

    nic = _expect(doc.get("nic", {}), dict, "nic", errors)
    sc.nic = NicSettings(
        num_tx_queues=_int(nic.get("num_tx_queues", sc.nic.num_tx_queues),
                           "nic.num_tx_queues", errors),
        time_aware_queues=_ints(nic.get("time_aware_queues", list(sc.nic.time_aware_queues)),
                                "nic.time_aware_queues", errors),
        queue_depth=_int(nic.get("queue_depth", sc.nic.queue_depth), "nic.queue_depth", errors))
    if not 1 <= sc.nic.num_tx_queues <= MAX_TX_QUEUES:
        errors.append(f"nic.num_tx_queues: {sc.nic.num_tx_queues} must be in 1..{MAX_TX_QUEUES}")
    if sc.nic.queue_depth < 1:
        errors.append(f"nic.queue_depth: {sc.nic.queue_depth} must be >= 1")
    for q in sc.nic.time_aware_queues:
        if not 0 <= q < sc.nic.num_tx_queues:
            errors.append(f"nic.time_aware_queues: queue {q} does not exist")

    pm = _expect(doc.get("priority_map", {}), dict, "priority_map", errors)
    sc.priority_map = PriorityMap(
        num_classes=_int(pm.get("num_classes", sc.priority_map.num_classes),
                         "priority_map.num_classes", errors),
        prio_to_tc=_ints(pm.get("prio_to_tc", list(sc.priority_map.prio_to_tc)),
                         "priority_map.prio_to_tc", errors),
        tc_to_queue=_ints(pm.get("tc_to_queue", list(sc.priority_map.tc_to_queue)),
                          "priority_map.tc_to_queue", errors))
    for e in validate_map(sc.priority_map, sc.nic.num_tx_queues, sc.nic.time_aware_queues):
        errors.append(f"priority_map: {e}")

    sc.duration_ns = _int64(doc.get("duration_ns", sc.duration_ns), "duration_ns", errors)
    if sc.duration_ns < 1:
        errors.append(f"duration_ns: {sc.duration_ns} must be >= 1")
    sc.seed = _int(doc.get("seed", sc.seed), "seed", errors)
    sc.trace = _bool(doc.get("trace", sc.trace), "trace", errors)

    if errors:
        raise ScenarioError(errors)

    topo = sc.build_fabric()
    if sc.ptp.enabled and sc.ptp.grandmaster is not None and not topo.has_node(sc.ptp.grandmaster):
        errors.append(f"ptp.grandmaster: {sc.ptp.grandmaster} is not a populated node")
    sc.drift_spec = _drift(ptp.get("drift_ppm"), topo, "ptp.drift_ppm", errors)

    for i, s in enumerate(_expect(doc.get("schedules", []), list, "schedules", errors)):
        path = f"schedules[{i}]"
        s = _expect(s, dict, path, errors)
        node = _parse_node(s.get("node"), f"{path}.node", errors)
        try:
            port = PortKind(s.get("port", "external"))
        except ValueError:
            errors.append(f"{path}.port: {s.get('port')!r} is not a port kind")
            continue
        if node is None:
            continue
        if not topo.has_node(node):
            errors.append(f"{path}.node: {node} is not populated")
            continue
        if topo.ports[node][port] is None:
            errors.append(f"{path}: node {node} port {port.value} is not connected")
            continue
        entries = []
        for j, e in enumerate(_expect(s.get("entries", []), list, f"{path}.entries", errors)):
            entries.append(_ints(e, f"{path}.entries[{j}]", errors))
            if len(entries[-1]) != 2:
                raise _malformed(e, "[queue, slot_us]", f"{path}.entries[{j}]", errors)
            _int64(entries[-1][1], f"{path}.entries[{j}][1]", errors)
        entries = tuple(entries)
        window = _int64(s.get("window_us", DEFAULT_WINDOW_US), f"{path}.window_us", errors)
        guard = s.get("guardband_ns")
        guard_val = _int64(guard, f"{path}.guardband_ns", errors) if guard is not None else None
        for e in validate_schedule(window, entries, guard_val if guard_val is not None else 0,
                                   sc.nic.num_tx_queues):
            errors.append(f"{path} (node {node} port {port.value}): {e}")
        sc.schedules.append((node, ScheduleConfig(port, window, entries, guard_val)))

    for i, f in enumerate(_expect(doc.get("faults", []), list, "faults", errors)):
        path = f"faults[{i}]"
        f = _expect(f, dict, path, errors)
        a = _parse_node(f.get("a"), f"{path}.a", errors)
        b = _parse_node(f.get("b"), f"{path}.b", errors)
        if a is None or b is None:
            continue
        if topo.link_between(a, b) is None:
            errors.append(f"{path}: no link between {a} and {b}")
            continue
        t = _int64(f.get("time_ns", 0), f"{path}.time_ns", errors)
        if not 0 <= t <= sc.duration_ns:
            errors.append(f"{path}.time_ns: {t} outside the run duration")
        state = f.get("state", "down")
        if state not in ("up", "down"):
            errors.append(f"{path}.state: {state!r} must be 'up' or 'down'")
            continue
        sc.faults.append(FaultSpec(a, b, t, state == "up"))

    for i, f in enumerate(_expect(doc.get("flows", []), list, "flows", errors)):
        path = f"flows[{i}]"
        f = _expect(f, dict, path, errors)
        src = _parse_node(f.get("src"), f"{path}.src", errors)
        dst = _parse_node(f.get("dst"), f"{path}.dst", errors)
        if src is None or dst is None:
            continue
        if not topo.has_node(src):
            errors.append(f"{path}.src: {src} is not populated")
            continue
        if not topo.has_node(dst):
            errors.append(f"{path}.dst: {dst} is not populated")
            continue
        if src == dst:
            errors.append(f"{path}: src and dst must differ")
            continue
        pcp = _int(f.get("pcp", 0), f"{path}.pcp", errors)
        if not 0 <= pcp <= 7:
            errors.append(f"{path}.pcp: {pcp} out of 0..7")
        start = _int64(f.get("start", 0), f"{path}.start", errors)
        stop = f.get("stop")
        stop_val = _int64(stop, f"{path}.stop", errors) if stop is not None else None
        if start < 0 or start >= sc.duration_ns:
            errors.append(f"{path}.start: {start} outside the run duration")
        if stop_val is not None and not start < stop_val <= sc.duration_ns:
            errors.append(f"{path}.stop: {stop_val} must be in (start, duration]")
        backlogged = _bool(f.get("backlogged", False), f"{path}.backlogged", errors)
        rate = f.get("offered_rate_bps")
        rate_val = _int64(rate, f"{path}.offered_rate_bps", errors) if rate is not None else None
        if backlogged == (rate_val is not None):
            errors.append(f"{path}: exactly one of backlogged/offered_rate_bps required")
        if rate_val is not None and rate_val <= 0:
            errors.append(f"{path}.offered_rate_bps: must be > 0")
        payload = _int(f.get("frame_payload_bytes", MAX_CHUNK), f"{path}.frame_payload_bytes",
                       errors)
        if not 1 <= payload <= MAX_CHUNK:
            errors.append(f"{path}.frame_payload_bytes: {payload} not in 1..{MAX_CHUNK}")
        sc.flows.append(FlowSpec(src, dst, pcp, start, stop_val, backlogged,
                                 rate_val, payload))

    if errors:
        raise ScenarioError(errors)
    return sc


def load_scenario(path: str | Path) -> Scenario:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path}: not valid JSON ({exc})"]) from exc
    if not isinstance(doc, dict):
        raise ScenarioError([f"{path}: top level must be an object"])
    return parse_scenario(doc)
