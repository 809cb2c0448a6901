"""Scenario files: schema, validation, defaults and the provenance digest.

A parsed ``Scenario`` holds its settings as values (``GridSpec``,
``HostSettings``, ``PtpSettings``, ``NicSettings``, ``FaultSpec``,
``FlowSpec``) and is the only configuration a ``Network`` is built from.

JSON is the reference encoding.  Node ids appear either as 4-element
arrays [Grc, Gcc, Lrc, Lcc] or dotted strings "Grc.Gcc.Lrc.Lcc".  The
``grid`` section takes explicit dimensions (plus an optional ``populated``
subset) or the ``"preset": "tile_plus_two"`` lab shape.  Every loaded
scenario is fully validated: each key must be one the format names, the
topology must build, the priority map must be acceptable, schedules must be
committable, and flows and faults must reference populated nodes and
existing links.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import NamedTuple

from .clock import MAX_RATE_ADJ_PPM
from .engine import rng_stream
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
from .nic import DEFAULT_WINDOW_US, MAX_TX_QUEUES, default_guardband_ns, validate_schedule
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


INT64_MAX = 2**63 - 1  # the largest time or rate a field may hold


def _int(value, path: str, errors: list[str], lo: int | None = None,
         hi: int | None = None) -> int:
    """A JSON integer, or a float with an integral value; never a bool or a string.
    One outside ``lo..hi`` is an error, and ``hi=INT64_MAX`` marks a time or rate."""
    if isinstance(value, int) and not isinstance(value, bool):
        n = value
    elif isinstance(value, float) and value.is_integer():
        n = int(value)
    else:
        raise _malformed(value, "an integer", path, errors)
    if hi == INT64_MAX and n > hi:
        errors.append(f"{path}: {value!r} is above 2**63 - 1")
    elif (lo is not None and n < lo) or (hi is not None and n > hi):
        bound = f">= {lo}" if hi in (None, INT64_MAX) else f"in {lo}..{hi}"
        errors.append(f"{path}: {n} must be {bound}")
    return n


def _ints(value, path: str, errors: list[str]) -> tuple[int, ...]:
    return tuple(_int(v, f"{path}[{i}]", errors)
                 for i, v in enumerate(_expect(value, list, path, errors)))


class _Object:
    """One JSON object of a scenario document at ``path`` (``""``, ``"link"``, ``"flows[3]"``).
    Every read records its key, and ``close`` names each key that nothing read."""

    __slots__ = ("value", "path", "errors", "read")

    def __init__(self, value, path: str, errors: list[str]):
        self.value = _expect(value, dict, path, errors)
        self.path = path
        self.errors = errors
        self.read: set[str] = set()

    def at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, default=None):
        self.read.add(key)
        return self.value.get(key, default)

    def int(self, key: str, default, lo: int | None = None, hi: int | None = None,
            null: bool = False):
        """``null``: a JSON null reads as None."""
        value = self.get(key, default)
        return None if value is None and null else _int(value, self.at(key), self.errors, lo, hi)

    def ints(self, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
        return _ints(self.get(key, list(default)), self.at(key), self.errors)

    def bool(self, key: str, default: bool) -> bool:
        value = self.get(key, default)
        if not isinstance(value, bool):
            raise _malformed(value, "a boolean", self.at(key), self.errors)
        return value

    def node(self, key: str, null: bool = False) -> NodeId | None:
        value = self.get(key)
        return None if value is None and null else _parse_node(value, self.at(key), self.errors)

    def section(self, key: str) -> "_Object":
        return _Object(self.get(key, {}), self.at(key), self.errors)

    def items(self, key: str) -> list["_Object"]:
        path = self.at(key)
        return [_Object(item, f"{path}[{i}]", self.errors)
                for i, item in enumerate(_expect(self.get(key, []), list, path, self.errors))]

    def close(self) -> None:
        self.errors.extend(f"{self.at(key)}: unexpected key"
                           for key in self.value if key not in self.read)


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

    def resolve_drift(self, topology: Topology) -> dict[NodeId, float]:
        spec = {"seeded_max_ppm": 10.0} if self.drift_spec is None else self.drift_spec
        if isinstance(spec, (int, float)):
            return {n: float(spec) for n in topology.nodes}
        if "seeded_max_ppm" in spec:
            limit = float(spec["seeded_max_ppm"])
            return {n: rng_stream(self.seed, "drift", str(n)).uniform(-limit, limit)
                    for n in topology.nodes}
        default = float(spec.get("default", 0.0))
        return {n: float(spec.get(str(n), default)) for n in topology.nodes}


def parse_scenario(doc: dict) -> Scenario:
    """Validate a decoded scenario document; raises ScenarioError.

    A field the document leaves out keeps its value in ``Scenario()``, and a
    key the format does not name is an error."""
    errors: list[str] = []
    sc = Scenario()
    top = _Object(doc, "", errors)

    grid = top.section("grid")
    preset = grid.get("preset")
    if preset == "tile_plus_two":
        sc.grid = GridSpec(1, 3, None, preset)
    elif preset:
        errors.append(f"{grid.at('preset')}: unknown preset {preset!r}")
    else:
        g_r, g_c = grid.int("G_r", sc.grid.g_r), grid.int("G_c", sc.grid.g_c)
        if not (1 <= g_r <= MAX_GRID_DIM and 1 <= g_c <= MAX_GRID_DIM):
            errors.append(f"{grid.path}: dimensions {g_r}x{g_c} must be in 1..{MAX_GRID_DIM}")
            g_r, g_c = (min(max(d, 1), MAX_GRID_DIM) for d in (g_r, g_c))
        listed, populated = grid.get("populated"), None
        if listed is not None:
            path, populated = grid.at("populated"), []
            for i, v in enumerate(_expect(listed, list, path, errors)):
                n = _parse_node(v, f"{path}[{i}]", errors)
                if n is None:
                    continue
                if not (0 <= n.grc < g_r and 0 <= n.gcc < g_c and n.lrc in (0, 1)
                        and n.lcc in (0, 1)):
                    errors.append(f"{path}[{i}]: {n} is outside the {g_r}x{g_c} grid")
                    continue
                if n in populated:
                    errors.append(f"{path}[{i}]: {n} is already listed")
                    continue
                populated.append(n)
            if not listed:
                errors.append(f"{path}: must name at least one node")
            populated = tuple(populated)
        sc.grid = GridSpec(g_r, g_c, populated, None)
    grid.close()

    link = top.section("link")
    sc.rate_bps = link.int("rate_bps", sc.rate_bps, 1, INT64_MAX)
    sc.prop_delay_ns = link.int("prop_delay_ns", sc.prop_delay_ns, 0, INT64_MAX)
    link.close()

    host = top.section("host")
    sc.host = HostSettings(  # an injection cap of 0 or null is uncapped
        host.int("injection_cap_bps", sc.host.injection_cap_bps, 0, INT64_MAX, null=True) or None,
        host.int("processing_delay_ns", sc.host.processing_delay_ns, 0, INT64_MAX))
    host.close()

    ptp = top.section("ptp")
    sc.ptp = PtpSettings(
        ptp.bool("enabled", sc.ptp.enabled), ptp.node("grandmaster", null=True),
        ptp.int("interval_ms", sc.ptp.interval_ms, 1, INT64_MAX),
        ptp.int("quantization_ns", sc.ptp.quantization_ns, 1, INT64_MAX),
        ptp.int("convergence_rounds", sc.ptp.convergence_rounds, 0))
    drift = ptp.get("drift_ppm")
    ptp.close()

    nic = top.section("nic")
    sc.nic = NicSettings(nic.int("num_tx_queues", sc.nic.num_tx_queues, 1, MAX_TX_QUEUES),
                         nic.ints("time_aware_queues", sc.nic.time_aware_queues),
                         nic.int("queue_depth", sc.nic.queue_depth, 1))
    for q in sc.nic.time_aware_queues:
        if not 0 <= q < sc.nic.num_tx_queues:
            errors.append(f"{nic.at('time_aware_queues')}: queue {q} does not exist")
    nic.close()

    pm = top.section("priority_map")
    sc.priority_map = PriorityMap(pm.int("num_classes", sc.priority_map.num_classes),
                                  pm.ints("prio_to_tc", sc.priority_map.prio_to_tc),
                                  pm.ints("tc_to_queue", sc.priority_map.tc_to_queue))
    for e in validate_map(sc.priority_map, sc.nic.num_tx_queues, sc.nic.time_aware_queues):
        errors.append(f"{pm.path}: {e}")
    pm.close()

    sc.duration_ns = top.int("duration_ns", sc.duration_ns, 1, INT64_MAX)
    sc.seed = top.int("seed", sc.seed)
    sc.trace = top.bool("trace", sc.trace)
    schedules, faults, flows = top.items("schedules"), top.items("faults"), top.items("flows")
    top.close()

    if errors:
        raise ScenarioError(errors)

    topo = sc.build_fabric()
    if sc.ptp.enabled and sc.ptp.grandmaster is not None and not topo.has_node(sc.ptp.grandmaster):
        errors.append(f"{ptp.at('grandmaster')}: {sc.ptp.grandmaster} is not a populated node")
    sc.drift_spec = _drift(drift, topo, ptp.at("drift_ppm"), errors)

    for s in schedules:
        node, port = s.node("node"), s.get("port", "external")
        path, entries = s.at("entries"), []
        for j, e in enumerate(_expect(s.get("entries", []), list, path, errors)):
            entries.append(_ints(e, f"{path}[{j}]", errors))
            if len(entries[-1]) != 2:
                raise _malformed(e, "[queue, slot_us]", f"{path}[{j}]", errors)
            _int(entries[-1][1], f"{path}[{j}][1]", errors, hi=INT64_MAX)
        entries = tuple(entries)
        window = s.int("window_us", DEFAULT_WINDOW_US, hi=INT64_MAX)
        guard = s.int("guardband_ns", None, hi=INT64_MAX, null=True)
        s.close()
        try:
            port = PortKind(port)
        except ValueError:
            errors.append(f"{s.at('port')}: {port!r} is not a port kind")
            continue
        if node is None:
            continue
        if not topo.has_node(node):
            errors.append(f"{s.at('node')}: {node} is not populated")
            continue
        if topo.ports[node][port] is None:
            errors.append(f"{s.path}: node {node} port {port.value} is not connected")
            continue
        committed = default_guardband_ns(sc.rate_bps) if guard is None else guard  # as set_conf
        for e in validate_schedule(window, entries, committed, sc.nic.num_tx_queues):
            errors.append(f"{s.path} (node {node} port {port.value}): {e}")
        sc.schedules.append((node, ScheduleConfig(port, window, entries, guard)))

    for f in faults:
        a, b = f.node("a"), f.node("b")
        t, state = f.int("time_ns", 0, hi=INT64_MAX), f.get("state", "down")
        f.close()
        if a is None or b is None:
            continue
        if topo.link_between(a, b) is None:
            errors.append(f"{f.path}: no link between {a} and {b}")
            continue
        if not 0 <= t <= sc.duration_ns:
            errors.append(f"{f.at('time_ns')}: {t} outside the run duration")
        if state not in ("up", "down"):
            errors.append(f"{f.at('state')}: {state!r} must be 'up' or 'down'")
            continue
        sc.faults.append(FaultSpec(a, b, t, state == "up"))

    for f in flows:
        src, dst = f.node("src"), f.node("dst")
        spec = FlowSpec(src, dst, f.int("pcp", 0, 0, 7), f.int("start", 0, hi=INT64_MAX),
                        f.int("stop", None, hi=INT64_MAX, null=True),
                        f.bool("backlogged", False),
                        f.int("offered_rate_bps", None, 1, INT64_MAX, null=True),
                        f.int("frame_payload_bytes", MAX_CHUNK, 1, MAX_CHUNK))
        f.close()
        if src is None or dst is None:
            continue
        if not topo.has_node(src):
            errors.append(f"{f.at('src')}: {src} is not populated")
            continue
        if not topo.has_node(dst):
            errors.append(f"{f.at('dst')}: {dst} is not populated")
            continue
        if src == dst:
            errors.append(f"{f.path}: src and dst must differ")
            continue
        if spec.start < 0 or spec.start >= sc.duration_ns:
            errors.append(f"{f.at('start')}: {spec.start} outside the run duration")
        if spec.stop is not None and not spec.start < spec.stop <= sc.duration_ns:
            errors.append(f"{f.at('stop')}: {spec.stop} must be in (start, duration]")
        if spec.backlogged == (spec.offered_rate_bps is not None):
            errors.append(f"{f.path}: exactly one of backlogged/offered_rate_bps required")
        sc.flows.append(spec)

    if errors:
        raise ScenarioError(errors)
    return sc


def load_scenario(path: str | Path) -> Scenario:
    data = Path(path).read_bytes()
    try:
        # decoded here, not by json.loads, which would also take UTF-16 and UTF-32
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, bad JSON, an integer over Python's digit
        # limit, or nesting deeper than the recursion limit
        raise ScenarioError([f"{path}: not readable as JSON ({exc})"]) from exc
    if not isinstance(doc, dict):
        raise ScenarioError([f"{path}: top level must be an object"])
    return parse_scenario(doc)
