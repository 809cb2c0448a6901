"""Scenario files: the key table, validation, defaults and the provenance digest.

``KEYS`` declares each key of the format once, by section and by item: its
name, reader, default and bounds.  ``parse_scenario`` reads the document
through it, ``canonical_dict`` writes the digest form from it, ``Scenario()``
takes its defaults from it, and each value type (``GridSpec``,
``HostSettings``, ``PtpSettings``, ``NicSettings``, ``FaultSpec``,
``FlowSpec``) has a field for each key of its table.  A parsed ``Scenario`` is
the only configuration a ``Network`` is built from.

JSON is the reference encoding; node ids are 4-element arrays [Grc, Gcc,
Lrc, Lcc] or dotted strings "Grc.Gcc.Lrc.Lcc".  What a table cannot say is
code after the read: the ``grid``'s ``tile_plus_two`` preset or its
dimensions and ``populated`` subset, the free-form ``ptp.drift_ppm``, and the
checks across fields (the topology builds, the priority map is acceptable,
each port has at most one committable schedule, times fall within the run,
and flows and faults name populated nodes and existing links).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import namedtuple
from pathlib import Path

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


# Each key of the format, once: (key, reader, default[, lo[, hi]]), by section
# ("" is the top level) and by item of a list, in the order the keys are read.
# A reader is "int"; "int?", an int or null; "ints", a list of ints; "slots",
# a list of [queue, slot_us]; "bool"; "node", a node id; "node?", a node id
# or null; or "json", any value, which the code after the read checks.  A
# missing key reads as its default would, and hi=INT64_MAX marks a time or rate.
DEFAULT_MAP = PriorityMap()
KEYS = {
    "grid": (("G_r", "int", 1), ("G_c", "int", 1),
             ("populated", "json", None),  # None: every position of the grid
             ("preset", "json", None)),
    "link": (("rate_bps", "int", DEFAULT_LINK_RATE_BPS, 1, INT64_MAX),
             ("prop_delay_ns", "int", DEFAULT_PROP_DELAY_NS, 0, INT64_MAX)),
    "host": (("injection_cap_bps", "int?", 2_250_000_000, 0, INT64_MAX),  # 0 or None: uncapped
             ("processing_delay_ns", "int", 10_000, 0, INT64_MAX)),
    "ptp": (("enabled", "bool", True),
            ("grandmaster", "node?", None),  # None: lowest populated id
            ("interval_ms", "int", 250, 1, INT64_MAX),
            ("quantization_ns", "int", 8, 1, INT64_MAX),
            ("convergence_rounds", "int", 10, 0),
            ("drift_ppm", "json", None)),  # None (seeded 10 ppm), number, or mapping
    "nic": (("num_tx_queues", "int", 8, 1, MAX_TX_QUEUES),
            ("time_aware_queues", "ints", (0, 1, 2)),
            ("queue_depth", "int", 1024, 1)),
    "priority_map": (("num_classes", "int", DEFAULT_MAP.num_classes),
                     ("prio_to_tc", "ints", DEFAULT_MAP.prio_to_tc),
                     ("tc_to_queue", "ints", DEFAULT_MAP.tc_to_queue)),
    "": (("duration_ns", "int", 1_000_000_000, 1, INT64_MAX), ("seed", "int", 0),
         ("trace", "bool", False)),
    "schedules": (("node", "node", None), ("port", "json", "external"), ("entries", "slots", ()),
                  ("window_us", "int", DEFAULT_WINDOW_US, None, INT64_MAX),
                  ("guardband_ns", "int?", None, None, INT64_MAX)),  # None: the port default
    "faults": (("a", "node", None), ("b", "node", None),
               ("time_ns", "int", 0, None, INT64_MAX), ("state", "json", "down")),
    "flows": (("src", "node", None), ("dst", "node", None), ("pcp", "int", 0, 0, 7),
              ("start", "int", 0, None, INT64_MAX),
              ("stop", "int?", None, None, INT64_MAX),  # None runs to the scenario end
              ("backlogged", "bool", False),
              ("offered_rate_bps", "int?", None, 1, INT64_MAX),
              ("frame_payload_bytes", "int", MAX_CHUNK, 1, MAX_CHUNK)),
}
DEFAULTS = {name: tuple(entry[2] for entry in keys) for name, keys in KEYS.items()}


class _Object:
    """One JSON object of a scenario document at ``path`` (``""``, ``"link"``, ``"flows[3]"``).
    Every read records its key, and ``close`` names each key that nothing read."""

    __slots__ = ("value", "path", "errors", "seen")

    def __init__(self, value, path: str, errors: list[str]):
        self.value = _expect(value, dict, path, errors)
        self.path = path
        self.errors = errors
        self.seen: set[str] = set()

    def at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, default=None):
        self.seen.add(key)
        return self.value.get(key, default)

    def read(self, key: str, reader: str, default, *bounds):
        """``key`` as ``reader`` reads it; see ``KEYS``."""
        value = self.get(key, list(default) if isinstance(default, tuple) else default)
        path = self.at(key)
        if reader == "json" or (value is None and reader[-1] == "?"):
            return value
        if reader == "bool":
            if not isinstance(value, bool):
                raise _malformed(value, "a boolean", path, self.errors)
            return value
        if reader[:4] == "node":
            return _parse_node(value, path, self.errors)
        if reader == "ints":
            return _ints(value, path, self.errors)
        if reader == "slots":
            slots = []
            for j, e in enumerate(_expect(value, list, path, self.errors)):
                slots.append(_ints(e, f"{path}[{j}]", self.errors))
                if len(slots[-1]) != 2:
                    raise _malformed(e, "[queue, slot_us]", f"{path}[{j}]", self.errors)
                _int(slots[-1][1], f"{path}[{j}][1]", self.errors, hi=INT64_MAX)
            return tuple(slots)
        return _int(value, path, self.errors, *bounds)

    def fields(self, name: str) -> tuple:
        """The value of each key of ``KEYS[name]``, in its order."""
        return tuple(self.read(*entry) for entry in KEYS[name])

    def section(self, key: str) -> "_Object":
        return _Object(self.get(key, {}), self.at(key), self.errors)

    def items(self, key: str) -> list["_Object"]:
        path = self.at(key)
        return [_Object(item, f"{path}[{i}]", self.errors)
                for i, item in enumerate(_expect(self.get(key, []), list, path, self.errors))]

    def close(self) -> None:
        self.errors.extend(f"{self.at(key)}: unexpected key"
                           for key in self.value if key not in self.seen)


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


def _drift(spec, topo: Topology, path: str, errors: list[str]) -> None:
    """Checks that ``Scenario.resolve_drift`` can read all of ``spec``: a number,
    ``{"seeded_max_ppm": x}`` with x >= 0, or ``default`` and populated node
    ids; every value within the servo's range."""
    if spec is None:
        return
    if _number(spec):
        _drift_bounded(spec, path, errors)
        return
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


def _value_type(name: str, keys: tuple) -> type:
    """An immutable value with a field for each of ``keys``, the table of a section or
    an item; the table's readers give the fields' types."""
    return namedtuple(name, [key for key, *_ in keys])


GridSpec = _value_type("GridSpec", KEYS["grid"])
HostSettings = _value_type("HostSettings", KEYS["host"])
PtpSettings = _value_type("PtpSettings", KEYS["ptp"][:-1])  # drift_ppm is Scenario.drift_spec
NicSettings = _value_type("NicSettings", KEYS["nic"])
FaultSpec = _value_type("FaultSpec", KEYS["faults"])
FlowSpec = _value_type("FlowSpec", KEYS["flows"])
TILE_PLUS_TWO = GridSpec(1, 3, None, "tile_plus_two")


def _json(value):
    """``value`` as the canonical form writes it: a node id as its dotted string, a tuple
    as a list."""
    if isinstance(value, NodeId):
        return str(value)
    return [_json(v) for v in value] if isinstance(value, tuple) else value


def _canonical(name: str, values):
    """Each key of ``KEYS[name]`` with its value in ``values``; a list holds items."""
    if isinstance(values, list):
        return [_canonical(name, item) for item in values]
    return {entry[0]: _json(value) for entry, value in zip(KEYS[name], values)}


class Scenario:
    __slots__ = ("grid", "rate_bps", "prop_delay_ns", "host", "ptp", "drift_spec", "nic",
                 "priority_map", "schedules", "faults", "flows", "duration_ns", "seed", "trace")

    def __init__(self, sections: dict[str, tuple] = DEFAULTS) -> None:
        """``sections``: the values of each section, in the order of its ``KEYS`` table."""
        self.grid = GridSpec(*sections["grid"])
        self.rate_bps, self.prop_delay_ns = sections["link"]
        cap, delay = sections["host"]
        self.host = HostSettings(cap or None, delay)  # an injection cap of 0 is uncapped
        *ptp, self.drift_spec = sections["ptp"]
        self.ptp = PtpSettings(*ptp)
        self.nic = NicSettings(*sections["nic"])
        self.priority_map = PriorityMap(*sections["priority_map"])
        self.duration_ns, self.seed, self.trace = sections[""]
        self.schedules: list[tuple[NodeId, ScheduleConfig]] = []
        self.faults: list[FaultSpec] = []
        self.flows: list[FlowSpec] = []

    def build_fabric(self) -> Topology:
        if self.grid == TILE_PLUS_TWO:
            return tile_plus_two_nodes(self.rate_bps, self.prop_delay_ns)
        return build_topology(self.grid.G_r, self.grid.G_c,
                              self.rate_bps, self.prop_delay_ns,
                              populated=self.grid.populated)

    def canonical_dict(self) -> dict:
        """Every key of ``KEYS`` with its value, defaults filled in; used for the digest."""
        sections = {"grid": self.grid, "link": (self.rate_bps, self.prop_delay_ns),
                    "host": self.host, "ptp": (*self.ptp, self.drift_spec), "nic": self.nic,
                    "priority_map": self.priority_map, "faults": self.faults, "flows": self.flows,
                    "schedules": [(node, cfg.port.value, cfg.entries, cfg.window_us,
                                   cfg.guardband_ns) for node, cfg in self.schedules]}
        return {**_canonical("", (self.duration_ns, self.seed, self.trace)),
                **{name: _canonical(name, values) for name, values in sections.items()}}

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


def _grid(grid: _Object) -> GridSpec:
    """A preset, beside which only its own dimensions may stand (as the canonical
    form writes them), or dimensions and an optional list of populated nodes."""
    *shape, preset = KEYS["grid"]
    name = grid.read(*preset)
    if name == TILE_PLUS_TWO.preset:
        for (key, *_), own in zip(shape, TILE_PLUS_TWO):
            value = grid.value.get(key, own)
            if value == own and not isinstance(value, bool):
                grid.get(key)
        return TILE_PLUS_TWO
    if name:
        grid.errors.append(f"{grid.at('preset')}: unknown preset {name!r}")
        return TILE_PLUS_TWO  # unused: the errors end the parse
    g_r, g_c, listed = (grid.read(*entry) for entry in shape)
    if not (1 <= g_r <= MAX_GRID_DIM and 1 <= g_c <= MAX_GRID_DIM):
        grid.errors.append(f"{grid.path}: dimensions {g_r}x{g_c} must be in 1..{MAX_GRID_DIM}")
        g_r, g_c = (min(max(d, 1), MAX_GRID_DIM) for d in (g_r, g_c))
    if listed is None:
        return GridSpec(g_r, g_c, None, None)
    path, populated = grid.at("populated"), []
    for i, v in enumerate(_expect(listed, list, path, grid.errors)):
        n = _parse_node(v, f"{path}[{i}]", grid.errors)
        if n is None:
            continue
        if not (0 <= n.grc < g_r and 0 <= n.gcc < g_c and n.lrc in (0, 1) and n.lcc in (0, 1)):
            grid.errors.append(f"{path}[{i}]: {n} is outside the {g_r}x{g_c} grid")
            continue
        if n in populated:
            grid.errors.append(f"{path}[{i}]: {n} is already listed")
            continue
        populated.append(n)
    if not listed:
        grid.errors.append(f"{path}: must name at least one node")
    return GridSpec(g_r, g_c, tuple(populated), None)


def parse_scenario(doc: dict) -> Scenario:
    """Validate a decoded scenario document; raises ScenarioError.

    A key the document leaves out reads as its default in ``KEYS``, and a key
    that ``KEYS`` does not name is an error."""
    errors: list[str] = []
    top = _Object(doc, "", errors)
    grid = top.section("grid")
    sections = {"grid": _grid(grid)}
    grid.close()
    for name in ("link", "host", "ptp"):
        section = top.section(name)
        sections[name] = section.fields(name)
        section.close()

    nic = top.section("nic")
    sections["nic"] = settings = NicSettings(*nic.fields("nic"))
    errors.extend(f"{nic.at('time_aware_queues')}: queue {q} does not exist"
                  for q in settings.time_aware_queues if not 0 <= q < settings.num_tx_queues)
    nic.close()
    pm = top.section("priority_map")
    sections["priority_map"] = pmap = PriorityMap(*pm.fields("priority_map"))
    errors.extend(f"{pm.path}: {e}"
                  for e in validate_map(pmap, settings.num_tx_queues, settings.time_aware_queues))
    pm.close()

    sections[""] = top.fields("")
    schedules, faults, flows = top.items("schedules"), top.items("faults"), top.items("flows")
    top.close()

    if errors:
        raise ScenarioError(errors)

    sc = Scenario(sections)
    topo = sc.build_fabric()
    if sc.ptp.enabled and sc.ptp.grandmaster is not None and not topo.has_node(sc.ptp.grandmaster):
        errors.append(f"ptp.grandmaster: {sc.ptp.grandmaster} is not a populated node")
    _drift(sc.drift_spec, topo, "ptp.drift_ppm", errors)

    scheduled: dict[tuple[NodeId, PortKind], str] = {}  # the path of each port's schedule
    for s in schedules:
        node, port, entries, window, guard = s.fields("schedules")
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
        if (node, port) in scheduled:
            errors.append(f"{s.path}: node {node} port {port.value} is already scheduled by"
                          f" {scheduled[node, port]}")
            continue
        scheduled[node, port] = s.path
        committed = default_guardband_ns(sc.rate_bps) if guard is None else guard  # as set_conf
        for e in validate_schedule(window, entries, committed, sc.nic.num_tx_queues):
            errors.append(f"{s.path} (node {node} port {port.value}): {e}")
        sc.schedules.append((node, ScheduleConfig(port, window, entries, guard)))

    for f in faults:
        a, b, t, state = f.fields("faults")
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
        sc.faults.append(FaultSpec(a, b, t, state))

    for f in flows:
        spec = FlowSpec(*f.fields("flows"))
        f.close()
        if spec.src is None or spec.dst is None:
            continue
        if not topo.has_node(spec.src):
            errors.append(f"{f.at('src')}: {spec.src} is not populated")
            continue
        if not topo.has_node(spec.dst):
            errors.append(f"{f.at('dst')}: {spec.dst} is not populated")
            continue
        if spec.src == spec.dst:
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
