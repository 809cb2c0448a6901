"""Deterministic simulator for time-aware NIC scheduling on a tiled torus fabric."""

from .clock import LocalClock, apply_servo, ptp_offset_estimate
from .engine import SchedulingError, Simulator, rng_stream
from .fabric import (
    GridCoord,
    Link,
    NodeId,
    PortKind,
    Topology,
    abs_coords,
    build_topology,
    decode_id,
    encode_id,
    ip_of,
    mac_of,
    tile_plus_two_nodes,
)
from .frame import Frame, crc32, serialization_ticks
from .harness import RunResult, build_network, emit_report, run_scenario
from .metrics import FlowRecorder
from .nic import NicPort, ScheduleTable, TokenBucket, TxQueue
from .node import Network, Node
from .qdisc import PriorityMap, classify, validate_map
from .routing import next_hop
from .runtime import FragmentHeader, NodeRuntime, ScheduleConfig
from .scenario import (
    HostSettings,
    NicSettings,
    PtpSettings,
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
)

__version__ = "0.1.0"
