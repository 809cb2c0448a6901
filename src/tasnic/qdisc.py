"""Priority -> traffic class -> TX queue mapping.

Mirrors the kernel queueing-discipline setup: both maps are 1-to-1, the
mapped queues must belong to the NIC's time-aware group, and priorities
above the mapped range clamp to the highest class.  Priority 0 is the
lowest and is also where untagged traffic lands.
"""

from __future__ import annotations

from typing import NamedTuple


class PriorityMap(NamedTuple):
    num_classes: int = 3
    prio_to_tc: tuple[int, ...] = (0, 1, 2)
    tc_to_queue: tuple[int, ...] = (0, 1, 2)


def classify(pcp: int, pmap: PriorityMap) -> int:
    """Total, deterministic pcp -> queue mapping (out-of-range pcp clamps)."""
    prio = min(max(pcp, 0), pmap.num_classes - 1)
    return pmap.tc_to_queue[pmap.prio_to_tc[prio]]


def validate_map(pmap: PriorityMap, num_tx_queues: int,
                 time_aware_queues: tuple[int, ...]) -> list[str]:
    """Returns a list of violations; empty means the map is acceptable."""
    errors: list[str] = []
    if not 1 <= pmap.num_classes <= 8:
        errors.append(f"num_classes={pmap.num_classes} not in 1..8")
        return errors
    if len(pmap.prio_to_tc) != pmap.num_classes:
        errors.append(f"prio_to_tc has {len(pmap.prio_to_tc)} entries, expected {pmap.num_classes}")
    if len(pmap.tc_to_queue) != pmap.num_classes:
        errors.append(f"tc_to_queue has {len(pmap.tc_to_queue)} entries, expected {pmap.num_classes}")
    if errors:
        return errors
    seen_tc: dict[int, int] = {}
    for prio, tc in enumerate(pmap.prio_to_tc):
        if not 0 <= tc < pmap.num_classes:
            errors.append(f"prio_to_tc[{prio}]={tc} is not a traffic class")
        elif tc in seen_tc:
            errors.append(f"prio_to_tc[{prio}]={tc} already used by priority {seen_tc[tc]} (not 1-to-1)")
        else:
            seen_tc[tc] = prio
    seen_q: dict[int, int] = {}
    for tc, q in enumerate(pmap.tc_to_queue):
        if not 0 <= q < num_tx_queues:
            errors.append(f"tc_to_queue[{tc}]={q} references a nonexistent queue (have {num_tx_queues})")
            continue
        if q in seen_q:
            errors.append(f"tc_to_queue[{tc}]={q} already used by class {seen_q[q]} (not 1-to-1)")
        else:
            seen_q[q] = tc
        if q not in time_aware_queues:
            errors.append(f"tc_to_queue[{tc}]={q} maps onto a queue outside the time-aware group")
    return errors
