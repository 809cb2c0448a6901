from hypothesis import given
from hypothesis import strategies as st

from tasnic.qdisc import PriorityMap, classify, validate_map


def test_three_class_identity_mapping():
    assert classify(2, PriorityMap()) == 2
    assert classify(1, PriorityMap()) == 1


def test_priority_zero_is_lowest_queue():
    assert classify(0, PriorityMap()) == 0


def test_out_of_range_priority_clamps_to_top_class():
    assert classify(7, PriorityMap()) == 2
    assert classify(3, PriorityMap()) == 2


def test_permuted_maps_compose():
    pmap = PriorityMap(num_classes=3, prio_to_tc=(2, 0, 1), tc_to_queue=(1, 2, 0))
    # pcp 0 -> tc 2 -> queue 0, pcp 1 -> tc 0 -> queue 1, pcp 2 -> tc 1 -> queue 2
    assert [classify(p, pmap) for p in range(3)] == [0, 1, 2]


@given(st.integers(min_value=0, max_value=7))
def test_classify_total_and_deterministic(pcp):
    q1 = classify(pcp, PriorityMap())
    q2 = classify(pcp, PriorityMap())
    assert q1 == q2
    assert 0 <= q1 < 3


def test_distinct_mapped_priorities_get_distinct_queues():
    pmap = PriorityMap(num_classes=3, prio_to_tc=(1, 2, 0), tc_to_queue=(2, 0, 1))
    queues = [classify(p, pmap) for p in range(pmap.num_classes)]
    assert len(set(queues)) == pmap.num_classes


def test_validate_identity_map_ok():
    assert validate_map(PriorityMap(), 8, (0, 1, 2)) == []


def test_validate_rejects_non_injective_prio_map():
    pmap = PriorityMap(num_classes=3, prio_to_tc=(0, 0, 1), tc_to_queue=(0, 1, 2))
    errors = validate_map(pmap, 8, (0, 1, 2))
    assert any("not 1-to-1" in e for e in errors)


def test_validate_rejects_nonexistent_queue():
    pmap = PriorityMap(num_classes=3, prio_to_tc=(0, 1, 2), tc_to_queue=(0, 1, 99))
    errors = validate_map(pmap, 8, (0, 1, 2))
    assert any("nonexistent" in e for e in errors)


def test_validate_rejects_queue_outside_time_aware_group():
    pmap = PriorityMap(num_classes=3, prio_to_tc=(0, 1, 2), tc_to_queue=(0, 1, 5))
    errors = validate_map(pmap, 8, (0, 1, 2))
    assert any("time-aware" in e for e in errors)


def test_validate_rejects_wrong_lengths():
    pmap = PriorityMap(num_classes=3, prio_to_tc=(0, 1), tc_to_queue=(0, 1, 2))
    errors = validate_map(pmap, 8, (0, 1, 2))
    assert errors
