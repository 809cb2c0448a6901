import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasnic.fabric import NodeId, abs_coords, mac_of
from tasnic.harness import build_network, run_scenario
from tasnic.nic import MAX_SCHEDULE_ENTRIES, default_guardband_ns
from tasnic.runtime import ScheduleConfig
from tasnic.scenario import (
    INT64_MAX,
    KEYS,
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
)

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted((ROOT / "scenarios").glob("*.json"))
SHIPPED_DOCS = [json.loads(path.read_text()) for path in SHIPPED]


def minimal_doc(**overrides):
    doc = {
        "grid": {"G_r": 1, "G_c": 1},
        "flows": [{"src": "0.0.0.0", "dst": "0.0.0.1", "pcp": 0,
                   "offered_rate_bps": 1_000_000}],
        "duration_ns": 1_000_000,
    }
    doc.update(overrides)
    return doc


def test_minimal_scenario_fills_defaults():
    sc = parse_scenario(minimal_doc())
    assert sc.rate_bps == 10_000_000_000
    assert sc.prop_delay_ns == 500
    assert sc.host.injection_cap_bps == 2_250_000_000
    assert sc.host.processing_delay_ns == 10_000
    assert sc.ptp.enabled and sc.ptp.interval_ms == 250 and sc.ptp.quantization_ns == 8
    assert sc.nic.num_tx_queues == 8
    assert sc.priority_map.num_classes == 3
    assert sc.seed == 0
    assert len(sc.flows) == 1


def test_an_empty_document_is_the_default_scenario():
    assert parse_scenario({}).canonical_dict() == Scenario().canonical_dict()


# Every field that a document can set, each away from its default.
EVERY_FIELD_DOC = {
    "grid": {"G_r": 2, "G_c": 2, "populated": ["0.0.0.0", "0.0.0.1", "0.0.1.1", "0.1.1.1"]},
    "link": {"rate_bps": 25_000_000_000, "prop_delay_ns": 700},
    "host": {"injection_cap_bps": 5_000_000_000, "processing_delay_ns": 4_000},
    "ptp": {"enabled": False, "grandmaster": "0.0.1.1", "interval_ms": 125,
            "quantization_ns": 4, "convergence_rounds": 6,
            "drift_ppm": {"default": 1.5, "0.0.0.1": -2.0, "0.1.1.1": 3}},
    "nic": {"num_tx_queues": 16, "time_aware_queues": [1, 3, 5, 7], "queue_depth": 256},
    "priority_map": {"num_classes": 4, "prio_to_tc": [3, 2, 1, 0], "tc_to_queue": [1, 3, 5, 7]},
    "schedules": [{"node": "0.0.0.0", "port": "intra_h", "window_us": 50,
                   "entries": [[1, 20], [3, 10]], "guardband_ns": 900}],
    "faults": [{"a": "0.0.0.0", "b": "0.0.0.1", "time_ns": 300_000, "state": "up"}],
    "flows": [{"src": "0.0.0.0", "dst": "0.1.1.1", "pcp": 2, "start": 1_000, "stop": 400_000,
               "offered_rate_bps": 2_000_000, "frame_payload_bytes": 256},
              {"src": "0.0.1.1", "dst": "0.0.0.1", "pcp": 3, "start": 5, "backlogged": True,
               "frame_payload_bytes": 100}],
    "duration_ns": 500_000,
    "seed": 7,
    "trace": True,
}


def test_digest_of_a_document_that_sets_every_field_is_pinned():
    # a change to how the canonical form is written must leave its bytes alone
    sc = parse_scenario(EVERY_FIELD_DOC)
    assert sc.digest() == "143e047ac8cfa740ff8e59224dc4f7de244e7a3d4a059e2a12a259ffb7c36cfa"
    fields, default = sc.canonical_dict(), Scenario().canonical_dict()
    at_default = [name for name in fields if fields[name] == default[name]]
    at_default += [f"{name}.{key}" for name, value in fields.items() if isinstance(value, dict)
                   for key in value if value[key] == default[name][key]]
    assert at_default == ["grid.preset"]  # a preset grid takes no populated list


def test_integral_float_is_an_integer():
    sc = parse_scenario(minimal_doc(duration_ns=1e6, link={"rate_bps": 1e10}))
    assert sc.duration_ns == 1_000_000 and type(sc.duration_ns) is int
    assert sc.rate_bps == 10_000_000_000 and type(sc.rate_bps) is int


def test_time_and_rate_fields_take_int64_max():
    sc = parse_scenario(minimal_doc(
        duration_ns=INT64_MAX, link={"rate_bps": INT64_MAX, "prop_delay_ns": INT64_MAX},
        flows=[{"src": "0.0.0.0", "dst": "0.0.0.1", "offered_rate_bps": INT64_MAX}]))
    assert sc.duration_ns == sc.rate_bps == sc.flows[0].offered_rate_bps == INT64_MAX
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal_doc(link={"prop_delay_ns": INT64_MAX + 1}))
    assert err.value.errors == [f"link.prop_delay_ns: {INT64_MAX + 1} is above 2**63 - 1"]


def test_largest_grid_is_128_tiles_per_side():
    # the last row's absolute coordinate, 2*127+1, is the largest MAC byte
    sc = parse_scenario(minimal_doc(grid={"G_r": 128, "G_c": 1, "populated": ["127.0.1.1"]},
                                    flows=[]))
    node = build_network(sc).nodes[NodeId(127, 0, 1, 1)]
    assert mac_of(abs_coords(node.node_id))[4] == 255


def test_oversubscribed_schedule_names_the_port():
    doc = minimal_doc(schedules=[{"node": "0.0.0.0", "port": "intra_h",
                                  "window_us": 100,
                                  "entries": [[0, 90], [1, 30]]}])
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert any("intra_h" in e and "exceeding" in e for e in err.value.errors)


def test_unknown_flow_destination_names_the_flow():
    doc = minimal_doc(flows=[{"src": "0.0.0.0", "dst": "3.3.0.0",
                              "offered_rate_bps": 1}])
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert any(e.startswith("flows[0]") for e in err.value.errors)


def test_flow_needs_exactly_one_rate_mode():
    doc = minimal_doc(flows=[{"src": "0.0.0.0", "dst": "0.0.0.1"}])
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert any("backlogged" in e for e in err.value.errors)


def test_fault_must_reference_an_existing_link():
    # a single tile is fully connected, so use a 1x2 grid and a diagonal pair
    doc = minimal_doc(grid={"G_r": 1, "G_c": 2},
                      faults=[{"a": "0.0.0.0", "b": "0.1.0.1", "time_ns": 10}])
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert any("no link" in e for e in err.value.errors)


@st.composite
def schedule_documents(draw):
    """A schedule of 1..16 entries on distinct queues whose slots fit the window."""
    count = draw(st.integers(1, MAX_SCHEDULE_ENTRIES))
    queues = draw(st.permutations(range(MAX_SCHEDULE_ENTRIES)))[:count]
    slots = draw(st.lists(st.integers(1, 60), min_size=count, max_size=count))
    return {"node": draw(st.sampled_from(["0.0.0.0", "0.0.0.1", "0.0.1.0", "0.0.1.1"])),
            "port": draw(st.sampled_from(["intra_h", "intra_v"])),
            "window_us": sum(slots) + draw(st.integers(0, 100)),
            "entries": [[q, slot] for q, slot in zip(queues, slots)],
            "guardband_ns": draw(st.none() | st.integers(0, 5_000))}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(schedule_documents())
def test_a_schedule_is_one_value_from_scenario_to_get_conf(schedule):
    sc = parse_scenario(minimal_doc(
        ptp={"enabled": False}, nic={"num_tx_queues": MAX_SCHEDULE_ENTRIES},
        schedules=[schedule], duration_ns=1_000))
    [(node_id, cfg)] = sc.schedules
    assert isinstance(cfg, ScheduleConfig)
    got = run_scenario(sc).network.nodes[node_id].runtime.get_conf(cfg.port)
    guard = cfg.guardband_ns
    if guard is None:
        guard = default_guardband_ns(sc.rate_bps)
    assert got == ScheduleConfig(cfg.port, cfg.window_us, cfg.entries, guard)


def test_tile_plus_two_preset_builds_six_nodes():
    doc = {
        "grid": {"preset": "tile_plus_two"},
        "flows": [{"src": "0.0.1.1", "dst": "0.2.0.0", "backlogged": True}],
        "duration_ns": 1_000_000,
    }
    sc = parse_scenario(doc)
    topo = sc.build_fabric()
    assert len(topo.nodes) == 6
    assert topo.has_node(NodeId(0, 2, 0, 0))


def test_digest_is_stable_and_seed_sensitive():
    a = parse_scenario(minimal_doc())
    b = parse_scenario(minimal_doc())
    c = parse_scenario(minimal_doc(seed=5))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_drift_forms():
    sc = parse_scenario(minimal_doc(ptp={"drift_ppm": 4.5}))
    topo = sc.build_fabric()
    drift = sc.resolve_drift(topo)
    assert all(v == 4.5 for v in drift.values())

    sc = parse_scenario(minimal_doc(ptp={"drift_ppm": {"seeded_max_ppm": 10}}))
    d1 = sc.resolve_drift(topo)
    d2 = sc.resolve_drift(topo)
    assert d1 == d2
    assert all(abs(v) <= 10 for v in d1.values())

    sc = parse_scenario(minimal_doc(
        ptp={"drift_ppm": {"default": 1.0, "0.0.0.1": -3.0}}))
    d = sc.resolve_drift(topo)
    assert d[NodeId(0, 0, 0, 1)] == -3.0
    assert d[NodeId(0, 0, 0, 0)] == 1.0


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(minimal_doc()))
    sc = load_scenario(path)
    assert sc.duration_ns == 1_000_000


def test_load_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_grandmaster_must_be_populated():
    doc = {
        "grid": {"preset": "tile_plus_two"},
        "ptp": {"grandmaster": "0.0.0.0"},
        "flows": [{"src": "0.0.1.1", "dst": "0.2.0.0", "backlogged": True}],
        "duration_ns": 1_000_000,
    }
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert any("grandmaster" in e for e in err.value.errors)


# -- fuzzing -------------------------------------------------------------------

# A document that uses every section; the fuzz below replaces parts of it.
FULL_DOC = {
    "grid": {"G_r": 1, "G_c": 2},
    "link": {"rate_bps": 10_000_000_000, "prop_delay_ns": 500},
    "host": {"injection_cap_bps": 2_250_000_000, "processing_delay_ns": 10_000},
    "ptp": {"enabled": True, "grandmaster": "0.0.0.0", "interval_ms": 250,
            "quantization_ns": 8, "convergence_rounds": 10,
            "drift_ppm": {"default": 1.0, "0.0.0.1": 2.0}},
    "nic": {"num_tx_queues": 8, "time_aware_queues": [0, 1, 2], "queue_depth": 1024},
    "priority_map": {"num_classes": 3, "prio_to_tc": [0, 1, 2], "tc_to_queue": [0, 1, 2]},
    "schedules": [{"node": "0.0.0.0", "port": "intra_h", "window_us": 100,
                   "entries": [[0, 50], [1, 30]], "guardband_ns": 1300}],
    "faults": [{"a": "0.0.0.0", "b": "0.0.0.1", "time_ns": 500, "state": "down"}],
    "flows": [{"src": "0.0.0.0", "dst": "0.1.1.1", "pcp": 1, "start": 0, "stop": 900,
               "offered_rate_bps": 1_000_000, "frame_payload_bytes": 64},
              {"src": [0, 0, 0, 1], "dst": "0.1.0.0", "backlogged": True}],
    "duration_ns": 1_000,
    "seed": 1,
    "trace": False,
}
FIELD_KEYS = sorted({key for value in FULL_DOC.values() if isinstance(value, dict)
                     for key in value} | {"populated", "preset", "seeded_max_ppm"})
# small integers keep fuzzed grids small; the extremes probe the bounds
json_scalars = (st.none() | st.booleans() | st.integers(-3, 12)
                | st.sampled_from([2**63 - 1, 2**63, -2**63, 10**30]) | st.floats()
                | st.sampled_from(["0.0.0.0", "0.0.0.1", "0.1.1.1", "1.0.0.0", "intra_h",
                                   "intra_v", "external", "mgmt", "up", "down",
                                   "tile_plus_two", "1.5", "x", ""]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.sampled_from(FIELD_KEYS),
                                                                inner, max_size=6),
    max_leaves=10)


def _replace_part(draw, value):
    """``value`` with one part, at a random depth, replaced by arbitrary JSON."""
    descend = draw(st.integers(0, 3)) > 0
    if isinstance(value, dict) and value and descend:
        key = draw(st.sampled_from([*value, *FIELD_KEYS]))
        return {**value, key: _replace_part(draw, value.get(key))}
    if isinstance(value, list) and value and descend:
        i = draw(st.integers(0, len(value) - 1))
        return [*value[:i], _replace_part(draw, value[i]), *value[i + 1:]]
    return draw(json_values)


@st.composite
def fuzzed_documents(draw):
    """``FULL_DOC`` with one to three parts of its sections replaced."""
    doc = FULL_DOC
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(list(FULL_DOC)))
        doc = {**doc, section: _replace_part(draw, doc[section])}
    return doc


def _prune(draw, value):
    """``value`` with some keys of its objects, at any depth, left out."""
    if isinstance(value, dict):
        return {key: _prune(draw, v) for key, v in value.items() if draw(st.booleans())}
    if isinstance(value, list):
        return [_prune(draw, v) for v in value]
    return value


@st.composite
def pruned_documents(draw):
    """A valid document with some of its keys left out, each then read as its default."""
    return _prune(draw, draw(st.sampled_from([FULL_DOC, EVERY_FIELD_DOC, *SHIPPED_DOCS])))


def test_full_fuzz_document_is_valid():
    assert len(parse_scenario(FULL_DOC).flows) == 2


def reparsed(sc: Scenario) -> Scenario:
    """``sc`` parsed again from its canonical form, as JSON writes it."""
    return parse_scenario(json.loads(json.dumps(sc.canonical_dict())))


@pytest.mark.parametrize("doc", [EVERY_FIELD_DOC, FULL_DOC, *SHIPPED_DOCS],
                         ids=["every_field", "full", *(path.stem for path in SHIPPED)])
def test_canonical_form_parses_back_to_the_same_digest(doc):
    # every key the digest form writes is a key the parser reads
    sc = parse_scenario(doc)
    assert reparsed(sc).digest() == sc.digest()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(fuzzed_documents() | pruned_documents()
       | st.dictionaries(st.sampled_from(list(FULL_DOC)), json_values))
def test_any_document_parses_or_is_a_scenario_error(doc):
    try:
        sc = parse_scenario(doc)
    except ScenarioError:
        return
    # a document that parses has a canonical form that parses to the same scenario
    again = reparsed(sc)
    assert again.canonical_dict() == sc.canonical_dict()
    assert again.digest() == sc.digest()


def test_readme_names_every_key_of_the_table():
    # the jsonc block under README's "Scenario files", comments included
    section = (ROOT / "README.md").read_text().split("## Scenario files", 1)[1]
    block = section.split("```jsonc", 1)[1].split("```", 1)[0]
    table = {name for name in KEYS if name} | {entry[0] for keys in KEYS.values() for entry in keys}
    assert set(re.findall(r'"(\w+)"\s*:', block)) == table | {"seeded_max_ppm"}
