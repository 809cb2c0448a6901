import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tasnic.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, name="s.json", **overrides):
    doc = {
        "grid": {"G_r": 1, "G_c": 1},
        "ptp": {"enabled": False},
        "flows": [{"src": "0.0.0.0", "dst": "0.0.0.1", "pcp": 0,
                   "offered_rate_bps": 100_000_000}],
        "duration_ns": 2_000_000,
        "seed": 4,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_validate_ok_exit_zero(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["validate", "--scenario", str(path)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_error_exit_one(tmp_path, capsys):
    path = write_scenario(tmp_path, flows=[{"src": "0.0.0.0", "dst": "9.9.9.9",
                                            "backlogged": True}])
    assert main(["validate", "--scenario", str(path)]) == 1
    assert "validation:" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"grid": {"G_r": "x"}}, "grid.G_r: 'x' is not an integer"),
    ({"flows": [1]}, "flows[0]: 1 is not an object"),
    ({"schedules": [{"node": "0.0.0.0", "port": "intra_h", "entries": [[0]]}]},
     "schedules[0].entries[0]: [0] is not [queue, slot_us]"),
    ({"nic": {"time_aware_queues": 5}}, "nic.time_aware_queues: 5 is not a list"),
    ({"ptp": {"drift_ppm": "x"}}, "ptp.drift_ppm: 'x' is not a number or an object"),
    ({"ptp": {"drift_ppm": {"seeded_max_ppm": "x"}}},
     "ptp.drift_ppm.seeded_max_ppm: 'x' is not a number"),
    ({"ptp": {"drift_ppm": {"default": 1.0, "0.0.0.1": [2]}}},
     "ptp.drift_ppm.0.0.0.1: [2] is not a number"),
    ({"ptp": {"drift_ppm": True}}, "ptp.drift_ppm: True is not a number or an object"),
    ({"ptp": {"drift_ppm": {"seeded_max_ppm": "5"}}},
     "ptp.drift_ppm.seeded_max_ppm: '5' is not a number"),
    ({"ptp": {"drift_ppm": {"default": "1e3"}}}, "ptp.drift_ppm.default: '1e3' is not a number"),
    ({"ptp": {"drift_ppm": {"0.0.0.1": True}}}, "ptp.drift_ppm.0.0.0.1: True is not a number"),
    ({"ptp": {"drift_ppm": {"0.0.0.9": 3.0}}},
     "ptp.drift_ppm: '0.0.0.9' is neither 'default' nor a populated node id"),
    ({"ptp": {"drift_ppm": {"Default": 4}}},
     "ptp.drift_ppm: 'Default' is neither 'default' nor a populated node id"),
    ({"ptp": {"drift_ppm": {"seeded_max_ppm": 10, "0.0.0.1": 5}}},
     "ptp.drift_ppm: '0.0.0.1' cannot stand beside 'seeded_max_ppm'"),
    ({"ptp": {"drift_ppm": -2e6}},
     "ptp.drift_ppm: -2000000.0 ppm exceeds the 200 ppm the clock servo can correct"),
    ({"ptp": {"drift_ppm": {"default": 1e300}}},
     "ptp.drift_ppm.default: 1e+300 ppm exceeds the 200 ppm the clock servo can correct"),
    ({"ptp": {"drift_ppm": {"default": 1.0, "0.0.0.1": -200.5}}},
     "ptp.drift_ppm.0.0.0.1: -200.5 ppm exceeds the 200 ppm the clock servo can correct"),
    ({"ptp": {"drift_ppm": {"seeded_max_ppm": 201}}},
     "ptp.drift_ppm.seeded_max_ppm: 201 ppm exceeds the 200 ppm the clock servo can correct"),
    ({"ptp": {"drift_ppm": {"seeded_max_ppm": -10}}},
     "ptp.drift_ppm.seeded_max_ppm: -10 is negative"),
    ({"grid": {"populated": ["0.0.0.1", "0.0.1.0", "0.0.0.1"]}},
     "grid.populated[2]: 0.0.0.1 is already listed"),
    ({"duration_ns": 1e400}, "duration_ns: inf is not an integer"),
    ({"link": {"prop_delay_ns": 1e400}}, "link.prop_delay_ns: inf is not an integer"),
    ({"grid": {"populated": []}}, "grid.populated: must name at least one node"),
    ({"grid": {"populated": ["5.0.0.0"]}}, "grid.populated[0]: 5.0.0.0 is outside the 1x1 grid"),
    ({"host": {"processing_delay_ns": -1}}, "host.processing_delay_ns: -1 must be >= 0"),
    ({"host": {"injection_cap_bps": -5}}, "host.injection_cap_bps: -5 must be >= 0"),
    ({"ptp": {"convergence_rounds": -5}}, "ptp.convergence_rounds: -5 must be >= 0"),
    ({"duration_ns": 2.9}, "duration_ns: 2.9 is not an integer"),
    ({"link": {"rate_bps": 1.5}}, "link.rate_bps: 1.5 is not an integer"),
    ({"seed": True}, "seed: True is not an integer"),
    ({"ptp": {"enabled": "false"}}, "ptp.enabled: 'false' is not a boolean"),
    ({"trace": "no"}, "trace: 'no' is not a boolean"),
    ({"flows": [{"src": "0.0.0.0", "dst": "0.0.0.1", "backlogged": 1}]},
     "flows[0].backlogged: 1 is not a boolean"),
    ({"grid": {"G_r": 129}}, "grid: dimensions 129x1 must be in 1..128"),
    ({"ptp": {"grandmaster": [0, 0, 0, 1.5]}}, "ptp.grandmaster: [0, 0, 0, 1.5] is not a node id"),
    ({"duration_ns": "5000"}, "duration_ns: '5000' is not an integer"),
    ({"host": {"injection_cap_bps": False}}, "host.injection_cap_bps: False is not an integer"),
    ({"duration_ns": 1e30}, "duration_ns: 1e+30 is above 2**63 - 1"),
    ({"link": {"rate_bps": 2**63}}, "link.rate_bps: 9223372036854775808 is above 2**63 - 1"),
    ({"flows": [{"src": "0.0.0.0", "dst": "0.0.0.1", "offered_rate_bps": 2**63}]},
     "flows[0].offered_rate_bps: 9223372036854775808 is above 2**63 - 1"),
    ({"schedules": [{"node": "0.0.0.0", "port": "intra_h", "entries": [[0, 1e19]]}]},
     "schedules[0].entries[0][1]: 10000000000000000000 is above 2**63 - 1"),
    ({"nic": {"queue_depth": 0}}, "nic.queue_depth: 0 must be >= 1"),
    ({"nic": {"queue_depth": -3}}, "nic.queue_depth: -3 must be >= 1"),
    ({"nic": {"num_tx_queues": 0}}, "nic.num_tx_queues: 0 must be in 1..65536"),
    # validate parses only: no network, so no 70000 queues, is built
    ({"nic": {"num_tx_queues": 70000}}, "nic.num_tx_queues: 70000 must be in 1..65536"),
    ({"schedules": [{"node": "0.0.0.0", "port": "intra_h", "window_us": 2**32 + 100,
                     "entries": [[0, 10]]}]},
     "schedules[0] (node 0.0.0.0 port intra_h): window_us=4294967396 does not fit a 32-bit"
     " register"),
    ({"schedules": [{"node": "0.0.0.0", "port": "intra_h", "guardband_ns": 2**32,
                     "entries": [[0, 10]]}]},
     "schedules[0] (node 0.0.0.0 port intra_h): guardband_ns=4294967296 does not fit a 32-bit"
     " register"),
    # a null guardband is checked as the port default it commits: at 1000 b/s
    # one maximum-size frame takes 12.176 s
    ({"link": {"rate_bps": 1000}, "duration_ns": 1000,
      "schedules": [{"node": "0.0.0.0", "port": "intra_h", "entries": [[0, 10]]}]},
     "schedules[0] (node 0.0.0.0 port intra_h): guardband_ns=12176000000 does not fit a"
     " 32-bit register"),
    # a key the format does not name would otherwise be ignored without a word
    ({"durations_ns": 5000}, "durations_ns: unexpected key"),
    ({"link": {"rate": 5}}, "link.rate: unexpected key"),
    ({"schedules": [{"node": "0.0.0.0", "port": "intra_h", "slots": [[0, 90]]}]},
     "schedules[0].slots: unexpected key"),
    ({"flows": [{"src": "0.0.0.0", "dst": "0.0.0.1", "pcp ": 3, "backlogged": True}]},
     "flows[0].pcp : unexpected key"),
    ({"grid": {"preset": "tile_plus_two", "G_r": 9}}, "grid.G_r: unexpected key"),
    ({"schedules": [{"node": "0.0.0.0", "port": "intra_h", "entries": [[0, 10]]},
                    {"node": [0, 0, 0, 0], "port": "intra_h", "entries": [[1, 10]]}]},
     "schedules[1]: node 0.0.0.0 port intra_h is already scheduled by schedules[0]"),
], ids=["grid_G_r", "flow_item", "schedule_entry", "time_aware_queues",
        "drift_string", "drift_seeded_max", "drift_per_node",
        "drift_bool", "drift_seeded_max_string", "drift_default_string", "drift_per_node_bool",
        "drift_unpopulated_node", "drift_unknown_key", "drift_seeded_max_beside_node",
        "drift_beyond_servo", "drift_default_beyond_servo", "drift_per_node_beyond_servo",
        "drift_seeded_max_beyond_servo", "drift_seeded_max_negative",
        "populated_repeated",
        "duration_inf", "prop_delay_inf", "populated_empty", "populated_outside_grid",
        "processing_delay_negative", "injection_cap_negative", "convergence_rounds_negative",
        "duration_fraction", "rate_fraction", "seed_bool", "ptp_enabled_string",
        "trace_string", "backlogged_int", "grid_too_large", "node_id_fraction",
        "duration_string", "injection_cap_bool", "duration_above_int64", "rate_above_int64",
        "offered_rate_above_int64", "slot_above_int64", "queue_depth_zero",
        "queue_depth_negative", "num_tx_queues_zero", "num_tx_queues_above_scr_range",
        "window_above_u32", "guardband_above_u32", "default_guardband_above_u32",
        "unknown_top_level_key",
        "unknown_link_key", "unknown_schedule_key", "unknown_flow_key", "preset_beside_G_r",
        "second_schedule_for_a_port"])
def test_malformed_scenario_is_a_validation_error(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "tasnic.cli", "validate", "--scenario", str(path)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 1
    assert f"validation: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_coarse_timestamp_quantum_runs_to_the_end(tmp_path):
    # a schedule's slot ends lie 10**12 local ns away, where the reading next
    # moves; finding them once took one clock read per nanosecond
    path = write_scenario(
        tmp_path, ptp={"quantization_ns": 1e12}, duration_ns=1e6,
        schedules=[{"node": "0.0.0.0", "port": "intra_h", "entries": [[0, 10]]}],
        flows=[{"src": "0.0.0.0", "dst": "0.0.0.1", "backlogged": True}])
    proc = subprocess.run([sys.executable, "-m", "tasnic.cli", "run", "--scenario", str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=20,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr


def test_missing_file_exit_two(tmp_path):
    assert main(["validate", "--scenario", str(tmp_path / "nope.json")]) == 2


DEEP = b"[" * 100_000 + b"]" * 100_000


# Each case: a command line ({tmp} is the test's directory), the files it
# finds there (None: a valid scenario), its exit code, the start of its one
# stderr line, and its stdout. Every path written and printed must exist.
@pytest.mark.parametrize("argv, files, code, stderr, stdout", [
    ("run --scenario {tmp}/nope.json --out {tmp}/out", {}, 2,
     "error: cannot read scenario: [Errno 2] No such file or directory", []),
    ("validate --scenario {tmp}", {}, 2, "error: cannot read scenario: [Errno 21]", []),
    ("run --scenario {tmp}/s.json --out {tmp}/out", {"s.json": b'{"seed": \xff}'}, 1,
     "validation: {tmp}/s.json: not readable as JSON ('utf-8' codec can't decode byte 0xff",
     []),
    ("validate --scenario {tmp}/s.json", {"s.json": b'{"seed": ' + b"9" * 5000 + b"}"}, 1,
     "validation: {tmp}/s.json: not readable as JSON (Exceeds the limit (4300 digits)", []),
    ("run --scenario {tmp}/s.json --out {tmp}/out", {"s.json": DEEP}, 1,
     "validation: {tmp}/s.json: not readable as JSON (maximum recursion depth exceeded", []),
    ("sweep --dir {tmp}/in --out {tmp}/file/out", {"in/s.json": None, "file": b""}, 2,
     "error: cannot write report: [Errno 20] Not a directory", ["FAILED: {tmp}/in/s.json"]),
    ("sweep --dir {tmp}/in --out {tmp}/out",
     {"in/good.json": None, "in/bad.json": b'{"seed": 1.5}'}, 1,
     "validation: seed: 1.5 is not an integer",
     ["FAILED: {tmp}/in/bad.json", "{tmp}/out/good/report.json", "ok: {tmp}/in/good.json"]),
], ids=["missing_file", "directory", "not_utf8", "integer_over_digit_limit", "deep_nesting",
        "sweep_report_unwritable", "sweep_one_invalid_file"])
def test_outside_input_fails_with_one_message_and_no_traceback(tmp_path, argv, files, code,
                                                               stderr, stdout):
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        if data is None:
            write_scenario(tmp_path, name=name)
        else:
            (tmp_path / name).write_bytes(data)
    proc = subprocess.run([sys.executable, "-m", "tasnic.cli",
                           *argv.format(tmp=tmp_path).split()],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(stderr.format(tmp=tmp_path))
    assert proc.stdout.splitlines() == [out.format(tmp=tmp_path) for out in stdout]
    assert all(Path(out).is_file() for out in proc.stdout.splitlines()
               if not out.startswith(("ok:", "FAILED:")))


def test_run_writes_json_report(tmp_path):
    path = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 4
    assert report["flows"][0]["delivered_messages"] > 0


def test_run_seed_override_changes_digest(tmp_path):
    path = write_scenario(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", str(path), "--out", str(out_a)]) == 0
    assert main(["run", "--scenario", str(path), "--out", str(out_b),
                 "--seed", "99"]) == 0
    digest_a = json.loads((out_a / "report.json").read_text())["scenario_digest"]
    digest_b = json.loads((out_b / "report.json").read_text())["scenario_digest"]
    assert digest_a != digest_b


def test_sweep_runs_every_scenario(tmp_path):
    write_scenario(tmp_path, name="one.json")
    write_scenario(tmp_path, name="two.json", seed=5)
    out = tmp_path / "out"
    assert main(["sweep", "--dir", str(tmp_path), "--out", str(out)]) == 0
    assert (out / "one" / "report.json").exists()
    assert (out / "two" / "report.json").exists()


# bandwidth_partition's 200 ms take seconds to trace; 20 ms cross 200 of its
# schedule windows
SHORTENED_NS = {"bandwidth_partition.json": 20_000_000}


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_traced_runs_do_not_depend_on_the_hash_seed(tmp_path, name):
    doc = json.loads((SCENARIOS / name).read_text())
    doc["duration_ns"] = SHORTENED_NS.get(name, doc["duration_ns"])
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    written = {}
    for hash_seed in ("0", "12345"):
        out = tmp_path / f"out-{hash_seed}"
        subprocess.run([sys.executable, "-m", "tasnic.cli", "run", "--scenario", str(path),
                        "--out", str(out), "--trace"], check=True, capture_output=True,
                       timeout=60,
                       env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed})
        written[hash_seed] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert {"report.json", "traces.jsonl", "routes.jsonl"} <= written["0"].keys()
    assert written["0"] == written["12345"]
