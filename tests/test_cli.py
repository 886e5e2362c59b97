"""Command line interface: exit codes, artifacts, determinism."""

import json
import subprocess
import sys

import pytest

from qdimul import __version__
from qdimul.cells import make_and2_strong
from qdimul.cli import main, parse_delay_model
from qdimul.netlist import GateKind, Netlist, deserialize, serialize
from qdimul.sim import DelayModel
from qdimul.verify import swap_port_rails


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_netlist(tmp_path, name="m.json", extra=()):
    path = tmp_path / name
    assert main(["gen", "--n", "2", "--out", str(path), *extra]) == 0
    return path


def test_parse_delay_model_unit():
    assert parse_delay_model("unit", 0) == DelayModel.unit()


def test_parse_delay_model_random():
    dm = parse_delay_model("random:2,9", 7)
    assert dm == DelayModel.random_per_gate(2, 9, 7)


def test_parse_delay_model_table(tmp_path):
    path = tmp_path / "delays.json"
    path.write_text(json.dumps({"c2": 3, "or2": 1}))
    dm = parse_delay_model(f"table:{path}", 0)
    assert dm.delay_of(5, GateKind.C2) == 3
    assert dm.delay_of(5, GateKind.OR2) == 1


def test_parse_delay_model_errors(tmp_path):
    from qdimul.cli import UsageError

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for text in ("gaussian", "table:", "table:/no/such/file",
                 f"table:{bad}", "random:5", "random:a,b"):
        with pytest.raises(UsageError):
            parse_delay_model(text, 0)


# A table file's text, and the words its one-line error must contain.
BAD_DELAY_TABLES = {
    "list": ("[1, 2]", "expected a JSON object"),
    "number": ("5", "expected a JSON object"),
    "overflow": ('{"c2": 1e400}', "got Infinity"),
    "fraction": ('{"c2": 2.7}', "got 2.7"),
    "true": ('{"c2": true}', "got true"),
    "string": ('{"c2": "5"}', 'got "5"'),
    "zero": ('{"c2": 0}', "got 0"),
    "unknown-kind": ('{"nand2": 1}', "unknown gate kind 'nand2'"),
    "deep": ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
    "not-utf8": (b"\xff\xfe", "bad delay table"),
    "missing-kind": ('{"c2": 3}', "no entry for gate kind"),
}


@pytest.mark.parametrize("name", list(BAD_DELAY_TABLES))
def test_bad_delay_table_is_a_usage_error(tmp_path, capsys, name):
    text, words = BAD_DELAY_TABLES[name]
    netlist = gen_netlist(tmp_path)
    table = tmp_path / "delays.json"
    if isinstance(text, bytes):
        table.write_bytes(text)
    else:
        table.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--netlist", str(netlist), "--a", "1", "--b", "1",
              "--delay-model", f"table:{table}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("qdimul: error: ") and err.count("\n") == 1
    assert words in err


def test_delay_table_directory_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--netlist", str(gen_netlist(tmp_path)), "--a", "1", "--b", "1",
              "--delay-model", f"table:{tmp_path}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_gen_writes_valid_netlist(tmp_path):
    path = gen_netlist(tmp_path)
    netlist = deserialize(path.read_text())
    assert netlist.validate() == []
    assert netlist.meta["run"]["command"] == "gen"
    assert netlist.meta["n"] == 2


def test_gen_is_deterministic(tmp_path):
    a = gen_netlist(tmp_path, "a.json")
    b = gen_netlist(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_unknown_adder(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "2", "--adder", "carry4"])
    assert exc.value.code == 2


def test_sim_single_pair_csv(tmp_path, capsys):
    path = gen_netlist(tmp_path)
    code, out, _ = run_main(["sim", "--netlist", str(path), "--a", "3", "--b", "2"],
                            capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,product,forward,reverse,cycle,transitions"
    assert lines[1].startswith("3,2,6,")


def test_sim_pairs_json_payload(tmp_path, capsys):
    path = gen_netlist(tmp_path)
    code, out, _ = run_main(
        ["sim", "--netlist", str(path), "--pairs", "3x3,1x2", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["run"]["command"] == "sim"
    assert [r["product"] for r in payload["reports"]] == [9, 2]


def test_sim_requires_operands(tmp_path):
    path = gen_netlist(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--netlist", str(path)])
    assert exc.value.code == 2


def test_sim_rejects_oversized_pair(tmp_path):
    path = gen_netlist(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--netlist", str(path), "--pairs", "9x1"])
    assert exc.value.code == 2


def test_sim_missing_netlist_is_an_io_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--netlist", "/no/such.json", "--a", "1", "--b", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sim", "--netlist", "DIR", "--a", "1", "--b", "1"],
    ["verify", "--netlist", "DIR"],
    ["report", "DIR"],
    ["gen", "--n", "2", "--out", "DIR"],
    ["sim", "--netlist", "NETLIST", "--a", "1", "--b", "1", "--trace", "DIR"],
    ["report", "DEEP"],
], ids=["sim_netlist_dir", "verify_netlist_dir", "report_dir", "gen_out_dir",
        "sim_trace_dir", "report_deep_json"])
def test_unusable_file_is_a_usage_error(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    paths = {"DIR": str(tmp_path), "NETLIST": str(gen_netlist(tmp_path)), "DEEP": str(deep)}
    with pytest.raises(SystemExit) as exc:
        main([paths.get(arg, arg) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("qdimul: error: ") and err.count("\n") == 1


def test_sim_stalled_stage_is_a_property_failure(tmp_path, capsys):
    nl = deserialize(gen_netlist(tmp_path).read_text())
    const_net = nl.const_nets[0][0]
    stuck = Netlist(nl.protocol, nl.gates, nl.input_ports, nl.output_ports,
                    ack_out=const_net, ack_in=nl.ack_in, const_nets=nl.const_nets,
                    phase_net=nl.phase_net, extra_inputs=nl.extra_inputs, meta=nl.meta)
    path = tmp_path / "stuck.json"
    path.write_text(serialize(stuck))
    code, out, err = run_main(["sim", "--netlist", str(path), "--a", "1", "--b", "1"],
                              capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("qdimul: STUCK_PHASE: ") and err.count("\n") == 1


def test_sim_net_id_past_the_bound_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "m4.json"
    assert main(["gen", "--n", "4", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["meta"]["extra_inputs"] = [10**13]
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--netlist", str(path), "--a", "1", "--b", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "NET_ID_TOO_LARGE" in err and err.count("\n") == 1


def test_sim_trace_csv_and_vcd(tmp_path, capsys):
    path = gen_netlist(tmp_path)
    csv_path = tmp_path / "t.csv"
    vcd_path = tmp_path / "t.vcd"
    base = ["sim", "--netlist", str(path), "--a", "1", "--b", "3"]
    assert main([*base, "--trace", str(csv_path), "--out", str(tmp_path / "o1")]) == 0
    assert main([*base, "--trace", str(vcd_path), "--out", str(tmp_path / "o2")]) == 0
    assert csv_path.read_text().splitlines()[0] == "time,net,level,cause"
    assert "$dumpvars" in vcd_path.read_text()


@pytest.mark.parametrize("net_names", [["a0.t"], "a0.t", 5])
def test_sim_vcd_with_net_names_not_an_object_is_a_usage_error(tmp_path, capsys, net_names):
    path = gen_netlist(tmp_path)
    doc = json.loads(path.read_text())
    doc["meta"]["net_names"] = net_names
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--netlist", str(path), "--a", "1", "--b", "3",
              "--trace", str(tmp_path / "t.vcd"), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("qdimul: error: meta.net_names ") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["x", "1.5"])
def test_sim_vcd_with_a_net_names_key_that_is_no_net_id_is_a_usage_error(tmp_path, capsys, key):
    path = gen_netlist(tmp_path)
    doc = json.loads(path.read_text())
    doc["meta"]["net_names"] = {"0": "a0.t", key: "k"}
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--netlist", str(path), "--a", "1", "--b", "3",
              "--trace", str(tmp_path / "t.vcd"), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"qdimul: error: meta.net_names key {key!r} is not a net id\n"


def test_verify_green_exit_zero(tmp_path, capsys):
    path = gen_netlist(tmp_path)
    code, out, _ = run_main(
        ["verify", "--netlist", str(path), "--checks", "functional,duality"], capsys)
    assert code == 0
    assert out.count("PASS") == 2 and "FAIL" not in out


def test_verify_red_exit_one_with_counterexample(tmp_path, capsys):
    path = gen_netlist(tmp_path)
    netlist = deserialize(path.read_text())
    broken = tmp_path / "broken.json"
    broken.write_text(serialize(swap_port_rails(netlist)))
    code, out, _ = run_main(
        ["verify", "--netlist", str(broken), "--checks", "functional"], capsys)
    assert code == 1
    assert "FAIL functional" in out
    assert "counterexample" in out


def test_verify_labels_a_stage_whose_meta_lacks_the_protocol(tmp_path, capsys):
    netlist = deserialize(gen_netlist(tmp_path).read_text())
    del netlist.meta["protocol"]
    broken = tmp_path / "broken.json"
    broken.write_text(serialize(swap_port_rails(netlist)))
    code, out, err = run_main(
        ["verify", "--netlist", str(broken), "--checks", "functional"], capsys)
    assert code == 1
    assert "FAIL functional" in out and err == ""


def test_verify_json_artifact(tmp_path, capsys):
    path = gen_netlist(tmp_path)
    artifact = tmp_path / "verify.json"
    code, _, err = run_main(
        ["verify", "--netlist", str(path), "--checks", "functional",
         "--json", "--out", str(artifact)], capsys)
    assert code == 0
    payload = json.loads(artifact.read_text())
    assert payload["checks"][0]["check"] == "functional"
    assert payload["checks"][0]["passed"] is True
    assert "PASS functional" in err


@pytest.mark.parametrize("argv", [["sim", "--a", "1", "--b", "1"], ["verify"]])
def test_cell_netlist_is_a_usage_error(tmp_path, capsys, argv):
    cell = tmp_path / "and.json"
    cell.write_text(serialize(make_and2_strong().netlist))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--netlist", str(cell), *argv[1:]])
    assert exc.value.code == 2
    assert "not a multiplier stage" in capsys.readouterr().err


def test_verify_unknown_check(tmp_path):
    path = gen_netlist(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--netlist", str(path), "--checks", "vibes"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["--samples", "0"], "argument --samples: must be at least 1, got 0"),
    (["--samples", "-5"], "argument --samples: must be at least 1, got -5"),
    (["--seeds", "-3"], "argument --seeds: must be at least 0, got -3"),
    (["--samples", "x"], "argument --samples: invalid int value: 'x'"),
])
def test_verify_refuses_empty_sample_and_seed_counts(tmp_path, capsys, argv, message):
    path = gen_netlist(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--netlist", str(path), *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and "PASS" not in captured.out


def test_verify_with_no_random_seeds_runs_unit_delays_only(tmp_path, capsys):
    path = gen_netlist(tmp_path)
    argv = ["verify", "--netlist", str(path), "--checks", "delay_insensitivity",
            "--seeds", "0", "--samples", "3"]
    code, out, _ = run_main(argv, capsys)
    assert code == 0 and "3 cycles over 1 delay models" in out


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_bench_refuses_an_empty_sample_count(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "8", "--samples", samples])
    assert exc.value.code == 2
    assert f"must be at least 1, got {samples}" in capsys.readouterr().err


def test_bench_table_and_determinism(tmp_path, capsys):
    argv = ["bench", "--n", "2", "--samples", "8"]
    code, first, _ = run_main(argv, capsys)
    assert code == 0
    assert "design" in first.splitlines()[0]
    assert "weak-rtz-2x2" in first and "dims-rtz-2x2" in first
    _, second, _ = run_main(argv, capsys)
    assert first == second


def test_bench_json_then_report_merge(tmp_path, capsys):
    rtz = tmp_path / "rtz.json"
    rto = tmp_path / "rto.json"
    base = ["bench", "--n", "2", "--samples", "8", "--json"]
    assert main([*base, "--protocol", "rtz", "--out", str(rtz)]) == 0
    assert main([*base, "--protocol", "rto", "--out", str(rto)]) == 0
    code, out, _ = run_main(["report", str(rtz), str(rto)], capsys)
    assert code == 0
    body = out.splitlines()[2:]
    assert len(body) == 4
    assert any("rto" in line for line in body) and any("rtz" in line for line in body)


def test_report_rejects_empty_payload(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"rows": []}))
    with pytest.raises(SystemExit) as exc:
        main(["report", str(empty)])
    assert exc.value.code == 2


def test_report_rejects_malformed_artifacts(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(["bench", "--n", "2", "--samples", "4", "--json", "--out", str(good)]) == 0
    row = json.loads(good.read_text())["rows"][0]
    payloads = {
        "list": [row],
        "missing": {"rows": [{k: v for k, v in row.items() if k != "area"}]},
        "unknown": {"rows": [{**row, "colour": "red"}]},
        "wrong_type": {"rows": [{**row, "cycle_mean": "fast"}]},
        "row_not_object": {"rows": [3]},
        "rows_not_list": {"rows": 3},
    }
    for name, payload in payloads.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as exc:
            main(["report", str(path)])
        assert exc.value.code == 2, name
        assert str(path) in capsys.readouterr().err, name


def test_installed_entry_point_version():
    proc = subprocess.run([sys.executable, "-m", "qdimul.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"qdimul {__version__}"
