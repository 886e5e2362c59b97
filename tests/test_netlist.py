"""Core IR: encodings, gate semantics, validation, duality, JSON round trips."""

import dataclasses
import io
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import golden
from qdimul import verify
from qdimul.harness import HANDSHAKE_ERRORS, Harness
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import (
    ARITY,
    DUAL_KIND,
    FAMILY,
    NET_IDS_PER_DRIVEN_NET,
    DualRailPort,
    DualRailValue,
    Gate,
    GateKind,
    InvalidNetlistError,
    Netlist,
    NetlistBuilder,
    ParseError,
    Protocol,
    _parse_gate,
    decode,
    deserialize,
    dualize,
    encode,
    eval_family,
    serialize,
    validate,
)
from qdimul.sim import reset, write_trace_vcd

# Frozen oracle: rail pairs (rail1, rail0) per protocol.  DATA1 carries the
# one on the rail whose active level matches the protocol; spacer is both
# rails idle.  Written out fully so the table cannot drift with the code.
CODEWORDS = {
    Protocol.RTZ: {
        (0, 0): DualRailValue.SPACER,
        (0, 1): DualRailValue.DATA0,
        (1, 0): DualRailValue.DATA1,
        (1, 1): DualRailValue.ILLEGAL,
    },
    Protocol.RTO: {
        (1, 1): DualRailValue.SPACER,
        (1, 0): DualRailValue.DATA0,
        (0, 1): DualRailValue.DATA1,
        (0, 0): DualRailValue.ILLEGAL,
    },
}


def test_gate_is_a_frozen_value():
    g = Gate(3, GateKind.C2, (1, 2), 4, 0)
    same = Gate(id=3, kind=GateKind.C2, inputs=(1, 2), output=4, reset=0)
    assert g == same and hash(g) == hash(same) and g != Gate(3, GateKind.C2, (1, 2), 4, 1)
    assert repr(g) == "Gate(id=3, kind=<GateKind.C2: 'c2'>, inputs=(1, 2), output=4, reset=0)"
    assert dataclasses.replace(g, reset=1) == Gate(3, GateKind.C2, (1, 2), 4, 1)
    assert dataclasses.astuple(g) == (3, GateKind.C2, (1, 2), 4, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.output = 5
    with pytest.raises(TypeError):
        Gate(3, GateKind.C2, (1, 2), 4)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_decode_matches_frozen_codeword_table(protocol):
    for (r1, r0), value in CODEWORDS[protocol].items():
        assert decode(r1, r0, protocol) is value


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("bit", [0, 1])
def test_encode_decode_roundtrip(protocol, bit):
    r1, r0 = encode(bit, protocol)
    value = decode(r1, r0, protocol)
    assert value.bit == bit


def test_protocol_levels():
    assert Protocol.RTZ.spacer_level == 0
    assert Protocol.RTZ.active_level == 1
    assert Protocol.RTO.spacer_level == 1
    assert Protocol.RTO.active_level == 0
    assert Protocol.RTZ.flipped is Protocol.RTO
    assert Protocol.RTO.flipped is Protocol.RTZ


# Frozen oracle for combinational kinds: plain boolean algebra, written
# independently of eval_family.
BOOL_ORACLE = {
    GateKind.AND2: lambda v: v[0] & v[1],
    GateKind.AND3: lambda v: v[0] & v[1] & v[2],
    GateKind.AND4: lambda v: v[0] & v[1] & v[2] & v[3],
    GateKind.OR2: lambda v: v[0] | v[1],
    GateKind.OR3: lambda v: v[0] | v[1] | v[2],
    GateKind.OR4: lambda v: v[0] | v[1] | v[2] | v[3],
    GateKind.NOT: lambda v: 1 - v[0],
}


@pytest.mark.parametrize("kind", sorted(BOOL_ORACLE, key=lambda k: k.value))
def test_combinational_kinds_match_boolean_oracle(kind):
    for vec in itertools.product((0, 1), repeat=ARITY[kind]):
        for state in (0, 1):
            assert eval_family(FAMILY[kind], range(len(vec)), vec, state) == BOOL_ORACLE[kind](vec)


@pytest.mark.parametrize("kind,arity", [(GateKind.C2, 2), (GateKind.C3, 3)])
def test_c_element_holds_unless_inputs_agree(kind, arity):
    for vec in itertools.product((0, 1), repeat=arity):
        for state in (0, 1):
            expected = vec[0] if len(set(vec)) == 1 else state
            assert eval_family(FAMILY[kind], range(arity), vec, state) == expected


def test_dual_kind_mapping_swaps_and_or_and_keeps_arity():
    pairs = {
        GateKind.AND2: GateKind.OR2,
        GateKind.AND3: GateKind.OR3,
        GateKind.AND4: GateKind.OR4,
        GateKind.C2: GateKind.C2,
        GateKind.C3: GateKind.C3,
        GateKind.NOT: GateKind.NOT,
    }
    for kind, dual in pairs.items():
        assert DUAL_KIND[kind] is dual
        assert DUAL_KIND[dual] is kind
        assert ARITY[kind] == ARITY[dual]


# -- builder -----------------------------------------------------------------


def small_and_netlist(protocol=Protocol.RTZ):
    b = NetlistBuilder(protocol)
    a = b.dual_rail_input("a")
    c = b.dual_rail_input("b")
    z1 = b.gate(GateKind.C2, (a.rail1, c.rail1))
    z0 = b.gate(GateKind.OR2, (a.rail0, c.rail0))
    b.mark_output("z", z1, z0)
    return b.build()


def test_builder_infers_combinational_reset_levels():
    nl = small_and_netlist()
    levels = nl.reset_levels()
    for p in nl.ports:
        assert levels[p.rail1] == 0 and levels[p.rail0] == 0


def test_builder_rto_reset_is_all_ones():
    nl = small_and_netlist(Protocol.RTO)
    levels = nl.reset_levels()
    assert all(levels[p.rail1] == 1 and levels[p.rail0] == 1 for p in nl.ports)


def test_builder_rejects_inconsistent_reset():
    b = NetlistBuilder(Protocol.RTZ)
    x = b.input_net("x")
    with pytest.raises(ValueError):
        b.gate(GateKind.NOT, (x,), reset=0)  # NOT of a 0 input resets to 1


def test_gate_census_counts_kinds():
    nl = small_and_netlist()
    census = nl.gate_census()
    assert census[GateKind.C2] == 1
    assert census[GateKind.OR2] == 1


# -- validation ---------------------------------------------------------------


def test_validate_accepts_small_netlist():
    assert validate(small_and_netlist()) == []


def test_validate_flags_unconnected_input():
    g = Gate(0, GateKind.OR2, (5, 6), 7, 0)
    nl = Netlist(Protocol.RTZ, [g], extra_inputs=[5])
    codes = {d.code.value for d in validate(nl)}
    assert "UNCONNECTED_INPUT" in codes


def test_validate_flags_multiple_drivers():
    gates = [
        Gate(0, GateKind.OR2, (0, 1), 2, 0),
        Gate(1, GateKind.OR2, (0, 1), 2, 0),
    ]
    nl = Netlist(Protocol.RTZ, gates, extra_inputs=[0, 1])
    codes = {d.code.value for d in validate(nl)}
    assert "MULTIPLE_DRIVERS" in codes


def test_validate_flags_arity_mismatch():
    g = Gate(0, GateKind.AND2, (0, 1, 2), 3, 0)
    nl = Netlist(Protocol.RTZ, [g], extra_inputs=[0, 1, 2])
    codes = {d.code.value for d in validate(nl)}
    assert "ARITY_MISMATCH" in codes


def test_validate_flags_combinational_loop():
    gates = [
        Gate(0, GateKind.OR2, (0, 3), 2, 0),
        Gate(1, GateKind.OR2, (2, 1), 3, 0),
    ]
    nl = Netlist(Protocol.RTZ, gates, extra_inputs=[0, 1])
    codes = {d.code.value for d in validate(nl)}
    assert "COMBINATIONAL_LOOP" in codes


def test_c_element_feedback_loop_is_legal():
    gates = [
        Gate(0, GateKind.C2, (0, 3), 2, 0),
        Gate(1, GateKind.C2, (2, 1), 3, 0),
    ]
    nl = Netlist(Protocol.RTZ, gates, extra_inputs=[0, 1])
    assert validate(nl) == []


def test_validate_flags_duplicate_gate_id():
    # the OR reuses the AND's id; simulated, the AND read 0 with both inputs at 1
    gates = [
        Gate(0, GateKind.AND2, (0, 1), 2, 0),
        Gate(0, GateKind.OR2, (0, 1), 3, 0),
    ]
    nl = Netlist(Protocol.RTZ, gates, extra_inputs=[0, 1])
    codes = {d.code.value for d in validate(nl)}
    assert "DUPLICATE_GATE_ID" in codes
    with pytest.raises(InvalidNetlistError):
        nl.require_valid()


def test_repeated_gate_ids_make_no_false_loop():
    # the NOT reads the AND's output: a path, not a cycle, though both are gate 0
    gates = [Gate(0, GateKind.AND2, (0, 1), 2, 0), Gate(0, GateKind.NOT, (2,), 3, 1)]
    nl = Netlist(Protocol.RTZ, gates, [DualRailPort("x", 0, 1, "in")])
    assert [d.code.value for d in validate(nl)] == ["DUPLICATE_GATE_ID"]


def test_validate_flags_sparse_gate_ids():
    gates = [
        Gate(0, GateKind.OR2, (0, 1), 2, 0),
        Gate(5, GateKind.OR2, (0, 1), 3, 0),
    ]
    nl = Netlist(Protocol.RTZ, gates, extra_inputs=[0, 1])
    diags = validate(nl)
    assert [d.code.value for d in diags] == ["GATE_ID_OUT_OF_RANGE"]
    assert diags[0].subjects == (5,)


def test_validate_flags_negative_net_id():
    g = Gate(0, GateKind.OR2, (-1, 0), 1, 0)
    nl = Netlist(Protocol.RTZ, [g], extra_inputs=[-1, 0])
    codes = {d.code.value for d in validate(nl)}
    assert "NEGATIVE_NET_ID" in codes


def test_validate_flags_port_with_one_net_for_both_rails():
    nl = small_and_netlist()
    z = nl.output_ports[0]
    aliased = Netlist(nl.protocol, nl.gates, nl.input_ports,
                      [DualRailPort(z.name, z.rail1, z.rail1, "out")])
    codes = {d.code.value for d in validate(aliased)}
    assert codes == {"ALIASED_RAILS"}


def test_validate_flags_a_net_used_as_a_rail_by_two_input_ports():
    # a1's rail0 moved onto a0's; the old net stays an input, so nothing dangles
    stage = generate(MultiplierSpec(2))
    a0, a1 = stage.input_ports[:2]
    moved = dataclasses.replace(a1, rail0=a0.rail0)
    shared = Netlist(stage.protocol, stage.gates, (a0, moved, *stage.input_ports[2:]),
                     stage.output_ports, stage.ack_out, stage.ack_in, stage.const_nets,
                     stage.phase_net, (*stage.extra_inputs, a1.rail0), stage.meta)
    assert [(d.code.value, d.message, d.subjects) for d in validate(shared)] == [
        ("ALIASED_RAILS", f"input ports 'a0' and 'a1' share net {a0.rail0}", (a0.rail0,))]
    for run in (Harness, verify.check_functional, verify.check_stage_indication):
        with pytest.raises(InvalidNetlistError, match="ALIASED_RAILS"):
            run(shared)


@pytest.mark.parametrize("net, what", [("phase_net", "the phase net"), ("ack_in", "ack_in")])
def test_validate_flags_an_input_rail_on_a_handshake_net(net, what):
    # a0's rail1 moved onto the net; the old net stays an input, so nothing dangles
    stage = generate(MultiplierSpec(2))
    a0 = stage.input_ports[0]
    shared_net = getattr(stage, net)
    moved = dataclasses.replace(a0, rail1=shared_net)
    shared = Netlist(stage.protocol, stage.gates, (moved, *stage.input_ports[1:]),
                     stage.output_ports, stage.ack_out, stage.ack_in, stage.const_nets,
                     stage.phase_net, (*stage.extra_inputs, a0.rail1), stage.meta)
    assert [(d.code.value, d.message, d.subjects) for d in validate(shared)] == [
        ("ALIASED_RAILS", f"input port 'a0' shares net {shared_net} with {what}",
         (shared_net,))]
    for run in (Harness, verify.check_functional, verify.check_stage_indication):
        with pytest.raises(InvalidNetlistError, match="ALIASED_RAILS"):
            run(shared)


def test_validate_flags_ack_out_on_the_ack_in_net():
    # Simulated, the acknowledge inverter would feed the net back at the
    # same instant forever; validation must refuse it before any engine runs.
    nl = Netlist(Protocol.RTZ, [], ack_out=0, ack_in=0)
    assert [d.code.value for d in validate(nl)] == ["ALIASED_ACK"]
    with pytest.raises(InvalidNetlistError, match="ALIASED_ACK"):
        reset(nl)


def test_validate_bounds_net_ids_by_the_count_of_driven_nets():
    g = Gate(0, GateKind.OR2, (0, 1), 2, 0)
    driven = 4  # three inputs and one gate output
    top = NET_IDS_PER_DRIVEN_NET * (driven + 1) - 1
    assert validate(Netlist(Protocol.RTZ, [g], extra_inputs=[0, 1, top])) == []
    for far in (top + 1, 10**13):
        nl = Netlist(Protocol.RTZ, [g], extra_inputs=[0, 1, far])
        diags = validate(nl)
        assert [d.code.value for d in diags] == ["NET_ID_TOO_LARGE"]
        assert diags[0].subjects == (far,)
        with pytest.raises(InvalidNetlistError, match="NET_ID_TOO_LARGE"):
            reset(nl)


@pytest.mark.parametrize("field, value", [("id", 0.0), ("id", False), ("kind", "c2"),
                                          ("inputs", (0, True)), ("output", 4.0), ("reset", 2),
                                          ("inputs", (0, "7")), ("inputs", None)])
def test_validate_flags_a_gate_field_of_the_wrong_type(field, value):
    nl = small_and_netlist()
    gates = (dataclasses.replace(nl.gates[0], **{field: value}), *nl.gates[1:])
    bad = Netlist(nl.protocol, gates, nl.input_ports, nl.output_ports)
    diags = validate(bad)
    assert [d.code.value for d in diags] == ["BAD_GATE_FIELD"]
    assert diags[0].subjects == (0,) and f"gates[0].{field}" in diags[0].message
    with pytest.raises(InvalidNetlistError, match="BAD_GATE_FIELD"):
        reset(bad)


def _first_output(stage, **rails):
    outs = stage.output_ports
    return {"output_ports": (dataclasses.replace(outs[0], **rails), *outs[1:])}


@pytest.mark.parametrize("field, change", [
    ("ack_out", lambda s: {"ack_out": float(s.ack_out)}),
    ("ack_out", lambda s: {"ack_out": str(s.ack_out)}),
    ("ack_in", lambda s: {"ack_in": float(s.ack_in)}),
    ("phase_net", lambda s: {"phase_net": float(s.phase_net)}),
    ("ports[4].rail0", lambda s: _first_output(s, rail0=float(s.output_ports[0].rail0))),
    ("ports[4].rail1", lambda s: _first_output(s, rail1=True)),
    ("extra_inputs[0]", lambda s: {"extra_inputs": (float(s.net_count),)}),
    ("const_nets[0]", lambda s: {"const_nets": [(s.const_nets[0][0], 2), *s.const_nets[1:]]}),
    ("const_nets[0]", lambda s: {"const_nets": [(s.const_nets[0][0], s.const_nets[0][1] == 1),
                                                *s.const_nets[1:]]}),
    ("const_nets[0]", lambda s: {"const_nets": [(s.const_nets[0][0], float(s.const_nets[0][1])),
                                                *s.const_nets[1:]]}),
    ("const_nets[0][0]", lambda s: {"const_nets": [(s.const_nets[0][0] + 0.9, s.const_nets[0][1]),
                                                   *s.const_nets[1:]]}),
    ("const_nets[0][0]", lambda s: {"const_nets": [(float(s.const_nets[0][0]), s.const_nets[0][1]),
                                                   *s.const_nets[1:]]}),
    # neither hashed nor compared with the int net ids
    ("const_nets[0][0]", lambda s: {"const_nets": [(str(s.const_nets[0][0]), s.const_nets[0][1]),
                                                   *s.const_nets[1:]]}),
    ("extra_inputs[0]", lambda s: {"extra_inputs": ("7",)}),
    ("extra_inputs[0]", lambda s: {"extra_inputs": (None,)}),
    ("extra_inputs[0]", lambda s: {"extra_inputs": ([7],)}),
], ids=["ack_out-float", "ack_out-str", "ack_in", "phase_net", "rail0", "rail1", "extra_input",
        "const_level", "const_level-bool", "const_level-float", "const_net-float",
        "const_net-whole-float", "const_net-str", "extra_input-str", "extra_input-none",
        "extra_input-list"])
def test_validate_flags_a_net_field_of_the_wrong_type(field, change):
    stage = generate(MultiplierSpec(2))
    bad = verify._mutated(stage, "bad-field", **change(stage))
    diags = validate(bad)
    assert [d.code.value for d in diags] == ["BAD_NET_FIELD"]
    assert diags[0].message.startswith(f"{field} is ")
    with pytest.raises(InvalidNetlistError, match="BAD_NET_FIELD"):
        reset(bad)


@pytest.mark.parametrize("name", [["P0"], None, 0, b"P0"], ids=["list", "None", "int", "bytes"])
def test_validate_flags_a_port_name_that_is_not_a_str(name):
    # refused by validate, before a name lookup can fail on an unhashable name
    stage = generate(MultiplierSpec(2))
    bad = verify._mutated(stage, "bad-name", **_first_output(stage, name=name))
    assert [(d.code.value, d.message) for d in validate(bad)] == [
        ("BAD_NET_FIELD", f"ports[{len(stage.input_ports)}].name is {name!r}, expected a str")]
    with pytest.raises(InvalidNetlistError, match="BAD_NET_FIELD"):
        reset(bad)


def test_validate_names_each_port_name_ports_share():
    stage = generate(MultiplierSpec(2))
    ins = [dataclasses.replace(p, name="a0") if p.name == "a1" else p for p in stage.input_ports]
    outs = [dataclasses.replace(p, name="P0") if p.name in ("P1", "P3") else p
            for p in stage.output_ports]
    bad = verify._mutated(stage, "shared-names", input_ports=ins, output_ports=outs)
    assert [(d.code.value, d.message) for d in validate(bad)] == [
        ("DUPLICATE_PORT_NAME", "port name 'a0' is used by 2 ports"),
        ("DUPLICATE_PORT_NAME", "port name 'P0' is used by 3 ports")]
    with pytest.raises(InvalidNetlistError, match="DUPLICATE_PORT_NAME"):
        reset(bad)


def test_constant_nets_are_kept_as_given():
    nl = Netlist(Protocol.RTZ, [Gate(0, GateKind.NOT, (7,), 8, 1)], const_nets=[(7.9, True)])
    assert nl.const_nets == ((7.9, True),)
    assert [(d.code.value, d.message) for d in validate(nl)] == [
        ("BAD_NET_FIELD", "const_nets[0][0] is 7.9, expected an int"),
        ("BAD_NET_FIELD", "const_nets[0] is (7.9, True), expected a level of 0 or 1"),
    ]
    assert validate(Netlist(Protocol.RTZ, [Gate(0, GateKind.NOT, (7,), 8, 1)],
                            const_nets=[(7, 0)])) == []


def test_validate_method_returns_a_fresh_list_each_call():
    g = Gate(0, GateKind.AND2, (0, 1, 2), 3, 0)
    nl = Netlist(Protocol.RTZ, [g], extra_inputs=[0, 1, 2])
    first, second = nl.validate(), nl.validate()
    assert first == second == validate(nl)
    assert first is not second
    first.clear()
    assert nl.validate() == second


def test_require_valid_raises_with_diagnostics():
    g = Gate(0, GateKind.AND2, (0, 1, 2), 3, 0)
    nl = Netlist(Protocol.RTZ, [g], extra_inputs=[0, 1, 2])
    with pytest.raises(InvalidNetlistError) as err:
        nl.require_valid()
    assert err.value.diagnostics


# -- duality --------------------------------------------------------------


def test_dualize_flips_protocol_kinds_and_resets():
    nl = small_and_netlist()
    dual = dualize(nl)
    assert dual.protocol is Protocol.RTO
    kinds = {g.kind for g in dual.gates}
    assert kinds == {GateKind.C2, GateKind.AND2}
    for g, d in zip(nl.gates, dual.gates):
        assert d.reset == 1 - g.reset


def test_dualize_is_an_involution():
    nl = small_and_netlist()
    assert dualize(dualize(nl)) == nl


def test_dualize_complements_const_nets():
    b = NetlistBuilder(Protocol.RTZ)
    x = b.input_net("x")
    k = b.const_net(0)
    b.gate(GateKind.OR2, (x, k))
    nl = b.build()
    dual = dualize(nl)
    assert dict(dual.const_nets) == {k: 1}


def test_dual_twin_inherits_the_validation_verdict():
    for spec in (MultiplierSpec(2), MultiplierSpec(4, protocol=Protocol.RTO)):
        nl = generate(spec)
        twin = dualize(nl)
        assert twin.validate() == validate(twin) == []
        assert dualize(twin).validate() == validate(dualize(twin)) == []


def test_net_views_are_built_on_first_use():
    nl = generate(MultiplierSpec(2))
    assert nl._memo == {}
    drivers = {g.output: g.id for g in nl.gates}
    readers = {}
    for g in nl.gates:
        for slot, n in enumerate(g.inputs):
            readers.setdefault(n, []).append((g.id, slot))
    consts = dict(nl.const_nets)
    for n in range(nl.net_count + 2):
        view = nl.net(n)
        assert view.fanout == tuple(readers.get(n, ()))
        assert view.driver_gate == drivers.get(n)
        assert view.const_level == consts.get(n)
        expect = ("gate" if n in drivers else "input" if n in nl.primary_inputs
                  else "const" if n in consts else "none")
        assert view.source == expect
    assert nl.gate_by_id == {g.id: g for g in nl.gates}
    assert nl.gate_by_id is nl.gate_by_id


def test_net_count_covers_every_net_id():
    for nl in (generate(MultiplierSpec(2)), golden.fork_skewed(generate(MultiplierSpec(2)))):
        ids = set(nl.primary_inputs) | {n for n, _ in nl.const_nets}
        ids |= {n for g in nl.gates for n in (*g.inputs, g.output)}
        ids |= {n for p in nl.ports for n in (p.rail1, p.rail0)}
        assert nl.net_count == max(ids) + 1
    assert Netlist(Protocol.RTZ, []).net_count == 0


def test_structural_equality_ignores_meta():
    a = small_and_netlist()
    c = small_and_netlist()
    c.meta["note"] = "different"
    assert a == c


# -- serialization -------------------------------------------------------------


def test_serialize_roundtrip_preserves_structure():
    nl = small_and_netlist()
    nl.meta["note"] = "kept"
    again = deserialize(serialize(nl))
    assert again == nl
    assert again.protocol is nl.protocol
    assert again.meta == nl.meta


def test_serialize_is_deterministic():
    nl = small_and_netlist()
    assert serialize(nl) == serialize(small_and_netlist())


def test_serialized_document_shape():
    doc = json.loads(serialize(small_and_netlist()))
    assert set(doc) == {"protocol", "gates", "ports", "ack_out", "ack_in", "meta"}
    for g in doc["gates"]:
        assert set(g) == {"id", "kind", "inputs", "output", "reset"}
    for p in doc["ports"]:
        assert set(p) == {"name", "dir", "rail1", "rail0"}


def test_golden_serialize_hash():
    # Every generator choice at n = 2, 4, 8, every cell and the three
    # mutators; pinned on the writer that sent the whole document through json.
    assert golden.serialize_digest() == golden.GOLDEN_SERIALIZE_SHA256


def test_deserialize_rejects_unknown_top_level_field():
    doc = json.loads(serialize(small_and_netlist()))
    doc["extra"] = 1
    with pytest.raises(ParseError, match="extra"):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_unknown_gate_field():
    doc = json.loads(serialize(small_and_netlist()))
    doc["gates"][0]["delay"] = 3
    with pytest.raises(ParseError, match="delay"):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_missing_field():
    doc = json.loads(serialize(small_and_netlist()))
    del doc["gates"][0]["reset"]
    with pytest.raises(ParseError, match="reset"):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_bad_kind():
    doc = json.loads(serialize(small_and_netlist()))
    doc["gates"][0]["kind"] = "nand2"
    with pytest.raises(ParseError, match="nand2"):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_boolean_levels():
    doc = json.loads(serialize(small_and_netlist()))
    doc["gates"][0]["reset"] = True
    with pytest.raises(ParseError):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_bad_protocol():
    doc = json.loads(serialize(small_and_netlist()))
    doc["protocol"] = "nrz"
    with pytest.raises(ParseError, match="nrz"):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_malformed_const_nets():
    doc = json.loads(serialize(small_and_netlist()))
    for bad in ([5], [[1]]):
        doc["meta"]["const_nets"] = bad
        with pytest.raises(ParseError, match=r"meta\.const_nets\[0\]"):
            deserialize(json.dumps(doc))


def test_deserialize_rejects_malformed_json():
    with pytest.raises(ParseError):
        deserialize("{not json")


def test_deserialize_rejects_an_integer_past_the_digit_limit():
    doc = serialize(small_and_netlist()).replace('"ack_out": null', '"ack_out": ' + "9" * 5000)
    with pytest.raises(ParseError, match="invalid JSON"):
        deserialize(doc)


def test_deserialize_rejects_deep_nesting():
    for opener in ("[", '{"a": '):
        with pytest.raises(ParseError, match="nested too deeply"):
            deserialize(opener * 100_000)


# -- mutated stage documents ---------------------------------------------------

STAGE_TEXT = serialize(generate(MultiplierSpec(n=2)))
STAGE_DOC = json.loads(STAGE_TEXT)


def _paths(node, prefix=()):
    """Every key path below ``node`` in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


STAGE_PATHS = list(_paths(STAGE_DOC))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_documents(draw):
    """A 2x2 stage document with one value replaced, deleted or added."""
    doc = json.loads(STAGE_TEXT)
    path = draw(st.sampled_from(STAGE_PATHS))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = draw(st.sampled_from(["replace", "delete", "add", "nudge"]))
    if action == "delete":
        del parent[key]
    elif action == "add":
        if isinstance(parent, list):
            parent.insert(key, draw(JSON_VALUES))
        else:
            parent[draw(st.text(max_size=6))] = draw(JSON_VALUES)
    elif action == "nudge" and isinstance(parent[key], int) and not isinstance(parent[key], bool):
        parent[key] += draw(st.sampled_from([-200, -1, 1, 200]))
    else:
        parent[key] = draw(JSON_VALUES)
    return json.dumps(doc, indent=1, sort_keys=True)


@st.composite
def mutated_texts(draw):
    """The 2x2 stage text with one span replaced by JSON-ish characters."""
    start = draw(st.integers(0, len(STAGE_TEXT)))
    end = draw(st.integers(start, min(len(STAGE_TEXT), start + 8)))
    alphabet = '{}[]",:-.eE0123456789 \ntruefalsnu'
    if draw(st.booleans()):
        patch = draw(st.text(alphabet=alphabet, max_size=8))
    else:  # one character repeated, up to past the int digit and nesting limits
        patch = draw(st.sampled_from(alphabet)) * draw(st.integers(1, 6000))
    return STAGE_TEXT[:start] + patch + STAGE_TEXT[end:]


def _load_outcome(text):
    """A mutated document must give a netlist, a ParseError or an InvalidNetlistError.

    A valid one must then reset, run one traced handshake and write its trace
    as VCD, or refuse with one of ``HANDSHAKE_ERRORS`` or a ``ValueError``.
    """
    try:
        nl = deserialize(text)
    except ParseError:
        return "parse"
    assert isinstance(nl, Netlist)
    try:
        nl.require_valid()
    except InvalidNetlistError:
        return "invalid"
    assert deserialize(serialize(nl)) == nl
    try:
        h = Harness(nl)
        top = (1 << h.n) - 1
        report = h.run_cycle(top, top, want_trace=True)
        write_trace_vcd(nl, report.trace, io.StringIO())
    except (*HANDSHAKE_ERRORS, ValueError):
        return "refused"
    return "valid"


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def test_the_unmutated_stage_loads():
    assert _load_outcome(STAGE_TEXT) == "valid"


@PROPERTY
@given(mutated_documents())
def test_mutated_stage_document_loads_or_raises_a_typed_error(text):
    _load_outcome(text)


@PROPERTY
@given(mutated_texts())
def test_mutated_stage_text_loads_or_raises_a_typed_error(text):
    _load_outcome(text)


# -- the writer and the reader against their references -----------------------


def _reference_document(nl):
    """The document the writer renders, built as the writer before gate templates did."""
    meta = dict(nl.meta)
    if nl.const_nets:
        meta["const_nets"] = [[n, v] for n, v in nl.const_nets]
    if nl.phase_net is not None:
        meta["phase_net"] = nl.phase_net
    if nl.extra_inputs:
        meta["extra_inputs"] = list(nl.extra_inputs)
    return {
        "protocol": nl.protocol.value,
        "gates": [{"id": g.id, "kind": g.kind.value, "inputs": list(g.inputs),
                   "output": g.output, "reset": g.reset} for g in nl.gates],
        "ports": [{"name": p.name, "dir": p.direction, "rail1": p.rail1, "rail0": p.rail0}
                  for p in nl.ports],
        "ack_out": nl.ack_out,
        "ack_in": nl.ack_in,
        "meta": meta,
    }


ANY_INT = st.integers(-2**70, 2**70) | st.booleans()
HAND_GATES = st.lists(st.builds(
    Gate, ANY_INT, st.sampled_from(list(GateKind)),
    st.lists(ANY_INT, max_size=4).map(tuple), ANY_INT, ANY_INT), max_size=6)
NET_OR_NONE = st.none() | st.integers(-5, 2**40)


@PROPERTY
@given(HAND_GATES, st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4),
       st.lists(st.builds(DualRailPort, st.text(max_size=4), ANY_INT, ANY_INT,
                          st.sampled_from(["in", "out"])), max_size=2),
       NET_OR_NONE, NET_OR_NONE, st.sampled_from(list(Protocol)))
def test_serialize_equals_json_dumps_of_the_document(gates, meta, ports, ack_out, ack_in,
                                                     protocol):
    nl = Netlist(protocol, gates,
                 input_ports=[p for p in ports if p.direction == "in"],
                 output_ports=[p for p in ports if p.direction == "out"],
                 ack_out=ack_out, ack_in=ack_in, meta=meta)
    want = json.dumps(_reference_document(nl), indent=1, sort_keys=True) + "\n"
    assert serialize(nl) == want


def test_parse_error_corpus():
    # One corruption of one gate of a 2x2 stage each; the messages and paths
    # were recorded on the reader that checked every gate field by field.
    assert golden.parse_errors() == golden.GOLDEN_PARSE_ERRORS


FIELD_VALUES = {
    "id": st.integers(-3, 3) | JSON_VALUES,
    "kind": st.sampled_from([k.value for k in GateKind]) | JSON_VALUES,
    "inputs": st.lists(st.integers(0, 9) | JSON_VALUES, max_size=4) | JSON_VALUES,
    "output": st.integers(0, 9) | JSON_VALUES,
    "reset": st.integers(-1, 2) | JSON_VALUES,
}


@PROPERTY
@given(st.fixed_dictionaries(FIELD_VALUES, optional={"delay": JSON_VALUES})
       | st.sampled_from([None, [], 3, "gate"]),
       st.sets(st.sampled_from(sorted(FIELD_VALUES)), max_size=2))
def test_one_check_accepts_exactly_what_the_field_checks_accept(raw, dropped):
    if isinstance(raw, dict):
        raw = {k: v for k, v in raw.items() if k not in dropped}
    doc = json.loads(STAGE_TEXT)
    doc["gates"][1] = raw
    raw = json.loads(json.dumps(raw))  # what the reader sees: no tuples
    try:
        want = _parse_gate(raw, "gates[1]")
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            deserialize(json.dumps(doc))
        assert (str(got.value), got.value.path) == (str(exc), exc.path)
    else:
        assert deserialize(json.dumps(doc)).gates[1] == want


# -- reset levels ------------------------------------------------------------


def test_reset_levels_spacer_consts_and_ack():
    b = NetlistBuilder(Protocol.RTZ)
    x = b.dual_rail_input("x")
    ack = b.input_net("ack", reset=1)
    k = b.const_net(0)
    y1 = b.gate(GateKind.C2, (x.rail1, ack))
    y0 = b.gate(GateKind.C2, (x.rail0, ack))
    done = b.gate(GateKind.OR2, (y1, y0))
    b.mark_output("y", y1, y0)
    nl = b.build(ack_out=done, ack_in=ack)
    levels = nl.reset_levels()
    assert levels[x.rail1] == 0 and levels[x.rail0] == 0
    assert levels[k] == 0
    assert levels[ack] == 1
    assert levels[done] == 0


@given(st.integers(0, 1), st.sampled_from(list(Protocol)))
def test_encode_puts_one_active_rail(bit, protocol):
    r1, r0 = encode(bit, protocol)
    active = protocol.active_level
    assert (r1 == active) == (bit == 1)
    assert (r0 == active) == (bit == 0)
