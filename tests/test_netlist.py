"""Core IR: encodings, gate semantics, validation, duality, JSON round trips."""

import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import (
    ARITY,
    DUAL_KIND,
    DualRailPort,
    DualRailValue,
    Gate,
    GateKind,
    InvalidNetlistError,
    Netlist,
    NetlistBuilder,
    ParseError,
    Protocol,
    decode,
    deserialize,
    dualize,
    encode,
    eval_kind,
    serialize,
    validate,
)

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
# independently of eval_kind.
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
            assert eval_kind(kind, vec, state) == BOOL_ORACLE[kind](vec)


@pytest.mark.parametrize("kind,arity", [(GateKind.C2, 2), (GateKind.C3, 3)])
def test_c_element_holds_unless_inputs_agree(kind, arity):
    for vec in itertools.product((0, 1), repeat=arity):
        for state in (0, 1):
            expected = vec[0] if len(set(vec)) == 1 else state
            assert eval_kind(kind, vec, state) == expected


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
    """A mutated document must give a netlist, a ParseError or an InvalidNetlistError."""
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
