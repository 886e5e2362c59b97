"""Generator: structure counts, exhaustive products, paths, determinism."""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

import golden
from qdimul.cells import FullAdderKind
from qdimul.harness import Harness
from qdimul.metrics import design_label
from qdimul.multiplier import (
    MultiplierSpec,
    NotAGeneratedMultiplierError,
    critical_path,
    generate,
    structure_stats,
)
from qdimul.netlist import GateKind, Protocol, deserialize, dualize, serialize
from qdimul.cells import make_full_adder
from test_verify import _latched


def spec_strategy():
    return st.builds(
        MultiplierSpec,
        n=st.integers(2, 3),
        fa_kind=st.sampled_from(list(FullAdderKind)),
        protocol=st.sampled_from(list(Protocol)),
        c3_as_tree=st.booleans(),
        or4_as_tree=st.booleans(),
    )


def test_spec_rejects_tiny_operands():
    with pytest.raises(ValueError):
        MultiplierSpec(n=1)


@pytest.mark.parametrize("field, value", [
    ("n", 2.0), ("n", "3"), ("n", None), ("n", True),
    ("fa_kind", "weak"), ("fa_kind", None),
    ("protocol", "rto"), ("protocol", 1),
    ("c3_as_tree", "no"), ("c3_as_tree", 1), ("or4_as_tree", None),
])
def test_spec_refuses_a_field_of_the_wrong_type(field, value):
    # "rto" once built an RTZ stage and "no" a tree, recorded in the meta
    fields = {"n": 2, field: value}
    with pytest.raises(ValueError, match=f"{field}|width"):
        MultiplierSpec(**fields)


def test_design_name_mentions_all_choices():
    spec = MultiplierSpec(n=4, fa_kind=FullAdderKind.WEAK_DISJOINT, protocol=Protocol.RTO)
    assert design_label(generate(spec)) == "weak-rto-4x4"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_structure_counts_follow_the_square_formula(n):
    stats = structure_stats(generate(MultiplierSpec(n=n)))
    assert stats.and_cells == n * n
    assert stats.full_adders == n * (n - 1)
    assert stats.constant_carries == n
    assert stats.product_width == 2 * n


def test_structure_stats_requires_generated_netlist():
    cell = make_full_adder(FullAdderKind.DIMS_STRONG, Protocol.RTZ).netlist
    with pytest.raises(NotAGeneratedMultiplierError):
        structure_stats(cell)


def test_generated_netlist_is_valid_and_has_expected_ports():
    nl = generate(MultiplierSpec(n=3))
    nl.require_valid()
    in_names = [p.name for p in nl.input_ports]
    out_names = [p.name for p in nl.output_ports]
    assert in_names == ["a0", "a1", "a2", "b0", "b1", "b2"]
    assert out_names == [f"P{i}" for i in range(6)]
    assert nl.ack_out is not None and nl.ack_in is not None
    assert nl.phase_net is not None


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("kind", list(FullAdderKind))
def test_two_bit_products_exhaustively(kind, protocol):
    nl = generate(MultiplierSpec(n=2, fa_kind=kind, protocol=protocol))
    h = Harness(nl)
    for a, b in itertools.product(range(4), repeat=2):
        assert h.run_cycle(a, b).product == a * b


@pytest.mark.parametrize("kind", list(FullAdderKind))
def test_three_bit_products_exhaustively(kind):
    nl = generate(MultiplierSpec(n=3, fa_kind=kind))
    h = Harness(nl)
    for a, b in itertools.product(range(8), repeat=2):
        assert h.run_cycle(a, b).product == a * b


def test_tree_variants_multiply_correctly():
    nl = generate(MultiplierSpec(n=3, c3_as_tree=True, or4_as_tree=True))
    assert GateKind.C3 not in nl.gate_census()
    assert GateKind.OR4 not in nl.gate_census()
    h = Harness(nl)
    for a, b in [(0, 0), (7, 7), (5, 3), (6, 7)]:
        assert h.run_cycle(a, b).product == a * b


def test_rto_generation_equals_dualized_rtz():
    rtz = generate(MultiplierSpec(n=3))
    rto = generate(MultiplierSpec(n=3, protocol=Protocol.RTO))
    assert rto == dualize(rtz)
    assert dualize(rto) == rtz


def test_generation_is_deterministic():
    spec = MultiplierSpec(n=3, fa_kind=FullAdderKind.WEAK_DISJOINT)
    assert generate(spec) == generate(spec)
    assert serialize(generate(spec)) == serialize(generate(spec))


@settings(max_examples=20, deadline=None)
@given(spec_strategy())
def test_serialize_roundtrip_on_generated_designs(spec):
    nl = generate(spec)
    assert deserialize(serialize(nl)) == nl


@settings(max_examples=20, deadline=None)
@given(spec_strategy())
def test_dualize_involution_on_generated_designs(spec):
    nl = generate(spec)
    assert dualize(dualize(nl)) == nl


@pytest.mark.parametrize("kind", [FullAdderKind.DIMS_STRONG, FullAdderKind.WEAK_DISJOINT])
@pytest.mark.parametrize("n", [2, 3])
def test_critical_path_equals_worst_observed_forward_latency(kind, n):
    nl = generate(MultiplierSpec(n=n, fa_kind=kind))
    cp = critical_path(nl)
    h = Harness(nl)
    fwds = {h.run_cycle(a, b).forward
            for a, b in itertools.product(range(1 << n), repeat=2)}
    assert cp.length == max(fwds)
    assert all(f <= cp.length for f in fwds)


def test_critical_path_is_a_connected_gate_chain():
    nl = generate(MultiplierSpec(n=4))
    cp = critical_path(nl)
    assert len(cp.gates) == cp.length
    for prev, cur in zip(cp.gates, cp.gates[1:]):
        out = nl.gate_by_id[prev].output
        assert out in nl.gate_by_id[cur].inputs
    assert nl.gate_by_id[cp.gates[-1]].output == nl.ack_out


def test_critical_path_requires_generated_netlist():
    cell = make_full_adder(FullAdderKind.DIMS_STRONG, Protocol.RTZ).netlist
    with pytest.raises(NotAGeneratedMultiplierError):
        critical_path(cell)


def test_critical_path_digest_is_unchanged():
    assert golden.critical_path_digest() == golden.GOLDEN_CRITICAL_PATH_SHA256


@pytest.mark.parametrize("protocol", list(Protocol))
def test_critical_path_refuses_a_gate_cycle(protocol):
    # a C-element loop: valid, so the refusal is the gate order's
    stage = _latched(generate(MultiplierSpec(n=2, protocol=protocol)), 1)
    assert stage.validate() == []
    with pytest.raises(ValueError, match="CYCLE") as caught:
        critical_path(stage)
    assert caught.value.reason == "CYCLE"


def _meta_edited(field, value):
    """The 2x2 stage read back with ``meta[field]`` set to ``value``, or removed for None."""
    doc = json.loads(golden.STAGE_TEXT)
    doc["meta"].pop(field)
    if value is not None:
        doc["meta"][field] = value
    return deserialize(json.dumps(doc))


@pytest.mark.parametrize("field, value", [
    ("register_gates", None), ("register_gates", "x"), ("register_gates", [0, "1"]),
    ("counts", None), ("counts", [4, 2, 2]), ("counts", {"and_cells": 4}),
], ids=["no-register-gates", "register-gates-str", "register-gate-str", "no-counts",
        "counts-list", "counts-partial"])
@pytest.mark.parametrize("report", [critical_path, structure_stats])
def test_generator_metadata_of_the_wrong_shape_is_named(report, field, value):
    stage = _meta_edited(field, value)
    with pytest.raises(NotAGeneratedMultiplierError, match=field):
        report(stage)


def test_meta_counts_match_structure():
    nl = generate(MultiplierSpec(n=4))
    counts = nl.meta["counts"]
    assert counts == {"and_cells": 16, "full_adders": 12, "constant_carries": 4}
    assert nl.meta["operands"]["a"] == ["a0", "a1", "a2", "a3"]
    assert nl.meta["products"] == [f"P{i}" for i in range(8)]
