"""Cell library: truth tables vs frozen oracles, gate censuses, handshakes."""

import itertools
import re

import pytest

from qdimul.cells import (
    FullAdderKind,
    make_and2_strong,
    make_completion_detector,
    make_constant_source,
    make_full_adder,
    make_register_bank,
)
from qdimul.netlist import DualRailValue, GateKind, Protocol, dualize, encode
from qdimul.sim import reset

PROTOCOLS = list(Protocol)
FA_KINDS = list(FullAdderKind)


def full_adder_oracle(a, b, cin):
    total = a + b + cin
    return total & 1, total >> 1


def apply_bit(st, port, bit):
    proto = st.netlist.protocol
    if bit is None:
        st.set_primary(port.rail1, proto.spacer_level)
        st.set_primary(port.rail0, proto.spacer_level)
    else:
        r1, r0 = encode(bit, proto)
        st.set_primary(port.rail1, r1)
        st.set_primary(port.rail0, r0)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("kind", FA_KINDS)
def test_full_adder_matches_arithmetic_oracle(kind, protocol):
    cell = make_full_adder(kind, protocol)
    ports = cell.ports
    for a, b, cin in itertools.product((0, 1), repeat=3):
        st = reset(cell.netlist)
        apply_bit(st, ports["a"], a)
        apply_bit(st, ports["b"], b)
        apply_bit(st, ports["cin"], cin)
        st.run_until_quiescent()
        want_sum, want_cout = full_adder_oracle(a, b, cin)
        assert st.read_port("sum").bit == want_sum
        assert st.read_port("cout").bit == want_cout
        for p in ports.values():
            if p.direction == "in":
                apply_bit(st, p, None)
        st.run_until_quiescent()
        assert st.read_port("sum") is DualRailValue.SPACER
        assert st.read_port("cout") is DualRailValue.SPACER
        assert st.levels == cell.netlist.reset_levels()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_and_cell_matches_boolean_oracle(protocol):
    cell = make_and2_strong(protocol)
    for a, b in itertools.product((0, 1), repeat=2):
        st = reset(cell.netlist)
        apply_bit(st, cell.ports["a"], a)
        apply_bit(st, cell.ports["b"], b)
        st.run_until_quiescent()
        assert st.read_port("z").bit == (a & b)


@pytest.mark.parametrize(
    "tree_c3,tree_or4", [(False, False), (True, False), (False, True), (True, True)]
)
def test_dims_tree_variants_keep_the_truth_table(tree_c3, tree_or4):
    cell = make_full_adder(
        FullAdderKind.DIMS_STRONG, Protocol.RTZ, c3_as_tree=tree_c3, or4_as_tree=tree_or4
    )
    for a, b, cin in itertools.product((0, 1), repeat=3):
        st = reset(cell.netlist)
        apply_bit(st, cell.ports["a"], a)
        apply_bit(st, cell.ports["b"], b)
        apply_bit(st, cell.ports["cin"], cin)
        st.run_until_quiescent()
        assert (st.read_port("sum").bit, st.read_port("cout").bit) == full_adder_oracle(
            a, b, cin
        )


# -- censuses (frozen structure of each cell) ----------------------------------


def census(netlist):
    return {k.value: v for k, v in netlist.gate_census().items()}


def test_dims_adder_census():
    nl = make_full_adder(FullAdderKind.DIMS_STRONG, Protocol.RTZ).netlist
    assert census(nl) == {"c3": 8, "or4": 4}


def test_dims_adder_census_with_trees():
    nl = make_full_adder(FullAdderKind.DIMS_STRONG, Protocol.RTZ, c3_as_tree=True).netlist
    assert census(nl) == {"c2": 16, "or4": 4}
    nl = make_full_adder(FullAdderKind.DIMS_STRONG, Protocol.RTZ, or4_as_tree=True).netlist
    assert census(nl) == {"c3": 8, "or2": 12}


def test_weak_adder_census():
    nl = make_full_adder(FullAdderKind.WEAK_DISJOINT, Protocol.RTZ).netlist
    assert census(nl) == {"c3": 8, "or4": 2, "c2": 2, "or3": 2}


def test_majority_adder_census():
    nl = make_full_adder(FullAdderKind.MAJORITY_CONTROL, Protocol.RTZ).netlist
    assert census(nl) == {"c3": 8, "or4": 2, "c2": 6, "or3": 2}


def test_and_cell_census():
    nl = make_and2_strong(Protocol.RTZ).netlist
    assert census(nl) == {"c2": 4, "or3": 1}


def test_completion_detector_census():
    nl = make_completion_detector(5, Protocol.RTZ).netlist
    assert census(nl) == {"or2": 5, "c2": 4}


def test_register_bank_census():
    nl = make_register_bank(3, Protocol.RTZ).netlist
    assert census(nl) == {"c2": 6}


@pytest.mark.parametrize("kind", FA_KINDS)
def test_rto_cells_are_exact_duals(kind):
    rtz = make_full_adder(kind, Protocol.RTZ).netlist
    rto = make_full_adder(kind, Protocol.RTO).netlist
    assert rto == dualize(rtz)
    assert dualize(rto) == rtz


def test_rto_census_swaps_gate_families():
    nl = make_completion_detector(3, Protocol.RTO).netlist
    assert census(nl) == {"and2": 3, "c2": 2}


# -- completion detector behaviour ------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_completion_asserts_only_when_every_port_has_data(protocol):
    cell = make_completion_detector(3, protocol)
    ack = cell.netlist.ack_out
    active, spacer = protocol.active_level, protocol.spacer_level
    for present in itertools.product((0, 1), repeat=3):
        st = reset(cell.netlist)
        for i in range(3):
            if present[i]:
                apply_bit(st, cell.ports[f"x{i}"], i & 1)
        st.run_until_quiescent()
        expected = active if all(present) else spacer
        assert st.levels[ack] == expected


def test_completion_releases_only_when_every_port_is_spacer():
    cell = make_completion_detector(3, Protocol.RTZ)
    ack = cell.netlist.ack_out
    st = reset(cell.netlist)
    for i in range(3):
        apply_bit(st, cell.ports[f"x{i}"], 1)
    st.run_until_quiescent()
    assert st.levels[ack] == 1
    apply_bit(st, cell.ports["x0"], None)
    st.run_until_quiescent()
    assert st.levels[ack] == 1  # still holding: x1, x2 carry data
    apply_bit(st, cell.ports["x1"], None)
    apply_bit(st, cell.ports["x2"], None)
    st.run_until_quiescent()
    assert st.levels[ack] == 0


@pytest.mark.parametrize("n_ports, refused", [
    (0, "n_ports must be at least 1, got 0"),
    (True, "n_ports must be an int, got True"),
    (2.5, "n_ports must be an int, got 2.5"),
    ("2", "n_ports must be an int, got '2'"),
], ids=["0", "bool", "float", "str"])
@pytest.mark.parametrize("make", [make_completion_detector, make_register_bank])
def test_completion_detector_needs_at_least_one_port(make, n_ports, refused):
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        make(n_ports, Protocol.RTZ)


@pytest.mark.parametrize("bit", [2, -1, True, False, 1.0, "1", None])
def test_constant_source_refuses_a_bit_that_is_not_0_or_1(bit):
    refused = f"bit must be the int 0 or 1, got {bit!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        make_constant_source(bit, Protocol.RTZ)


#: Each cell constructor, called with one argument of the wrong type, and
#: what it must refuse, in ``MultiplierSpec``'s wording.
MISTYPED_CELL_ARGUMENTS = {
    "and2-protocol": (lambda: make_and2_strong("rto"), "protocol must be a Protocol, got 'rto'"),
    "adder-kind": (lambda: make_full_adder("dims"), "kind must be a FullAdderKind, got 'dims'"),
    "adder-protocol": (lambda: make_full_adder(FullAdderKind.WEAK_DISJOINT, None),
                       "protocol must be a Protocol, got None"),
    "adder-c3": (lambda: make_full_adder(FullAdderKind.DIMS_STRONG, c3_as_tree="no"),
                 "c3_as_tree must be a bool, got 'no'"),
    "adder-or4": (lambda: make_full_adder(FullAdderKind.DIMS_STRONG, or4_as_tree=1),
                  "or4_as_tree must be a bool, got 1"),
    "completion-protocol": (lambda: make_completion_detector(2, "rtz"),
                            "protocol must be a Protocol, got 'rtz'"),
    "register-protocol": (lambda: make_register_bank(2, 0), "protocol must be a Protocol, got 0"),
    "constant-protocol": (lambda: make_constant_source(1, "rto"),
                          "protocol must be a Protocol, got 'rto'"),
}


@pytest.mark.parametrize("case", MISTYPED_CELL_ARGUMENTS.values(), ids=MISTYPED_CELL_ARGUMENTS)
def test_cell_constructors_refuse_an_argument_of_the_wrong_type(case):
    # a truthy "no" would build the 20-gate tree adder, a str protocol fail on .value
    make, refused = case
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        make()


# -- registers ----------------------------------------------------------------


def test_register_passes_data_when_ack_ready_and_blocks_otherwise():
    cell = make_register_bank(1, Protocol.RTZ)
    ack = cell.netlist.ack_in
    st = reset(cell.netlist)
    apply_bit(st, cell.ports["x0"], 1)
    st.run_until_quiescent()
    assert st.read_port("y0").bit == 1  # ack resets ready

    st = reset(cell.netlist)
    st.set_primary(ack, 0)
    st.run_until_quiescent()
    apply_bit(st, cell.ports["x0"], 1)
    st.run_until_quiescent()
    assert st.read_port("y0") is DualRailValue.SPACER  # blocked
    st.set_primary(ack, 1)
    st.run_until_quiescent()
    assert st.read_port("y0").bit == 1  # released


def test_register_holds_data_and_still_propagates_spacer_while_ack_busy():
    cell = make_register_bank(1, Protocol.RTZ)
    ack = cell.netlist.ack_in
    st = reset(cell.netlist)
    apply_bit(st, cell.ports["x0"], 1)
    st.run_until_quiescent()
    st.set_primary(ack, 0)
    st.run_until_quiescent()
    assert st.read_port("y0").bit == 1  # held: inputs disagree, C-element keeps state
    apply_bit(st, cell.ports["x0"], None)
    st.run_until_quiescent()
    # the all-idle spacer is the one pattern that crosses a busy register,
    # which is what lets the reset half of the handshake finish
    assert st.read_port("y0") is DualRailValue.SPACER


# -- constant sources -----------------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("bit", [0, 1])
def test_constant_source_follows_the_phase_line(bit, protocol):
    cell = make_constant_source(bit, protocol)
    phase = cell.netlist.phase_net
    st = reset(cell.netlist)
    assert st.read_port("z") is DualRailValue.SPACER
    st.set_primary(phase, protocol.active_level)
    st.run_until_quiescent()
    assert st.read_port("z").bit == bit
    st.set_primary(phase, protocol.spacer_level)
    st.run_until_quiescent()
    assert st.read_port("z") is DualRailValue.SPACER


def test_constant_source_uses_no_inverter():
    for bit in (0, 1):
        for protocol in PROTOCOLS:
            nl = make_constant_source(bit, protocol).netlist
            assert GateKind.NOT not in nl.gate_census()
