"""Event engine: delay models, ordering, determinism, replay, trace export."""

import io
import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

import golden
from qdimul.harness import Harness, _input_events
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import (
    ARITY,
    FAMILY,
    DualRailPort,
    Gate,
    GateKind,
    InvalidNetlistError,
    Netlist,
    NetlistBuilder,
    Protocol,
    eval_family,
)
from qdimul.sim import (
    DelayMode,
    DelayModel,
    NonQuiescentError,
    NotPrimaryError,
    SimState,
    replay,
    reset,
    write_trace_csv,
    write_trace_vcd,
)
from test_queue_disciplines import force, pending


def chain_netlist(length=3, kind=GateKind.OR2):
    b = NetlistBuilder(Protocol.RTZ)
    x = b.input_net("x")
    net = x
    for _ in range(length):
        net = b.gate(kind, (net, net))
    b.mark_output("y", net, x)
    return b.build(), x, net


def c2_netlist():
    b = NetlistBuilder(Protocol.RTZ)
    x = b.input_net("x")
    y = b.input_net("y")
    z = b.gate(GateKind.C2, (x, y))
    b.mark_output("z", z, x)
    return b.build(), x, y, z


# -- delay models ---------------------------------------------------------


def test_unit_delay_is_one_for_everything():
    dm = DelayModel.unit()
    assert dm.delay_of(0, GateKind.C2) == 1
    assert dm.delay_of(999, GateKind.OR4) == 1


def test_fixed_table_lookup_and_missing_kind():
    dm = DelayModel.fixed_table({GateKind.OR2: 3, GateKind.C2: 7})
    assert dm.delay_of(0, GateKind.OR2) == 3
    assert dm.delay_of(1, GateKind.C2) == 7
    with pytest.raises(ValueError):
        dm.delay_of(2, GateKind.C3)


def test_fixed_table_rejects_nonpositive_delay():
    with pytest.raises(ValueError):
        DelayModel.fixed_table({GateKind.OR2: 0})


@pytest.mark.parametrize("delay", [True, 2.0, "3", None])
def test_fixed_table_rejects_non_integer_delay(delay):
    with pytest.raises(ValueError, match="positive integer"):
        DelayModel.fixed_table({GateKind.OR2: delay})


def test_random_model_rejects_bad_bounds():
    with pytest.raises(ValueError):
        DelayModel.random_per_gate(0, 5)
    with pytest.raises(ValueError):
        DelayModel.random_per_gate(9, 5)


@pytest.mark.parametrize("lo, hi, seed", [
    (True, True, 0), (1, True, 0), (1.5, 3, 0), (1, 3.0, 0), ("1", 3, 0), (1, 3, True),
    (1, 3, 1.0), (1, 3, None),
])
def test_random_model_rejects_non_integer_arguments(lo, hi, seed):
    with pytest.raises(ValueError, match="must be an integer"):
        DelayModel.random_per_gate(lo, hi, seed)


ZEROS = tuple((k, 0) for k in GateKind)


@pytest.mark.parametrize("fields", [
    dict(mode=DelayMode.RANDOM_PER_GATE, lo=0, hi=0),
    dict(mode=DelayMode.RANDOM_PER_GATE, lo=-3),
    dict(mode=DelayMode.RANDOM_PER_GATE, lo=1.5, hi=3.5),
    dict(mode=DelayMode.RANDOM_PER_GATE, lo=True, hi=True),
    dict(mode=DelayMode.RANDOM_PER_GATE, seed=None),
    dict(mode=DelayMode.RANDOM_PER_GATE, lo=5, hi=4),
    dict(mode=DelayMode.FIXED_TABLE, table=ZEROS),
    dict(mode=DelayMode.FIXED_TABLE, table=((GateKind.OR2, True),)),
    dict(mode=DelayMode.FIXED_TABLE, table=((GateKind.OR2, 2.0),)),
    dict(mode=DelayMode.FIXED_TABLE, table=(("or2", 3),)),
    dict(mode=DelayMode.FIXED_TABLE, table=((GateKind.OR2, 3), (GateKind.OR2, 4))),
    dict(mode=DelayMode.FIXED_TABLE, table=((GateKind.OR2, 3, 4),)),
    dict(mode=DelayMode.FIXED_TABLE, table={GateKind.OR2: 3}),
    dict(mode="unit"),
], ids=["lo-0-hi-0", "lo-minus-3", "float-bounds", "bool-bounds", "seed-none", "hi-below-lo",
        "table-of-zeros", "bool-delay", "float-delay", "str-kind", "kind-twice", "triple",
        "dict-table", "str-mode"])
def test_direct_construction_refuses_what_the_mode_cannot_use(fields):
    # each of these once built a model: the first ran cycles with forward =
    # reverse = 0, lo=-3 failed mid-cycle and 1.5..3.5 gave latencies of 27.0
    with pytest.raises(ValueError):
        DelayModel(**fields)


def test_direct_construction_accepts_what_the_factories_build():
    table = {GateKind.C2: 7, GateKind.OR2: 3}
    assert DelayModel(DelayMode.FIXED_TABLE, tuple(table.items())) == DelayModel.fixed_table(table)
    assert DelayModel(DelayMode.RANDOM_PER_GATE, lo=2, hi=2, seed=-4) == \
        DelayModel.random_per_gate(2, 2, -4)
    # a unit model ignores the fields it does not use
    assert DelayModel(DelayMode.UNIT, lo=0, hi=0, seed=None).delay_of(3, GateKind.C2) == 1
    nl = generate(MultiplierSpec(2))
    reports = Harness(nl, DelayModel(DelayMode.FIXED_TABLE, tuple((k, 2) for k in GateKind))
                      ).run_sequence([(3, 2)])
    assert reports[0].forward == 2 * Harness(nl).run_cycle(3, 2).forward


@given(st.integers(0, 2**31), st.integers(0, 500))
def test_random_delay_is_a_pure_function_of_seed_and_gate(seed, gate_id):
    dm = DelayModel.random_per_gate(1, 20, seed)
    d = dm.delay_of(gate_id, GateKind.C2)
    assert 1 <= d <= 20
    assert d == DelayModel.random_per_gate(1, 20, seed).delay_of(gate_id, GateKind.C2)


def test_random_delay_varies_across_gates():
    dm = DelayModel.random_per_gate(1, 20, seed=0)
    delays = {dm.delay_of(g, GateKind.C2) for g in range(64)}
    assert len(delays) > 1


#: Gates of the largest stage the tests simulate (weak 16x16).
GATES_16 = 4767


def stream_delays(lo, hi, seed, count):
    """The documented mapping: gate k gets the k-th draw of one seeded stream."""
    u = random.Random(f"{seed}").random
    return [lo + int(u() * (hi - lo + 1)) for _ in range(count)]


@pytest.mark.parametrize("lo, hi, seed", [(1, 20, 0), (1, 20, 7), (3, 9, -5), (1, 1, 2)])
def test_random_delay_of_gate_k_is_the_kth_draw_of_one_stream(lo, hi, seed):
    want = stream_delays(lo, hi, seed, GATES_16)
    dm = DelayModel.random_per_gate(lo, hi, seed)
    assert [dm.delay_of(g, GateKind.C2) for g in range(GATES_16)] == want
    assert DelayModel.random_per_gate(lo, hi, seed)._random_prefix(GATES_16) == want


def test_random_prefix_drawn_in_pieces_equals_one_drawn_at_once():
    pieces = DelayModel.random_per_gate(1, 20, seed=7)
    assert pieces._random_prefix(1167) == stream_delays(1, 20, 7, 1167)
    assert pieces._random_prefix(GATES_16) == stream_delays(1, 20, 7, GATES_16)
    assert pieces._random_prefix(5) == stream_delays(1, 20, 7, 5)
    # delay_of reads the memo: a late gate id extends it, an early one reads it
    late = DelayModel.random_per_gate(1, 20, seed=7)
    assert late.delay_of(GATES_16 - 1, GateKind.C2) == pieces._random_prefix(GATES_16)[-1]
    assert late.delay_of(0, GateKind.C2) == pieces.delay_of(0, GateKind.C2)
    assert late._drawn == pieces._drawn


def test_random_delay_refuses_a_negative_gate_id():
    with pytest.raises(ValueError, match="non-negative"):
        DelayModel.random_per_gate(1, 20, seed=7).delay_of(-1, GateKind.C2)


def test_negative_seed_names_other_delays_than_its_absolute_value():
    assert (DelayModel.random_per_gate(1, 20, seed=-5)._random_prefix(64)
            != DelayModel.random_per_gate(1, 20, seed=5)._random_prefix(64))


@pytest.mark.parametrize("seed", [0, 5, 13])
def test_random_delays_cover_the_whole_range_within_a_16x16_stage(seed):
    assert set(DelayModel.random_per_gate(1, 20, seed)._random_prefix(GATES_16)) == set(
        range(1, 21))


# -- propagation ----------------------------------------------------------


def test_transport_delay_accumulates_along_a_chain():
    nl, x, out = chain_netlist(length=4)
    st_ = reset(nl, DelayModel.fixed_table({GateKind.OR2: 5}))
    st_.set_primary(x, 1)
    elapsed = st_.run_until_quiescent()
    assert elapsed == 20
    assert st_.levels[out] == 1


def test_c_element_waits_for_agreement_then_holds():
    nl, x, y, z = c2_netlist()
    st_ = reset(nl)
    st_.set_primary(x, 1)
    st_.run_until_quiescent()
    assert st_.levels[z] == 0
    st_.set_primary(y, 1)
    st_.run_until_quiescent()
    assert st_.levels[z] == 1
    st_.set_primary(x, 0)
    st_.run_until_quiescent()
    assert st_.levels[z] == 1  # holds until both agree low
    st_.set_primary(y, 0)
    st_.run_until_quiescent()
    assert st_.levels[z] == 0


def test_set_primary_rejects_internal_nets():
    nl, x, out = chain_netlist()
    st_ = reset(nl)
    with pytest.raises(NotPrimaryError):
        st_.set_primary(out, 1)


def test_set_primary_same_level_is_a_no_op():
    nl, x, _ = chain_netlist()
    st_ = reset(nl)
    st_.set_primary(x, 0)
    assert st_.quiescent
    assert st_.run_until_quiescent() == 0
    assert st_.trace == []


def test_set_primary_refuses_an_event_before_a_pending_one():
    nl, x, _ = chain_netlist()
    st_ = reset(nl)
    st_.set_primary(x, 1, at_time=5)
    with pytest.raises(ValueError, match="already has an event after"):
        st_.set_primary(x, 0, at_time=3)
    st_.run_until_quiescent()
    assert [e[:3] for e in st_.trace if e[1] == x] == [(5, x, 1)]


def test_set_primary_reasserting_the_projected_level_is_a_no_op():
    nl, x, _ = chain_netlist()
    st_ = reset(nl)
    st_.set_primary(x, 1, at_time=2)
    st_.set_primary(x, 1, at_time=4)  # already heading for 1
    st_.run_until_quiescent()
    assert [e[:3] for e in st_.trace if e[1] == x] == [(2, x, 1)]


def test_set_primary_pulse_keeps_both_events():
    nl, x, out = chain_netlist(length=2)
    st_ = reset(nl)
    st_.set_primary(x, 1, at_time=3)
    st_.set_primary(x, 0, at_time=6)
    st_.run_until_quiescent()
    assert [e[:3] for e in st_.trace if e[1] == x] == [(3, x, 1), (6, x, 0)]
    assert [e[:3] for e in st_.trace if e[1] == out] == [(5, out, 1), (8, out, 0)]
    assert st_.levels == nl.reset_levels()


def test_set_primary_rejects_bad_level_and_past_time():
    nl, x, _ = chain_netlist()
    st_ = reset(nl)
    # True and 1.0 compare equal to 1 but are not levels
    for bad in (2, True, 1.0):
        with pytest.raises(ValueError, match="level must be 0 or 1"):
            st_.set_primary(x, bad)
    assert st_.quiescent
    st_.set_primary(x, 1)
    st_.run_until_quiescent()
    with pytest.raises(ValueError):
        st_.set_primary(x, 0, at_time=0)


@pytest.mark.parametrize("at_time", [2.5, True, "3"], ids=["float", "bool", "str"])
def test_set_primaries_refuses_a_time_that_is_not_an_int(at_time):
    nl, x, y, _ = c2_netlist()
    st_ = reset(nl)
    refused = re.escape(f"at_time must be an int or None, got {at_time!r}")
    with pytest.raises(ValueError, match=refused):
        st_.set_primaries([(x, 1), (y, 1)], at_time)
    with pytest.raises(ValueError, match=refused):
        st_.set_primary(x, 1, at_time)
    assert st_.quiescent and st_.trace == [] and st_.clock == 0
    # None is the clock
    st_.set_primaries([(x, 1), (y, 1)], None)
    st_.run_until_quiescent()
    assert [e[:3] for e in st_.trace if e[1] in (x, y)] == [(0, x, 1), (0, y, 1)]


@pytest.mark.parametrize("max_time", ["9", None, True, 2.5, -1],
                         ids=["str", "none", "bool", "float", "negative"])
@pytest.mark.parametrize("discipline", ["heap", "one_list"])
def test_run_until_quiescent_refuses_a_bad_max_time_before_running(max_time, discipline):
    # a 2x2 stage mid data phase: the refusal leaves every pending event
    nl = generate(MultiplierSpec(n=2))
    model = DelayModel.random_per_gate(1, 5, seed=1) if discipline == "heap" else DelayModel.unit()
    st_ = force(reset(nl, model), discipline)
    st_.set_primary(nl.phase_net, Protocol.RTZ.active_level)
    st_.set_primaries([e for entry in _input_events(nl) for e in entry[1]])
    before = (st_.clock, list(st_.levels), list(st_.trace), st_.quiescent)
    with pytest.raises(ValueError, match=re.escape(f"got {max_time!r}")):
        st_.run_until_quiescent(max_time)
    assert (st_.clock, st_.levels, st_.trace, st_.quiescent) == before
    assert not st_.quiescent
    st_.run_until_quiescent()
    assert st_.levels[nl.ack_out] == Protocol.RTZ.active_level


@pytest.mark.parametrize("delay_model", ["unit", 3, 0, "", DelayMode.UNIT],
                         ids=["str", "int", "zero", "empty", "mode"])
def test_a_delay_model_that_is_not_one_is_refused(delay_model):
    nl = generate(MultiplierSpec(n=2))
    refused = re.escape(f"delay_model must be a DelayModel or None, got {delay_model!r}")
    for make in (reset, SimState, Harness):
        with pytest.raises(ValueError, match=refused):
            make(nl, delay_model)
    assert reset(nl).delay_model is reset(nl, None).delay_model is DelayModel.unit()


def test_guard_trips_on_slow_circuit():
    nl, x, _ = chain_netlist(length=6)
    st_ = reset(nl, DelayModel.fixed_table({GateKind.OR2: 10}))
    st_.set_primary(x, 1)
    with pytest.raises(NonQuiescentError):
        st_.run_until_quiescent(max_time=15)


def test_trace_events_are_time_ordered_and_cause_tagged():
    nl, x, out = chain_netlist(length=3)
    st_ = reset(nl)
    st_.set_primary(x, 1)
    st_.run_until_quiescent()
    times = [e[0] for e in st_.trace]
    assert times == sorted(times)
    assert st_.trace[0][3] == -1  # environment event
    assert all(e[3] >= 0 for e in st_.trace[1:])


def test_identical_runs_produce_identical_traces():
    def run():
        nl, x, _ = chain_netlist(length=5)
        st_ = reset(nl, DelayModel.random_per_gate(1, 9, seed=3))
        st_.set_primary(x, 1)
        st_.run_until_quiescent()
        st_.set_primary(x, 0)
        st_.run_until_quiescent()
        return st_.trace

    assert run() == run()


def acknowledged(nl, ack_out, ack_in):
    """``nl`` with ``ack_out`` and ``ack_in`` declared (None leaves one out)."""
    return Netlist(nl.protocol, nl.gates, nl.input_ports, nl.output_ports,
                   ack_out=ack_out, ack_in=ack_in, extra_inputs=nl.extra_inputs, meta=nl.meta)


def test_until_ack_returns_early():
    nl, x, out = chain_netlist(length=5)
    mid = nl.gates[1].output
    nl = acknowledged(nl, mid, nl.net_count)
    st_ = reset(nl)
    st_.set_primary(x, 1)
    st_.run_until_quiescent(until_ack=1)
    assert st_.levels[mid] == 1 and st_.levels[nl.ack_in] == 0
    assert st_.ack_edges == [(2, 1)] and st_.clock == 2
    assert not st_.quiescent
    st_.run_until_quiescent()
    assert st_.levels[out] == 1


@pytest.mark.parametrize("until_ack", ["1", True, 2, -1, 1.0],
                         ids=["str", "bool", "two", "negative", "float"])
@pytest.mark.parametrize("discipline", ["heap", "one_list", "per_gate"])
def test_run_until_quiescent_refuses_a_stop_that_cannot_fire(until_ack, discipline):
    # a 2x2 stage mid data phase: the refusal leaves every pending event
    nl = generate(MultiplierSpec(n=2))
    st_ = loop_state(nl, discipline)
    st_.set_primary(nl.phase_net, Protocol.RTZ.active_level)
    st_.set_primaries([e for entry in _input_events(nl) for e in entry[1]])
    before = pending(st_)
    refused = re.escape(f"until_ack must be None, 0 or 1, got {until_ack!r}")
    with pytest.raises(ValueError, match=refused):
        st_.run_until_quiescent(until_ack=until_ack)
    assert pending(st_) == before and not st_.quiescent
    # a netlist whose ack_out is not mirrored could never stop
    chain, _, _ = chain_netlist()
    for ack_out in (None, chain.gates[0].output):
        st_ = loop_state(acknowledged(chain, ack_out, None), discipline)
        st_.set_primary(chain.extra_inputs[0], 1)
        before = pending(st_)
        with pytest.raises(ValueError, match="until_ack needs a netlist with ack_out and ack_in"):
            st_.run_until_quiescent(until_ack=1)
        assert pending(st_) == before and not st_.quiescent


def test_take_trace_drains():
    nl, x, _ = chain_netlist()
    st_ = reset(nl)
    st_.set_primary(x, 1)
    st_.run_until_quiescent()
    events = st_.take_trace()
    assert events and st_.trace == []


def loop_state(netlist, discipline):
    """A fresh state on ``discipline`` (``force``'s names): ``one_list`` under
    unit delays, the heap or ``per_gate`` under random ones."""
    if discipline == "one_list":
        return force(reset(netlist), "one_list")
    return force(reset(netlist, DelayModel.random_per_gate(1, 20, seed=3)), discipline)


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("shared", [None, "ack_out", "ack_in"])
@pytest.mark.parametrize("discipline", ["heap", "one_list", "per_gate"])
def test_port_events_are_the_trace_on_port_rails(discipline, shared, protocol):
    nl = generate(MultiplierSpec(2, protocol=protocol))
    if shared is not None:  # an extra port whose true rail is an acknowledge net
        extra = DualRailPort("K", getattr(nl, shared), nl.output_ports[0].rail0, "out")
        nl = Netlist(nl.protocol, nl.gates, nl.input_ports, nl.output_ports + (extra,),
                     ack_out=nl.ack_out, ack_in=nl.ack_in, const_nets=nl.const_nets,
                     phase_net=nl.phase_net, extra_inputs=nl.extra_inputs, meta=nl.meta)
    rails = {r for p in nl.ports for r in (p.rail1, p.rail0)}
    active, spacer = protocol.active_level, protocol.spacer_level
    st_ = loop_state(nl, discipline)

    def on_rails():
        return [e for e in st_.trace if e[1] in rails]

    data = [e for entry, bit in zip(_input_events(nl), (1, 0, 1, 1)) for e in entry[bit]]
    st_.set_primary(nl.phase_net, active)
    st_.set_primaries(data)
    # an early return at the acknowledge edge, then the rest of the phase
    st_.run_until_quiescent(until_ack=active)
    assert st_.levels[nl.ack_out] == active
    assert st_.port_events and st_.port_events == on_rails()
    st_.run_until_quiescent()
    assert st_.port_events == on_rails()
    assert st_.ack_edges == [(t, lv) for t, n, lv, _ in st_.trace if n == nl.ack_out]
    assert any(e[1] == nl.ack_out for e in st_.port_events) == (shared == "ack_out")
    # re-asserted levels schedule nothing and record nothing
    recorded = list(st_.port_events)
    st_.set_primaries(data)
    st_.set_primary(nl.phase_net, active)
    assert st_.quiescent
    st_.run_until_quiescent()
    assert st_.port_events == recorded
    # take_trace clears the record with the trace
    assert st_.take_trace() and st_.port_events == [] and st_.ack_edges == []
    st_.set_primary(nl.phase_net, spacer)
    st_.set_primaries([e for entry in _input_events(nl) for e in entry[2]])
    st_.run_until_quiescent()
    assert st_.port_events and st_.port_events == on_rails()
    assert st_.levels == nl.reset_levels()


def test_replay_reaches_the_same_final_levels():
    nl, x, _ = chain_netlist(length=4)
    st_ = reset(nl, DelayModel.random_per_gate(1, 7, seed=11))
    st_.set_primary(x, 1)
    st_.run_until_quiescent()
    assert replay(nl, st_.trace) == st_.levels


def test_read_port_by_name():
    nl, x, out = chain_netlist()
    st_ = reset(nl)
    assert st_.read_port("y").name == "SPACER"
    with pytest.raises(KeyError):
        st_.read_port("nope")


def test_reset_requires_quiescent_reset_state():
    b = NetlistBuilder(Protocol.RTZ)
    x = b.input_net("x")
    g = b.gate(GateKind.OR2, (x, x))
    nl = b.build()
    # forge a contradictory reset level on the gate
    bad_gate = Gate(0, GateKind.OR2, nl.gates[0].inputs, nl.gates[0].output, 1)
    bad = Netlist(Protocol.RTZ, [bad_gate], extra_inputs=[x])
    for _ in range(2):  # a failed compile is not cached
        with pytest.raises(ValueError, match="quiescent"):
            reset(bad)


def test_invalid_netlist_fails_every_reset():
    bad = Netlist(Protocol.RTZ, [Gate(0, GateKind.AND2, (0, 1, 2), 3, 0)],
                  extra_inputs=[0, 1, 2])
    for _ in range(2):
        with pytest.raises(InvalidNetlistError):
            reset(bad)


# -- one compiled plan per netlist -------------------------------------------


def test_states_on_one_netlist_are_independent():
    nl, x, y, z = c2_netlist()
    first, second = reset(nl), reset(nl)
    first.set_primary(x, 1)
    assert not first.quiescent and second.quiescent
    first.set_primary(y, 1)
    first.run_until_quiescent()
    assert first.levels[z] == 1 and second.levels[z] == 0
    assert first.trace and second.trace == []
    second.set_primary(x, 1)
    second.run_until_quiescent()
    assert second.levels[z] == 0
    assert [e[1] for e in second.trace] == [x]
    assert reset(nl).levels == nl.reset_levels()


@pytest.mark.parametrize("dm", [
    DelayModel.unit(),
    DelayModel.fixed_table({GateKind.OR2: 3, GateKind.C2: 7}),
    DelayModel.random_per_gate(1, 20, seed=9),
], ids=["unit", "fixed_table", "random"])
def test_delay_vector_is_memoised_per_model(dm):
    b = NetlistBuilder(Protocol.RTZ)
    x, y = b.input_net("x"), b.input_net("y")
    c = b.gate(GateKind.C2, (x, y))
    b.gate(GateKind.OR2, (c, x))
    nl = b.build()
    vector = reset(nl, dm)._gate_delay
    assert vector == [dm.delay_of(g.id, g.kind) for g in nl.gates]
    # an equal (not identical) model reuses the vector
    twin = DelayModel(dm.mode, dm.table, dm.lo, dm.hi, dm.seed)
    assert reset(nl, twin)._gate_delay is vector


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("sizes", [(16, 2), (2, 8)], ids=["16-then-2", "2-then-8"])
def test_random_draws_are_shared_across_netlists_of_any_size(sizes, protocol):
    dm = DelayModel.random_per_gate(1, 20, seed=11)
    uniform = DelayModel.random_per_gate(4, 4, seed=11)
    for n in sizes:
        nl = generate(MultiplierSpec(n, protocol=protocol))
        state = reset(nl, dm)
        assert state._gate_delay == [dm.delay_of(g.id, g.kind) for g in nl.gates]
        assert state._step is None
        # every gate drawing the same delay still selects the equal-delay batches
        assert reset(nl, uniform)._step == 4
    # drawn in pieces, in either order, the prefix is the one-go stream
    assert dm._drawn == stream_delays(1, 20, 11, len(dm._drawn))
    assert uniform._drawn == [4] * len(uniform._drawn)
    # the draws kept on a model are invisible to its value
    fresh = DelayModel.random_per_gate(1, 20, seed=11)
    assert dm == fresh and hash(dm) == hash(fresh)
    assert repr(dm) == repr(fresh) and dm.describe() == fresh.describe()


def _forged_gate(kind, ones, reset_level):
    """``kind`` as gate 1 behind a healthy NOT (gate 0), under RTZ.

    Its first ``ones`` inputs read a constant-1 net, the rest read primary
    inputs at 0; its output's reset level is ``reset_level``.
    """
    one, low = 1, list(range(3, 3 + ARITY[kind] - ones))
    gates = [Gate(0, GateKind.NOT, (0,), 2, 1),
             Gate(1, kind, (one,) * ones + tuple(low), 10, reset_level)]
    return Netlist(Protocol.RTZ, gates, const_nets=[(one, 1)], extra_inputs=[0, *low])


# (kind, inputs at 1, reset level) -> the error, recorded on the compile that
# evaluated each gate with eval_family
NOT_QUIESCENT = {
    (GateKind.AND3, 3, 0): "reset is not quiescent: gate 1 (and3) would drive 1, reset says 0",
    (GateKind.AND2, 1, 1): "reset is not quiescent: gate 1 (and2) would drive 0, reset says 1",
    (GateKind.OR2, 1, 0): "reset is not quiescent: gate 1 (or2) would drive 1, reset says 0",
    (GateKind.OR4, 0, 1): "reset is not quiescent: gate 1 (or4) would drive 0, reset says 1",
    (GateKind.NOT, 0, 0): "reset is not quiescent: gate 1 (not) would drive 1, reset says 0",
    (GateKind.NOT, 1, 1): "reset is not quiescent: gate 1 (not) would drive 0, reset says 1",
    (GateKind.C2, 0, 1): "reset is not quiescent: gate 1 (c2) would drive 0, reset says 1",
    (GateKind.C3, 3, 0): "reset is not quiescent: gate 1 (c3) would drive 1, reset says 0",
}


@pytest.mark.parametrize("case", list(NOT_QUIESCENT), ids=lambda c: f"{c[0].value}-{c[1]}")
def test_non_quiescent_reset_names_the_gate(case):
    with pytest.raises(ValueError) as err:
        reset(_forged_gate(*case))
    assert str(err.value) == NOT_QUIESCENT[case]


@pytest.mark.parametrize("kind, ones", [(GateKind.C2, 1), (GateKind.C3, 1), (GateKind.C3, 2)])
def test_c_element_with_disagreeing_inputs_holds_either_reset_level(kind, ones):
    for level in (0, 1):
        assert reset(_forged_gate(kind, ones, level)).levels[10] == level


def test_golden_trace_hash():
    # digest and inputs live in tests/golden.py, shared with tests/smoke.py
    assert golden.trace_digest() == golden.GOLDEN_TRACE_SHA256


def test_golden_trace_table_hash():
    assert golden.table_trace_digest() == golden.GOLDEN_TRACE_TABLE_SHA256


CONTRACT = {"netlist", "delay_model", "clock", "levels", "trace", "ack_edges", "port_events",
            "quiescent", "set_primary", "set_primaries", "run_until_quiescent", "read_port",
            "take_trace"}


def test_sim_state_provides_every_member_of_the_engine_contract():
    # the contract is SimState's members as the sim docstring and README list them
    nl = generate(MultiplierSpec(2))
    for dm in (DelayModel.unit(), DelayModel.random_per_gate(1, 20, seed=1)):
        state = reset(nl, dm)
        for name in CONTRACT:
            assert hasattr(state, name), name
        assert isinstance(vars(SimState)["quiescent"], property)


def test_golden_trace_hash_wide():
    assert golden.wide_trace_digest() == golden.GOLDEN_TRACE_WIDE_SHA256


def test_legacy_draws_reproduce_the_engine_digests():
    # the engine is unchanged: only which delays a seed names moved
    assert golden.legacy_trace_digest() == golden.LEGACY_DRAW_TRACE_SHA256
    assert golden.legacy_wide_trace_digest() == golden.LEGACY_DRAW_TRACE_WIDE_SHA256


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_engine_agrees_with_shared_evaluator(kind):
    # one gate; every prior input vector sets its output, then every vector
    # is applied at once and the engine must settle where eval_family says
    b = NetlistBuilder(Protocol.RTZ)
    ins = [b.input_net(f"x{i}") for i in range(ARITY[kind])]
    out = b.gate(kind, ins)
    nl = b.build()
    family, pins = FAMILY[kind], range(len(ins))
    vectors = list(itertools.product((0, 1), repeat=len(ins)))
    priors = set()
    for before in vectors:
        for vec in vectors:
            st_ = reset(nl)
            for net, level in zip(ins, before):
                st_.set_primary(net, level)
            st_.run_until_quiescent()
            prior = st_.levels[out]
            priors.add(prior)
            for net, level in zip(ins, vec):
                st_.set_primary(net, level)
            st_.run_until_quiescent()
            assert st_.levels[out] == eval_family(family, pins, vec, prior), (before, vec)
    assert priors == {0, 1}
    if len(ins) == 1:
        return
    # the same net on every pin: each pin counts, so the gate sees all-equal
    b = NetlistBuilder(Protocol.RTZ)
    x = b.input_net("x")
    out = b.gate(kind, [x] * len(ins))
    nl = b.build()
    st_ = reset(nl)
    for level in (1, 0, 1, 1, 0):
        prior = st_.levels[out]
        st_.set_primary(x, level)
        st_.run_until_quiescent()
        assert st_.levels[out] == eval_family(family, pins, [level] * len(ins), prior), level


# -- export -----------------------------------------------------------------


def test_csv_export_shape():
    nl, x, _ = chain_netlist(length=2)
    st_ = reset(nl)
    st_.set_primary(x, 1)
    st_.run_until_quiescent()
    buf = io.StringIO()
    write_trace_csv(st_.trace, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "time,net,level,cause"
    assert lines[1].endswith(",env")
    assert len(lines) == 1 + len(st_.trace)


def test_vcd_export_contains_declarations_and_changes():
    nl, x, _ = chain_netlist(length=2)
    st_ = reset(nl)
    st_.set_primary(x, 1)
    st_.run_until_quiescent()
    buf = io.StringIO()
    write_trace_vcd(nl, st_.trace, buf)
    text = buf.getvalue()
    assert "$enddefinitions" in text
    assert "$dumpvars" in text
    assert "#0" in text
    assert f"1n{x}" in text


@pytest.mark.parametrize("key", ["x", "1.5", None])
def test_vcd_export_names_a_net_names_key_that_is_no_net_id(key):
    nl, _, _ = chain_netlist(length=2)
    named = Netlist(nl.protocol, nl.gates, nl.input_ports, nl.output_ports,
                    meta={"net_names": {"0": "x", key: "k"}})
    with pytest.raises(ValueError, match=rf"^meta\.net_names key {re.escape(repr(key))} is not"):
        write_trace_vcd(named, [], io.StringIO())
