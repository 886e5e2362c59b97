"""Event engine: delay models, ordering, determinism, replay, trace export."""

import hashlib
import io
import itertools

import pytest
from hypothesis import given, strategies as st

import golden
from qdimul.cells import FullAdderKind
from qdimul.harness import Harness
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import (
    ARITY,
    Gate,
    GateKind,
    InvalidNetlistError,
    Netlist,
    NetlistBuilder,
    Protocol,
    eval_kind,
)
from qdimul.sim import (
    DelayModel,
    NonQuiescentError,
    NotPrimaryError,
    replay,
    reset,
    write_trace_csv,
    write_trace_vcd,
)
from qdimul.verify import default_pairs


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
    with pytest.raises(ValueError):
        st_.set_primary(x, 2)
    st_.set_primary(x, 1)
    st_.run_until_quiescent()
    with pytest.raises(ValueError):
        st_.set_primary(x, 0, at_time=0)


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


def test_stop_net_returns_early():
    nl, x, out = chain_netlist(length=5)
    st_ = reset(nl)
    st_.set_primary(x, 1)
    mid = nl.gates[1].output
    st_.run_until_quiescent(stop_net=mid, stop_level=1)
    assert st_.levels[mid] == 1
    assert not st_.quiescent
    st_.run_until_quiescent()
    assert st_.levels[out] == 1


def test_take_trace_drains():
    nl, x, _ = chain_netlist()
    st_ = reset(nl)
    st_.set_primary(x, 1)
    st_.run_until_quiescent()
    events = st_.take_trace()
    assert events and st_.trace == []


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


def test_golden_trace_hash():
    # digest and inputs live in tests/golden.py, shared with tests/smoke.py
    assert golden.trace_digest() == golden.GOLDEN_TRACE_SHA256


def test_golden_trace_table_hash():
    assert golden.table_trace_digest() == golden.GOLDEN_TRACE_TABLE_SHA256


def _hash_burst(h, netlist, dm, pairs):
    harness = Harness(netlist, dm)
    try:
        burst = harness.run_burst(pairs, gap=1)
    except RuntimeError as exc:  # stuck, illegal or non-quiescent
        h.update(repr((type(exc).__name__, str(exc), harness.state.trace)).encode())
        return
    h.update(repr((burst.reports, burst.trace, burst.illegal)).encode())


# Pinned on the engine before input-count gate tables and projected levels:
# n = 8 under every adder, both protocols, unit and random delays, plus
# bursts through a fork skewed by a chain of tied-input OR2s, stopped at
# each ack edge.  At n = 2 with delay seed 3 the chain carries pulses
# shorter than a gate delay, so events are scheduled on nets with one
# already pending.
GOLDEN_TRACE_WIDE_SHA256 = "5a6a27fe7c7f19152f4a9713d4ae3e8e072d2eef3ae7602809fa48f7e31ed4e3"


def test_golden_trace_hash_wide():
    h = hashlib.sha256()
    pairs = default_pairs(8, samples=12, seed=4)
    models = [DelayModel.unit()] + [DelayModel.random_per_gate(1, 20, seed=s) for s in (3, 13)]
    for kind in FullAdderKind:
        for protocol in Protocol:
            nl = generate(MultiplierSpec(8, kind, protocol))
            for dm in models[::2]:
                reports = Harness(nl, dm).run_sequence(pairs, want_traces=True)
                h.update(repr(reports).encode())
                _hash_burst(h, nl, dm, pairs[:6])
    for n in (2, 8):
        for protocol in Protocol:
            skewed = golden.fork_skewed(generate(MultiplierSpec(n, protocol=protocol)))
            for dm in models:
                _hash_burst(h, skewed, dm, [(1, 0), (0, 1)] * 2 + pairs[:4] * (n == 8))
    assert h.hexdigest() == GOLDEN_TRACE_WIDE_SHA256


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_engine_agrees_with_shared_evaluator(kind):
    # one gate; every prior input vector sets its output, then every vector
    # is applied at once and the engine must settle where eval_kind says
    b = NetlistBuilder(Protocol.RTZ)
    ins = [b.input_net(f"x{i}") for i in range(ARITY[kind])]
    out = b.gate(kind, ins)
    nl = b.build()
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
            assert st_.levels[out] == eval_kind(kind, vec, prior), (before, vec)
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
        assert st_.levels[out] == eval_kind(kind, [level] * len(ins), prior), level


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
