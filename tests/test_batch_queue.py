"""The per-timestamp batch loop against the reference heap loop.

When gate delays differ and the stage has at least ``_BATCH_MIN_GATES``
gates, ``SimState`` keeps its pending events as one batch per timestamp.
Each test here runs the same stimulus on a state forced onto the batches
(small netlists included) and on a fresh state forced onto the heap loop,
and requires the same trace, ``ack_edges``, ``port_events``, clock, return
values, pending state and errors after every engine call.
"""

import pytest
from hypothesis import given, settings, strategies as st

import golden
from qdimul.cells import FullAdderKind
from qdimul.harness import Harness
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import Gate, GateKind, Netlist, Protocol
from qdimul.sim import _BATCH_MIN_GATES, DelayModel, NonQuiescentError, SimState, reset
from qdimul.verify import default_pairs
from test_tick_queue import (BATCHES, INPUTS, LEVELS, STAGE, Recording, chain, observe,
                             outcome, schedule_both)

#: Unequal delays: eight random seeds and a table that gives each family its own.
UNEQUAL = {f"random{s}": DelayModel.random_per_gate(1, 20, seed=s) for s in range(3, 11)}
UNEQUAL["table"] = DelayModel.fixed_table(
    {k: 1 + i % 4 for i, k in enumerate(sorted(GateKind, key=lambda k: k.value))})


def force(state, batched):
    """The private selector: put ``state`` on the batches or on the heap."""
    state._step = None
    state._batched = batched
    return state


def pair_of_states(netlist, dm, cls=SimState):
    """``(batched, heap)``: fresh states on the two loops."""
    batched, heap = force(cls(netlist, dm), True), force(cls(netlist, dm), False)
    for state in (batched, heap):
        state.log = []
    return batched, heap


def harnesses(netlist, dm):
    pair = []
    for state in pair_of_states(netlist, dm, Recording):
        h = Harness(netlist, dm)
        h.state = state
        pair.append(h)
    return pair


def test_selection_follows_gate_count_and_delays():
    small, large = generate(MultiplierSpec(4)), generate(MultiplierSpec(8))
    assert len(small.gates) < _BATCH_MIN_GATES <= len(large.gates)
    random = DelayModel.random_per_gate(1, 20, seed=7)
    assert reset(large, random)._batched and reset(large, random)._step is None
    assert not reset(small, random)._batched and reset(small, random)._step is None
    assert reset(large, UNEQUAL["table"])._batched
    for n in (2, 4, 8, 16):
        nl = generate(MultiplierSpec(n))
        for dm, step in ((DelayModel.unit(), 1), (golden.TABLE_3, 3),
                         (DelayModel.random_per_gate(4, 4, seed=1), 4)):
            state = reset(nl, dm)
            assert state._step == step and not state._batched


@pytest.mark.parametrize("model", ["random3", "random4", "table"])
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(FullAdderKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n", [2, 4])
def test_sequences_and_bursts_match_the_heap(n, kind, protocol, model):
    nl = generate(MultiplierSpec(n, kind, protocol))
    pairs = default_pairs(n, samples=10, seed=n)[:10]
    batched, heap = harnesses(nl, UNEQUAL[model])
    assert batched.run_sequence(pairs, want_traces=True) == heap.run_sequence(pairs,
                                                                               want_traces=True)
    assert batched.state.log == heap.state.log
    # bursts stop each run at an ack edge; gaps below and above most delays
    for gap in (1, 2, 5, 25):
        assert batched.run_burst(pairs[:4], gap=gap) == heap.run_burst(pairs[:4], gap=gap)
    assert batched.state.log == heap.state.log


@pytest.mark.parametrize("model", list(UNEQUAL))
def test_every_model_matches_the_heap_on_a_4x4_sequence(model):
    nl = generate(MultiplierSpec(4, FullAdderKind.WEAK_DISJOINT))
    pairs = default_pairs(4)[::17]
    batched, heap = harnesses(nl, UNEQUAL[model])
    assert batched.run_sequence(pairs, want_traces=True) == heap.run_sequence(pairs,
                                                                               want_traces=True)
    assert batched.state.log == heap.state.log


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(FullAdderKind), ids=lambda k: k.value)
def test_8x8_sequences_and_bursts_match_the_heap(kind, protocol):
    nl = generate(MultiplierSpec(8, kind, protocol))
    pairs = default_pairs(8, samples=6, seed=8)
    batched, heap = harnesses(nl, UNEQUAL["random5"])
    assert reset(nl, UNEQUAL["random5"])._batched  # the path this width takes anyway
    assert batched.run_sequence(pairs, want_traces=True) == heap.run_sequence(pairs,
                                                                               want_traces=True)
    assert batched.run_burst(pairs[:3], gap=1) == heap.run_burst(pairs[:3], gap=1)
    assert batched.state.log == heap.state.log


@pytest.mark.parametrize("model", ["random3", "random9", "table"])
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("n", [2, 8])
def test_fork_skew_pulses_match_the_heap(n, protocol, model):
    skewed = golden.fork_skewed(generate(MultiplierSpec(n, protocol=protocol)))
    pairs = [(1, 0), (0, 1)] * 2 + default_pairs(n, samples=12, seed=4)[:4] * (n == 8)
    batched, heap = harnesses(skewed, UNEQUAL[model])
    got = [outcome(lambda h=h: h.run_burst(pairs, gap=1)) for h in (batched, heap)]
    assert got[0] == got[1]
    assert batched.state.trace == heap.state.trace
    assert batched.state.log == heap.state.log


@pytest.mark.parametrize("model", ["random3", "table"])
def test_two_events_on_one_net_at_one_time_keep_call_order(model):
    nl, x, y, _ = chain()
    batched, heap = pair_of_states(nl, UNEQUAL[model])
    for state in (batched, heap):
        state.set_primary(x, 1, at_time=2)
        state.set_primary(x, 0, at_time=2)
        state.set_primary(y, 1, at_time=2)
        state.set_primary(x, 1, at_time=2)
    got = [observe(s, s.run_until_quiescent()) for s in (batched, heap)]
    assert got[0] == got[1]
    assert [e for e in batched.trace if e[1] == x] == [(2, x, 1, -1), (2, x, 0, -1),
                                                       (2, x, 1, -1)]


def test_acknowledge_lands_at_its_net_position_in_the_batch():
    # x fans out to nets 1 (ack_out), 2 and 4 at one time; the inverter's
    # event on ack_in (net 3) goes between 2 and 4, as the heap pops it
    x, ack_out, ack_in = 0, 1, 3
    gates = [Gate(0, GateKind.OR2, (x, x), ack_out, 0),
             Gate(1, GateKind.OR2, (x, x), 2, 0),
             Gate(2, GateKind.OR2, (x, x), 4, 0),
             Gate(3, GateKind.AND2, (ack_in, ack_in), 5, 1)]
    nl = Netlist(Protocol.RTZ, gates, ack_out=ack_out, ack_in=ack_in, extra_inputs=[x])
    # OR2 gates take 2 and the AND2 gate 5: unequal, all three OR2 outputs at t=2
    dm = DelayModel.fixed_table({GateKind.OR2: 2, GateKind.AND2: 5})
    batched, heap = pair_of_states(nl, dm)
    for state in (batched, heap):
        state.set_primary(x, 1)
    got = [observe(s, s.run_until_quiescent()) for s in (batched, heap)]
    assert got[0] == got[1]
    assert [e[1] for e in batched.trace] == [x, ack_out, 2, ack_in, 4, 5]


@pytest.mark.parametrize("ack_out, ack_in", [(1, 0), (0, 1)])
@pytest.mark.parametrize("pulses", [1, 2, 3, 4, 5])
def test_each_environment_acknowledge_at_one_time_matches_the_heap(pulses, ack_out, ack_in):
    gates = [Gate(0, GateKind.OR2, (ack_in, ack_in), 2, 1)]
    nl = Netlist(Protocol.RTZ, gates, ack_out=ack_out, ack_in=ack_in, extra_inputs=[ack_out])
    batched, heap = pair_of_states(nl, UNEQUAL["random3"])
    for state in (batched, heap):
        for i in range(pulses):
            state.set_primary(ack_out, 1 - i % 2, at_time=5)
    got = [(observe(s, s.run_until_quiescent()), s.ack_edges) for s in (batched, heap)]
    assert got[0] == got[1]
    assert batched.levels[ack_in] == 1 - batched.levels[ack_out]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_future_pulses_and_out_of_order_times_match_the_heap(seed):
    nl, x, y, w = chain(length=4)
    # delays of at most 3, so the stop comes before the pulse at 12
    dm = DelayModel.random_per_gate(1, 3, seed=seed)
    batched, heap = pair_of_states(nl, dm)
    assert len(set(heap._gate_delay)) > 1
    for state in (batched, heap):
        state.set_primary(x, 1, at_time=9)
        state.set_primary(y, 1, at_time=4)   # before the pending batch
        state.set_primary(x, 0, at_time=12)  # a pulse after it
        state.set_primary(y, 0, at_time=9)   # joins the batch at 9
    got = [observe(s, s.run_until_quiescent(stop_net=nl.gates[0].output, stop_level=1))
           for s in (batched, heap)]
    assert got[0] == got[1]
    assert not batched.quiescent
    for state in (batched, heap):
        state.set_primary(w, 1, at_time=state.clock)  # at the clock, after the stop
        state.set_primary(y, 1, at_time=12)            # joins the batch at 12
    got = [observe(s, s.run_until_quiescent()) for s in (batched, heap)]
    assert got[0] == got[1]
    assert batched.quiescent


def test_guard_gives_the_same_message_and_trace():
    nl, x, _, _ = chain(length=6)
    batched, heap = pair_of_states(nl, DelayModel.fixed_table({GateKind.OR2: 10}))
    got = []
    for state in (batched, heap):
        state.set_primary(x, 1)
        with pytest.raises(NonQuiescentError) as exc:
            state.run_until_quiescent(max_time=35)
        got.append((str(exc.value), observe(state, None)))
        # nothing was popped: the pending event still runs afterwards
        assert not state.quiescent
        got.append(observe(state, state.run_until_quiescent()))
    assert got[:2] == got[2:]
    assert "next event at t=40" in got[0][0]


actions = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from(INPUTS), st.integers(0, 1),
                  st.none() | st.integers(0, 6)),
        st.tuples(st.just("run"), st.integers(1, 60),
                  st.none() | st.sampled_from([STAGE.ack_out, *STAGE.gates[0].inputs]),
                  st.integers(0, 1)),
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(script=actions, seed=st.integers(0, 3), hi=st.sampled_from([2, 5, 20]))
def test_arbitrary_stimulus_matches_the_heap(script, seed, hi):
    batched, heap = pair_of_states(STAGE, DelayModel.random_per_gate(1, hi, seed=seed))
    for action in script:
        got = []
        for state in (batched, heap):
            if action[0] == "set":
                _, net, level, offset = action
                at = None if offset is None else state.clock + offset
                got.append(outcome(lambda: state.set_primary(net, level, at)))
            else:
                _, max_time, stop_net, stop_level = action
                got.append(outcome(lambda: state.run_until_quiescent(
                    max_time, stop_net, stop_level if stop_net is not None else None)))
            got[-1] = (got[-1], observe(state, None), list(state.ack_edges))
        assert got[0] == got[1]


# -- one scheduling call per batch against one set_primary call per event -----


def batched_and_called(netlist, dm=UNEQUAL["random3"]):
    """Two fresh states on the batches."""
    return force(SimState(netlist, dm), True), force(SimState(netlist, dm), True)


@pytest.mark.parametrize("case", list(BATCHES))
def test_set_primaries_equals_one_set_primary_per_event(case):
    nl, x, y, w = chain(length=3)
    nets = {"x": x, "y": y, "w": w, "z": nl.gates[0].output}
    prelude, text, at, error = BATCHES[case]
    events = [(nets[word[0]], LEVELS[word[1:]]) for word in text.split()]
    batched, called = batched_and_called(nl)
    for state in (batched, called):
        if prelude:
            prelude(state, x)
    got = schedule_both(batched, called, events, at)
    assert got[0] == got[1]
    scheduled = got[0][0]
    assert (scheduled[0] if scheduled else None) == error


batches = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from([*INPUTS, STAGE.ack_out]),
                           st.sampled_from([0, 1, 0, 1, 2, True])), max_size=6),
        st.none() | st.integers(-1, 6),
        st.sampled_from([0, 3, 60]),
    ),
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(script=batches)
def test_arbitrary_batches_equal_one_call_per_event(script):
    batched, called = batched_and_called(STAGE, DelayModel.random_per_gate(1, 5, seed=3))
    for events, offset, run_for in script:
        at = None if offset is None else batched.clock + offset
        got = schedule_both(batched, called, events, at, run_for)
        assert got[0] == got[1]
