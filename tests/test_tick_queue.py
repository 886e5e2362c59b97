"""Equal-delay batches against the reference heap loop.

When every gate shares one delay, ``SimState`` keeps its pending events as
per-timestamp batches and files each timestamp's successors as one list.
Each test here runs the same stimulus on a state that uses the batches and
on a fresh state forced onto the heap loop, and requires the same trace,
``ack_edges``, ``port_events``, clock, return values, pending state and
errors after every engine call.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

import golden
from qdimul.cells import FullAdderKind
from qdimul.harness import Harness
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import Gate, GateKind, Netlist, NetlistBuilder, Protocol
from qdimul.sim import DEFAULT_GUARD, ENV, DelayModel, NonQuiescentError, SimState, reset
from qdimul.verify import default_pairs

CONSTANT = {
    "unit": (DelayModel.unit(), 1),
    "table3": (golden.TABLE_3, 3),
}


class Recording(SimState):
    """A state that logs what the harness can observe after each engine call."""

    def run_until_quiescent(self, *args, **kwargs):
        elapsed = None  # stays None when the run raises
        try:
            elapsed = super().run_until_quiescent(*args, **kwargs)
            return elapsed
        finally:
            self.log.append((elapsed, self.clock, self.quiescent, tuple(self.levels),
                             len(self.trace), tuple(self.ack_edges), tuple(self.port_events)))


def force_heap(state):
    """The private selectors: put a fresh ``state`` on the reference heap loop.

    A copy of the forced state must queue a heap tuple
    ``(time, net, seq, level, cause)``, not a batch.
    """
    state._step, state._batched = None, False
    probe = copy.deepcopy(state, {id(state.netlist): state.netlist, id(state._plan): state._plan})
    net = min(probe.netlist.primary_inputs)
    level = 1 - probe._projected[net]
    probe.set_primary(net, level)
    assert probe._queue == [(probe.clock, net, probe._seq, level, ENV)] and not probe._batches
    return state


def pair_of_states(netlist, dm, cls=SimState):
    """``(tick, heap)``: fresh states on the equal-delay batches and on the heap."""
    tick, heap = cls(netlist, dm), force_heap(cls(netlist, dm))
    for state in (tick, heap):
        state.log = []
    return tick, heap


def harnesses(netlist, dm):
    pair = []
    for state in pair_of_states(netlist, dm, Recording):
        h = Harness(netlist, dm)
        h.state = state
        pair.append(h)
    return pair


def outcome(fn):
    """``fn()``, or the type and message of what it raised."""
    try:
        return fn()
    except (RuntimeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_selection_follows_the_delay_vector():
    nl = generate(MultiplierSpec(2))
    assert reset(nl)._step == 1
    assert reset(nl, golden.TABLE_3)._step == 3
    assert reset(nl, DelayModel.random_per_gate(4, 4, seed=1))._step == 4
    assert reset(nl, DelayModel.random_per_gate(1, 20, seed=1))._step is None
    # only the kinds the netlist uses count
    used = {g.kind for g in nl.gates}
    mixed = {k: 2 if k in used else 9 for k in GateKind}
    assert len(set(mixed.values())) == 2
    assert reset(nl, DelayModel.fixed_table(mixed))._step == 2
    kinds = sorted(used, key=lambda k: k.value)
    uneven = {k: 2 + (k is kinds[0]) for k in used}
    assert reset(nl, DelayModel.fixed_table(uneven))._step is None


@pytest.mark.parametrize("model", list(CONSTANT))
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(FullAdderKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n", [2, 4, 8])
def test_sequences_and_bursts_match_the_heap(n, kind, protocol, model):
    dm, step = CONSTANT[model]
    nl = generate(MultiplierSpec(n, kind, protocol))
    pairs = default_pairs(n, samples=10, seed=n)[:10]
    tick, heap = harnesses(nl, dm)
    assert tick.state._step == step and heap.state._step is None
    assert tick.run_sequence(pairs, want_traces=True) == heap.run_sequence(pairs, want_traces=True)
    assert tick.state.log == heap.state.log
    # gaps below, at and above the delay land on pending batches and past them
    for gap in (1, 2, 5):
        tick_burst, heap_burst = (h.run_burst(pairs[:4], gap=gap) for h in (tick, heap))
        assert tick_burst == heap_burst
    assert tick.state.log == heap.state.log


@pytest.mark.parametrize("model", list(CONSTANT))
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("n", [2, 8])
def test_fork_skew_pulses_match_the_heap(n, protocol, model):
    dm, _ = CONSTANT[model]
    skewed = golden.fork_skewed(generate(MultiplierSpec(n, protocol=protocol)))
    pairs = [(1, 0), (0, 1)] * 2 + default_pairs(n, samples=12, seed=4)[:4] * (n == 8)
    tick, heap = harnesses(skewed, dm)
    got = [outcome(lambda h=h: h.run_burst(pairs, gap=1)) for h in (tick, heap)]
    assert got[0] == got[1]
    assert tick.state.trace == heap.state.trace
    assert tick.state.log == heap.state.log
    # at n = 2 the skewed branch is still in flight when completion fires
    assert any(not quiescent for _, _, quiescent, *_ in tick.state.log) == (n == 2)


def chain(length=3):
    """OR2 gates in a row from ``x``, their side inputs alternating ``y`` and ``w``."""
    b = NetlistBuilder(Protocol.RTZ)
    x, y, w = b.input_net("x"), b.input_net("y"), b.input_net("w")
    net = x
    for i in range(length):
        net = b.gate(GateKind.OR2, (net, (y, w)[i % 2]))
    b.mark_output("z", net, x)
    return b.build(), x, y, w


def observe(state, elapsed):
    return (elapsed, state.clock, state.quiescent, list(state.levels), list(state.trace))


@pytest.mark.parametrize("model", list(CONSTANT))
def test_two_events_on_one_net_at_one_time_keep_call_order(model):
    nl, x, y, _ = chain()
    tick, heap = pair_of_states(nl, CONSTANT[model][0])
    for state in (tick, heap):
        state.set_primary(x, 1, at_time=2)
        state.set_primary(x, 0, at_time=2)
        state.set_primary(y, 1, at_time=2)
        state.set_primary(x, 1, at_time=2)
    got = [observe(s, s.run_until_quiescent()) for s in (tick, heap)]
    assert got[0] == got[1]
    assert [e for e in tick.trace if e[1] == x] == [(2, x, 1, -1), (2, x, 0, -1), (2, x, 1, -1)]


@pytest.mark.parametrize("model", list(CONSTANT))
def test_acknowledge_lands_at_its_net_position_in_the_tick(model):
    # x fans out to nets 1 (ack_out), 2 and 4 in one tick; the inverter's
    # event on ack_in (net 3) goes between 2 and 4, as the heap pops it
    x, ack_out, ack_in = 0, 1, 3
    gates = [Gate(0, GateKind.OR2, (x, x), ack_out, 0),
             Gate(1, GateKind.OR2, (x, x), 2, 0),
             Gate(2, GateKind.OR2, (x, x), 4, 0),
             Gate(3, GateKind.OR2, (ack_in, ack_in), 5, 1)]
    nl = Netlist(Protocol.RTZ, gates, ack_out=ack_out, ack_in=ack_in, extra_inputs=[x])
    tick, heap = pair_of_states(nl, CONSTANT[model][0])
    for state in (tick, heap):
        state.set_primary(x, 1)
    got = [observe(s, s.run_until_quiescent()) for s in (tick, heap)]
    assert got[0] == got[1]
    assert [e[1] for e in tick.trace] == [x, ack_out, 2, ack_in, 4, 5]


@pytest.mark.parametrize("model", list(CONSTANT))
@pytest.mark.parametrize("ack_out, ack_in", [(1, 0), (0, 1)])
@pytest.mark.parametrize("pulses", [1, 2, 3, 4, 5])
def test_each_environment_acknowledge_in_one_tick_matches_the_heap(pulses, ack_out, ack_in,
                                                                   model):
    # ack_out is a primary input here, so one tick can hold several of its
    # events; each inverter event belongs after its own ack_out event
    gates = [Gate(0, GateKind.OR2, (ack_in, ack_in), 2, 1)]
    nl = Netlist(Protocol.RTZ, gates, ack_out=ack_out, ack_in=ack_in, extra_inputs=[ack_out])
    tick, heap = pair_of_states(nl, CONSTANT[model][0])
    for state in (tick, heap):
        for i in range(pulses):
            state.set_primary(ack_out, 1 - i % 2, at_time=5)
    got = [(observe(s, s.run_until_quiescent()), s.ack_edges) for s in (tick, heap)]
    assert got[0] == got[1]
    assert tick.levels[ack_in] == 1 - tick.levels[ack_out]


@pytest.mark.parametrize("model", list(CONSTANT))
def test_future_pulses_and_out_of_order_times_match_the_heap(model):
    nl, x, y, w = chain(length=4)
    tick, heap = pair_of_states(nl, CONSTANT[model][0])
    for state in (tick, heap):
        state.set_primary(x, 1, at_time=9)
        state.set_primary(y, 1, at_time=4)   # before the pending batch
        state.set_primary(x, 0, at_time=12)  # a pulse after it
        state.set_primary(y, 0, at_time=9)   # joins the batch at 9
    got = [observe(s, s.run_until_quiescent(stop_net=nl.gates[0].output, stop_level=1))
           for s in (tick, heap)]
    assert got[0] == got[1]
    assert not tick.quiescent
    for state in (tick, heap):
        state.set_primary(w, 1, at_time=state.clock)  # at the clock, after the stop
        state.set_primary(y, 1, at_time=12)            # joins the batch at 12
    got = [observe(s, s.run_until_quiescent()) for s in (tick, heap)]
    assert got[0] == got[1]
    assert tick.quiescent


def test_guard_gives_the_same_message_and_trace():
    nl, x, _, _ = chain(length=6)
    tick, heap = pair_of_states(nl, DelayModel.fixed_table({GateKind.OR2: 10}))
    assert tick._step == 10
    got = []
    for state in (tick, heap):
        state.set_primary(x, 1)
        with pytest.raises(NonQuiescentError) as exc:
            state.run_until_quiescent(max_time=35)
        got.append((str(exc.value), observe(state, None)))
    assert got[0] == got[1]
    assert "next event at t=40" in got[0][0]


# Primary inputs of a 2x2 stage: operand rails, phase and ack_in.
STAGE = generate(MultiplierSpec(2))
INPUTS = sorted(STAGE.primary_inputs)

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
@given(script=actions, model=st.sampled_from([*CONSTANT, "random-4-4"]))
def test_arbitrary_stimulus_matches_the_heap(script, model):
    dm = CONSTANT[model][0] if model in CONSTANT else DelayModel.random_per_gate(4, 4, seed=2)
    tick, heap = pair_of_states(STAGE, dm)
    assert tick._step is not None
    for action in script:
        got = []
        for state in (tick, heap):
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


def pending(state):
    """A copy of everything scheduling writes, and of what the engine fills."""
    return copy.deepcopy((state._queue, state._batches, state._seq, state._projected,
                          state._pending_time, state.clock, state.levels, state.trace,
                          state.ack_edges))


def one_by_one(state, events, at):
    """What ``set_primaries`` must equal: a ``set_primary`` call per event."""
    for net, level in events:
        state.set_primary(net, level, at)


QUEUES = {"tick": False, "heap": True}


def batched_and_called(netlist, queue, dm=DelayModel.unit()):
    """Two fresh states on the queue named by ``queue``."""
    states = SimState(netlist, dm), SimState(netlist, dm)
    if QUEUES[queue]:
        for state in states:
            force_heap(state)
    return states


def schedule_both(batched, called, events, at, run_for=DEFAULT_GUARD):
    """Schedule ``events`` in one call and one by one; each outcome and state."""
    got = []
    for state, schedule in ((batched, lambda: batched.set_primaries(events, at)),
                            (called, lambda: one_by_one(called, events, at))):
        got.append((outcome(schedule), pending(state)))
        if run_for:
            got[-1] += (outcome(lambda: state.run_until_quiescent(run_for)), pending(state))
    return got


def _x_at_9(state, x):
    state.set_primary(x, 1, at_time=9)


def _clock_past_0(state, x):
    state.set_primary(x, 1)
    state.run_until_quiescent()


LEVELS = {"0": 0, "1": 1, "2": 2, "True": True, "1.0": 1.0}

# (prelude, events, at_time, error) on the chain x -> OR2 -> OR2 -> OR2 with
# side inputs y and w; each event is a net letter and a level, and z is the
# chain's first gate output, not a primary input
BATCHES = {
    "duplicate nets": (None, "x1 x0 y1 x1 y1", 2, None),
    "behind a pending batch": (_x_at_9, "y1 w1 y0", 4, None),
    "into a pending batch": (_x_at_9, "y1 x0", 9, None),
    "after a pending batch": (_x_at_9, "x0 w1", 12, None),
    "empty": (None, "", None, None),
    "empty at a past time": (_clock_past_0, "", 0, None),
    "non-primary mid-batch": (None, "x1 z1 y1", 3, "NotPrimaryError"),
    "bad level mid-batch": (None, "x1 y2 w1", 3, "ValueError"),
    "bool level mid-batch": (_x_at_9, "y1 wTrue", 9, "ValueError"),
    "float level mid-batch": (None, "y1 w1.0", None, "ValueError"),
    "past time": (_clock_past_0, "x0 y1", 0, "ValueError"),
    "earlier than a pending event mid-batch": (_x_at_9, "y1 x0", 5, "ValueError"),
}


@pytest.mark.parametrize("queue", list(QUEUES))
@pytest.mark.parametrize("case", list(BATCHES))
def test_set_primaries_equals_one_set_primary_per_event(case, queue):
    nl, x, y, w = chain(length=3)
    nets = {"x": x, "y": y, "w": w, "z": nl.gates[0].output}
    prelude, text, at, error = BATCHES[case]
    events = [(nets[word[0]], LEVELS[word[1:]]) for word in text.split()]
    batched, called = batched_and_called(nl, queue)
    assert (batched._step is None) == QUEUES[queue]
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
@given(script=batches, queue=st.sampled_from(list(QUEUES)),
       model=st.sampled_from(["unit", "random"]))
def test_arbitrary_batches_equal_one_call_per_event(script, queue, model):
    dm = DelayModel.unit() if model == "unit" else DelayModel.random_per_gate(1, 5, seed=3)
    batched, called = batched_and_called(STAGE, queue, dm)
    for events, offset, run_for in script:
        at = None if offset is None else batched.clock + offset
        got = schedule_both(batched, called, events, at, run_for)
        assert got[0] == got[1]
