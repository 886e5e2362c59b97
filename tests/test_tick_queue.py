"""The constant-delay tick loop against the reference heap loop.

When every gate shares one delay, ``SimState`` keeps its pending events as
per-tick batches.  Each test here runs the same stimulus on a state that
uses the batches and on a fresh state forced onto the heap loop, and
requires the same trace, ``ack_edges``, clock, return values, pending state
and errors after every engine call.
"""

import pytest
from hypothesis import given, settings, strategies as st

import golden
from qdimul.cells import FullAdderKind
from qdimul.harness import Harness
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import Gate, GateKind, Netlist, NetlistBuilder, Protocol
from qdimul.sim import DelayModel, NonQuiescentError, SimState, reset
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
                             len(self.trace), tuple(self.ack_edges)))


def pair_of_states(netlist, dm, cls=SimState):
    """``(tick, heap)``: fresh states on the two loops."""
    tick, heap = cls(netlist, dm), cls(netlist, dm)
    heap._step = None  # the private selector: force the reference loop
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
