"""Every queue discipline of the event engine against the reference heap loop.

``SimState`` keeps its pending events on the heap (the reference) or in
per-timestamp batches, picked once from the delays and the stage size
(``qdimul.sim``).  The batches file each successor at ``t + delay(g)``
(``per_gate``) or, when every gate shares one delay, a timestamp's
successors as one list (``one_list``).  :func:`force` puts a fresh state on
any of these three disciplines.  Each scenario runs the same stimulus on a
state under its discipline and on a fresh state forced onto the heap, and
requires the same trace, ``ack_edges``, ``port_events``, clock, return
values, pending state and errors after every engine call.  A scenario is
written once and parametrized over the ``(model, discipline)`` cases it runs.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

import golden
from qdimul.cells import FullAdderKind
from qdimul.harness import Harness
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import Gate, GateKind, Netlist, NetlistBuilder, Protocol
from qdimul.sim import (_BATCH_MIN_GATES, DEFAULT_GUARD, ENV, DelayModel, NonQuiescentError,
                        SimState, reset)
from qdimul.verify import default_pairs

MODELS = {
    "unit": DelayModel.unit(),
    "table3": golden.TABLE_3,
    **{f"random{s}": DelayModel.random_per_gate(1, 20, seed=s) for s in range(3, 11)},
    # each gate family its own delay
    "table": DelayModel.fixed_table(
        {k: 1 + i % 4 for i, k in enumerate(sorted(GateKind, key=lambda k: k.value))}),
    "or2-2-and2-5": DelayModel.fixed_table({GateKind.OR2: 2, GateKind.AND2: 5}),
    "or2-10": DelayModel.fixed_table({GateKind.OR2: 10}),
    # at most 3 per gate, so a four-gate chain settles before a pulse 3 later
    **{f"short{s}": DelayModel.random_per_gate(1, 3, seed=s) for s in (1, 2, 3)},
}
UNEQUAL = [*(f"random{s}" for s in range(3, 11)), "table"]


def cases(equal=("unit", "table3"), unequal=()):
    """``one_list`` under each model of one shared delay, ``per_gate`` under the rest."""
    return [(m, "one_list") for m in equal] + [(m, "per_gate") for m in unequal]


def force(state, discipline):
    """Put a fresh ``state`` on ``discipline``: "heap", "per_gate" or "one_list".

    ``one_list`` is what a model of one shared delay selects by itself; the
    other two are set through the private selectors.  A copy of the forced
    state must queue an environment event as a heap tuple
    ``(time, net, seq, level, cause)``, or in a batch of trace tuples.
    """
    if discipline == "one_list":
        assert state._step is not None and state._batched
    else:
        assert {"_step", "_batched"} <= vars(state).keys()
        state._step, state._batched = None, discipline == "per_gate"
    probe = copy.deepcopy(state, {id(state.netlist): state.netlist, id(state._plan): state._plan})
    net = min(probe.netlist.primary_inputs)
    level = 1 - probe._projected[net]
    probe.set_primary(net, level)
    t = probe.clock
    if discipline == "heap":
        assert probe._queue == [(t, net, probe._seq, level, ENV)] and not probe._batches
    else:
        assert probe._queue == [t] and probe._batches == {t: [(t, net, level, ENV)]}
    return state


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


def pair_of_states(netlist, dm, discipline, cls=SimState):
    """``(state, heap)``: fresh states on ``discipline`` and on the heap."""
    pair = force(cls(netlist, dm), discipline), force(cls(netlist, dm), "heap")
    for state in pair:
        state.log = []
    return pair


def harnesses(netlist, dm, discipline):
    pair = Harness(netlist, dm), Harness(netlist, dm)
    for h, state in zip(pair, pair_of_states(netlist, dm, discipline, Recording)):
        h.state = state
    return pair


def outcome(fn):
    """``fn()``, or the type and message of what it raised."""
    try:
        return fn()
    except (RuntimeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def chain(length=3, acknowledged=False):
    """OR2 gates in a row from ``x``, their side inputs alternating ``y`` and ``w``.

    ``acknowledged`` makes the first gate's output ``ack_out`` and adds an
    ``ack_in`` input that nothing reads.
    """
    b = NetlistBuilder(Protocol.RTZ)
    x, y, w = b.input_net("x"), b.input_net("y"), b.input_net("w")
    net = first = b.gate(GateKind.OR2, (x, y))
    for i in range(1, length):
        net = b.gate(GateKind.OR2, (net, (y, w)[i % 2]))
    b.mark_output("z", net, x)
    if not acknowledged:
        return b.build(), x, y, w
    return b.build(ack_out=first, ack_in=b.input_net("ack_in")), x, y, w


def observe(state, elapsed):
    return (elapsed, state.clock, state.quiescent, list(state.levels), list(state.trace))


# -- selection -----------------------------------------------------------------


def test_selection_follows_the_delay_vector():
    # unit, table and equal random delays are checked below, at n = 2
    nl = generate(MultiplierSpec(2))
    assert reset(nl, DelayModel.random_per_gate(1, 20, seed=1))._step is None
    # only the kinds the netlist uses count
    used = {g.kind for g in nl.gates}
    mixed = {k: 2 if k in used else 9 for k in GateKind}
    assert len(set(mixed.values())) == 2
    assert reset(nl, DelayModel.fixed_table(mixed))._step == 2
    kinds = sorted(used, key=lambda k: k.value)
    uneven = {k: 2 + (k is kinds[0]) for k in used}
    assert reset(nl, DelayModel.fixed_table(uneven))._step is None


def test_selection_follows_gate_count_and_delays():
    small, large = generate(MultiplierSpec(4)), generate(MultiplierSpec(8))
    assert len(small.gates) < _BATCH_MIN_GATES <= len(large.gates)
    random = DelayModel.random_per_gate(1, 20, seed=7)
    assert reset(large, random)._batched and reset(large, random)._step is None
    assert not reset(small, random)._batched and reset(small, random)._step is None
    assert reset(large, MODELS["table"])._batched
    for n in (2, 4, 8, 16):
        nl = generate(MultiplierSpec(n))
        for dm, step in ((DelayModel.unit(), 1), (golden.TABLE_3, 3),
                         (DelayModel.random_per_gate(4, 4, seed=1), 4)):
            state = reset(nl, dm)
            assert state._step == step and state._batched


# -- handshakes on generated stages --------------------------------------------

SEQUENCES = ([(n, m, "one_list") for n in (2, 4, 8) for m in ("unit", "table3")]
             + [(n, m, "per_gate") for n in (2, 4) for m in ("random3", "random4", "table")])


@pytest.mark.parametrize("n, model, discipline", SEQUENCES)
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(FullAdderKind), ids=lambda k: k.value)
def test_sequences_and_bursts_match_the_heap(kind, protocol, n, model, discipline):
    nl = generate(MultiplierSpec(n, kind, protocol))
    pairs = default_pairs(n, samples=10, seed=n)[:10]
    h, heap = harnesses(nl, MODELS[model], discipline)
    assert h.run_sequence(pairs, want_traces=True) == heap.run_sequence(pairs, want_traces=True)
    assert h.state.log == heap.state.log
    # bursts stop each run at an ack edge; gaps below, at and above a shared delay
    # land on pending batches and past them, and 25 is above most random delays
    for gap in (1, 2, 5) + (25,) * (discipline == "per_gate"):
        assert h.run_burst(pairs[:4], gap=gap) == heap.run_burst(pairs[:4], gap=gap)
    assert h.state.log == heap.state.log


@pytest.mark.parametrize("model", UNEQUAL)
def test_every_model_matches_the_heap_on_a_4x4_sequence(model):
    nl = generate(MultiplierSpec(4, FullAdderKind.WEAK_DISJOINT))
    pairs = default_pairs(4)[::17]
    h, heap = harnesses(nl, MODELS[model], "per_gate")
    assert h.run_sequence(pairs, want_traces=True) == heap.run_sequence(pairs, want_traces=True)
    assert h.state.log == heap.state.log


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(FullAdderKind), ids=lambda k: k.value)
def test_8x8_sequences_and_bursts_match_the_heap(kind, protocol):
    nl = generate(MultiplierSpec(8, kind, protocol))
    pairs = default_pairs(8, samples=6, seed=8)
    h, heap = harnesses(nl, MODELS["random5"], "per_gate")
    assert reset(nl, MODELS["random5"])._batched  # the path this width takes anyway
    assert h.run_sequence(pairs, want_traces=True) == heap.run_sequence(pairs, want_traces=True)
    assert h.run_burst(pairs[:3], gap=1) == heap.run_burst(pairs[:3], gap=1)
    assert h.state.log == heap.state.log


@pytest.mark.parametrize("model, discipline", cases(unequal=("random3", "random9", "table")))
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("n", [2, 8])
def test_fork_skew_pulses_match_the_heap(n, protocol, model, discipline):
    skewed = golden.fork_skewed(generate(MultiplierSpec(n, protocol=protocol)))
    pairs = [(1, 0), (0, 1)] * 2 + default_pairs(n, samples=12, seed=4)[:4] * (n == 8)
    h, heap = harnesses(skewed, MODELS[model], discipline)
    got = [outcome(lambda s=s: s.run_burst(pairs, gap=1)) for s in (h, heap)]
    assert got[0] == got[1]
    assert h.state.trace == heap.state.trace
    assert h.state.log == heap.state.log
    # at n = 2 the skewed branch is still in flight when completion fires
    assert any(not quiescent for _, _, quiescent, *_ in h.state.log) == (n == 2)


# -- hand-made netlists and stimulus -------------------------------------------


@pytest.mark.parametrize("model, discipline", cases(unequal=("random3", "table")))
def test_two_events_on_one_net_at_one_time_keep_call_order(model, discipline):
    nl, x, y, _ = chain()
    pair = pair_of_states(nl, MODELS[model], discipline)
    for state in pair:
        state.set_primary(x, 1, at_time=2)
        state.set_primary(x, 0, at_time=2)
        state.set_primary(y, 1, at_time=2)
        state.set_primary(x, 1, at_time=2)
    got = [observe(s, s.run_until_quiescent()) for s in pair]
    assert got[0] == got[1]
    assert [e for e in pair[0].trace if e[1] == x] == [(2, x, 1, -1), (2, x, 0, -1),
                                                       (2, x, 1, -1)]


@pytest.mark.parametrize("model, discipline", cases(unequal=("or2-2-and2-5",)))
def test_acknowledge_lands_at_its_net_position(model, discipline):
    # x fans out to nets 1 (ack_out), 2 and 4 at one time (t=2 under "or2-2-and2-5");
    # the inverter's event on ack_in (net 3) goes between 2 and 4, as the heap pops it
    x, ack_out, ack_in = 0, 1, 3
    gates = [Gate(0, GateKind.OR2, (x, x), ack_out, 0),
             Gate(1, GateKind.OR2, (x, x), 2, 0),
             Gate(2, GateKind.OR2, (x, x), 4, 0),
             Gate(3, GateKind.AND2, (ack_in, ack_in), 5, 1)]
    nl = Netlist(Protocol.RTZ, gates, ack_out=ack_out, ack_in=ack_in, extra_inputs=[x])
    pair = pair_of_states(nl, MODELS[model], discipline)
    for state in pair:
        state.set_primary(x, 1)
    got = [observe(s, s.run_until_quiescent()) for s in pair]
    assert got[0] == got[1]
    assert [e[1] for e in pair[0].trace] == [x, ack_out, 2, ack_in, 4, 5]


@pytest.mark.parametrize("model, discipline", cases(unequal=("random3",)))
@pytest.mark.parametrize("ack_out, ack_in", [(1, 0), (0, 1)])
@pytest.mark.parametrize("pulses", [1, 2, 3, 4, 5])
def test_each_environment_acknowledge_at_one_time_matches_the_heap(pulses, ack_out, ack_in,
                                                                   model, discipline):
    # ack_out is a primary input here, so one timestamp can hold several of
    # its events; each inverter event belongs after its own ack_out event
    gates = [Gate(0, GateKind.OR2, (ack_in, ack_in), 2, 1)]
    nl = Netlist(Protocol.RTZ, gates, ack_out=ack_out, ack_in=ack_in, extra_inputs=[ack_out])
    pair = pair_of_states(nl, MODELS[model], discipline)
    for state in pair:
        for i in range(pulses):
            state.set_primary(ack_out, 1 - i % 2, at_time=5)
    got = [(observe(s, s.run_until_quiescent()), s.ack_edges) for s in pair]
    assert got[0] == got[1]
    assert pair[0].levels[ack_in] == 1 - pair[0].levels[ack_out]


@pytest.mark.parametrize("model, discipline", cases(unequal=("short1", "short2", "short3")))
def test_future_pulses_and_out_of_order_times_match_the_heap(model, discipline):
    nl, x, y, w = chain(length=4, acknowledged=True)
    pair = pair_of_states(nl, MODELS[model], discipline)
    assert (len(set(pair[1]._gate_delay)) > 1) == (discipline == "per_gate")
    for state in pair:
        state.set_primary(x, 1, at_time=9)
        state.set_primary(y, 1, at_time=4)   # before the pending batch
        state.set_primary(x, 0, at_time=12)  # a pulse after it
        state.set_primary(y, 0, at_time=9)   # joins the batch at 9
    got = [observe(s, s.run_until_quiescent(until_ack=1)) for s in pair]
    assert got[0] == got[1]
    assert not pair[0].quiescent
    for state in pair:
        state.set_primary(w, 1, at_time=state.clock)  # at the clock, after the stop
        state.set_primary(y, 1, at_time=12)            # joins the batch at 12
    got = [observe(s, s.run_until_quiescent()) for s in pair]
    assert got[0] == got[1]
    assert pair[0].quiescent


@pytest.mark.parametrize("model, discipline", cases(equal=("or2-10",), unequal=("or2-10",)))
def test_guard_gives_the_same_message_and_trace(model, discipline):
    nl, x, _, _ = chain(length=6)
    got = []
    for state in pair_of_states(nl, MODELS[model], discipline):
        state.set_primary(x, 1)
        with pytest.raises(NonQuiescentError) as exc:
            state.run_until_quiescent(max_time=35)
        got.append((str(exc.value), observe(state, None)))
        # nothing was popped: the pending event still runs afterwards
        assert not state.quiescent
        got.append(observe(state, state.run_until_quiescent()))
    assert got[:2] == got[2:]
    assert "next event at t=40" in got[0][0]


# Primary inputs of a 2x2 stage: operand rails, phase and ack_in.
STAGE = generate(MultiplierSpec(2))
INPUTS = sorted(STAGE.primary_inputs)

actions = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from(INPUTS), st.integers(0, 1),
                  st.none() | st.integers(0, 6)),
        st.tuples(st.just("run"), st.integers(1, 60), st.sampled_from([None, 0, 1])),
    ),
    max_size=25,
)
STIMULUS_MODELS = {
    "one_list": st.sampled_from([MODELS["unit"], MODELS["table3"],
                                 DelayModel.random_per_gate(4, 4, seed=2)]),
    "per_gate": st.builds(lambda seed, hi: DelayModel.random_per_gate(1, hi, seed=seed),
                          st.integers(0, 3), st.sampled_from([2, 5, 20])),
}


@pytest.mark.parametrize("discipline", list(STIMULUS_MODELS))
@settings(max_examples=60, deadline=None)
@given(script=actions, data=st.data())
def test_arbitrary_stimulus_matches_the_heap(discipline, script, data):
    pair = pair_of_states(STAGE, data.draw(STIMULUS_MODELS[discipline]), discipline)
    for action in script:
        got = []
        for state in pair:
            if action[0] == "set":
                _, net, level, offset = action
                at = None if offset is None else state.clock + offset
                got.append(outcome(lambda: state.set_primary(net, level, at)))
            else:
                _, max_time, until_ack = action
                got.append(outcome(lambda: state.run_until_quiescent(max_time, until_ack)))
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


@pytest.mark.parametrize("model, discipline",
                         [("unit", "one_list"), ("unit", "heap"), ("random3", "per_gate")])
@pytest.mark.parametrize("case", list(BATCHES))
def test_set_primaries_equals_one_set_primary_per_event(case, model, discipline):
    nl, x, y, w = chain(length=3)
    nets = {"x": x, "y": y, "w": w, "z": nl.gates[0].output}
    prelude, text, at, error = BATCHES[case]
    events = [(nets[word[0]], LEVELS[word[1:]]) for word in text.split()]
    pair = [force(SimState(nl, MODELS[model]), discipline) for _ in range(2)]
    for state in pair:
        if prelude:
            prelude(state, x)
    got = schedule_both(*pair, events, at)
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
BATCH_MODELS = {
    "one_list": [DelayModel.unit()],
    "heap": [DelayModel.unit(), DelayModel.random_per_gate(1, 5, seed=3)],
    "per_gate": [DelayModel.random_per_gate(1, 5, seed=3)],
}


@pytest.mark.parametrize("discipline", list(BATCH_MODELS))
@settings(max_examples=60, deadline=None)
@given(script=batches, data=st.data())
def test_arbitrary_batches_equal_one_call_per_event(discipline, script, data):
    dm = data.draw(st.sampled_from(BATCH_MODELS[discipline]))
    batched, called = (force(SimState(STAGE, dm), discipline) for _ in range(2))
    for events, offset, run_for in script:
        at = None if offset is None else batched.clock + offset
        got = schedule_both(batched, called, events, at, run_for)
        assert got[0] == got[1]
