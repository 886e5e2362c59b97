"""Timed settled lanes (``settle.run_cycles``) against the event engine."""

import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from qdimul.cells import FullAdderKind
from qdimul.harness import HANDSHAKE_ERRORS, Harness, StuckPhaseError, _Stage
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import (
    F_C,
    FAMILY,
    DualRailPort,
    Gate,
    GateKind,
    Netlist,
    Protocol,
    dualize,
    eval_family,
)
from qdimul.settle import NotSettleableError, run_cycles
from qdimul.sim import DelayModel, NonQuiescentError
from qdimul.verify import (
    CheckOutcome,
    _fail,
    _mutated,
    check_delay_insensitivity,
    check_monotonicity,
    default_pairs,
    inject_fork_skew,
    narrow_completion,
    sample_pairs,
    swap_port_rails,
)

HEALTHY = [FullAdderKind.DIMS_STRONG, FullAdderKind.WEAK_DISJOINT]

#: One delay per gate kind, unequal, so that a kind table differs from unit delays.
KIND_TABLE = DelayModel.fixed_table({k: 1 + i % 4 for i, k in enumerate(GateKind)})


def _engine(netlist, pairs, models):
    return [Harness(netlist, m).run_sequence(pairs) for m in models]


def _assert_lanes_equal_engine(netlist, pairs, models):
    lanes = run_cycles(netlist, pairs, models)
    for model, got, want in zip(models, lanes, _engine(netlist, pairs, models), strict=True):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g, g.trace, g.port_fault) == (w, None, None), model.describe()


# -- differential: every cycle equals the engine's, field for field -------------


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", HEALTHY, ids=lambda k: k.value)
@pytest.mark.parametrize("n", [2, 4])
def test_lanes_equal_the_engine_on_every_pair(n, kind, protocol):
    stage = generate(MultiplierSpec(n, kind, protocol))
    models = [DelayModel.unit(), KIND_TABLE]
    models += [DelayModel.random_per_gate(1, 20, s) for s in range(8)]
    _assert_lanes_equal_engine(stage, default_pairs(n), models)


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", HEALTHY, ids=lambda k: k.value)
def test_lanes_equal_the_engine_on_1000_wide_pairs(kind, protocol):
    stage = generate(MultiplierSpec(8, kind, protocol))
    # more than one chunk of lanes would need 1,025 pairs; 1,000 keep the test short
    _assert_lanes_equal_engine(stage, default_pairs(8, 1000, seed=5), [DelayModel.unit()])


@pytest.mark.parametrize("or4", [False, True], ids=["or4", "or4tree"])
@pytest.mark.parametrize("c3", [False, True], ids=["c3", "c3tree"])
@pytest.mark.parametrize("n", [2, 3])
def test_lanes_equal_the_engine_on_the_tree_options(n, c3, or4):
    for kind in HEALTHY:
        for protocol in Protocol:
            stage = generate(MultiplierSpec(n, kind, protocol, c3, or4))
            models = [DelayModel.unit(), KIND_TABLE, DelayModel.random_per_gate(1, 20, n)]
            _assert_lanes_equal_engine(stage, default_pairs(n), models)


def test_lanes_chain_cycles_across_chunks(monkeypatch):
    # chunks of 3 lanes: clocks carry from one chunk to the next
    from qdimul import settle
    monkeypatch.setattr(settle, "CHUNK", 3)
    stage = generate(MultiplierSpec(2, FullAdderKind.WEAK_DISJOINT))
    pairs = [(3, 3), (1, 2), (0, 0), (3, 3), (2, 1), (1, 1), (3, 2)]
    _assert_lanes_equal_engine(stage, pairs, [DelayModel.unit(), DelayModel.random_per_gate()])


def test_an_empty_pair_list_gives_empty_reports():
    stage = generate(MultiplierSpec(2))
    assert run_cycles(stage, [], [DelayModel.unit(), KIND_TABLE]) == [[], []]


# -- guards: refused, never a wrong report --------------------------------------


@pytest.fixture(scope="module")
def mult2():
    return generate(MultiplierSpec(n=2))


def _with_gates(stage, tag, *extra, **overrides):
    """``stage`` with ``extra`` gates (built from the next free gate id) appended."""
    g = len(stage.gates)
    gates = [*stage.gates, *(build(g + i) for i, build in enumerate(extra))]
    return _mutated(stage, tag, gates=gates, **overrides)


def _refusal(netlist, pairs, models):
    with pytest.raises(NotSettleableError) as refused:
        run_cycles(netlist, pairs, models)
    return refused.value


def test_a_netlist_the_lane_plan_refuses_is_refused(mult2):
    shared = _mutated(mult2, "phase_on_ack_in", phase_net=mult2.ack_in,
                      extra_inputs=(*mult2.extra_inputs, mult2.phase_net))
    assert _refusal(shared, [(1, 1)], [DelayModel.unit()]).reason == "INPUT_RESET"


@pytest.mark.parametrize("pair", [(4, 1), (1, -1), (1.5, 2), (True, 1), (1,)],
                         ids=["wide", "negative", "float", "bool", "short"])
def test_an_operand_pair_the_harness_refuses_is_refused_with_its_text(mult2, pair):
    pairs = [(1, 2), pair]
    with pytest.raises(ValueError) as engine:
        Harness(mult2).run_sequence(pairs)
    refused = _refusal(mult2, pairs, [DelayModel.unit()])
    assert refused.reason == "OPERANDS" and str(refused) == f"OPERANDS: {engine.value}"
    if len(pair) == 2:  # the serial loop unpacks each pair before run_cycle sees it
        # the check falls back to the engine, which raises run_cycle's ValueError
        with pytest.raises(ValueError, match=f"^{re.escape(str(engine.value))}$"):
            check_delay_insensitivity(mult2, pairs=pairs, seeds=1)


def test_a_model_that_is_not_a_delay_model_is_refused(mult2):
    with pytest.raises(ValueError, match="models must hold DelayModels, got 'unit'"):
        run_cycles(mult2, [(1, 1)], ["unit"])


def _stalled(stage):
    """``ack_out`` on a constant net at the spacer level: completion never asserts."""
    idle = stage.net_count
    return _mutated(stage, "stalled", ack_out=idle,
                    const_nets=(*stage.const_nets, (idle, stage.protocol.spacer_level)))


def _extra_port(stage):
    """An output port on the true rails of the ``a0`` and ``b0`` input latches.

    It shows a codeword when one of a0 and b0 is 1, none when both are 0,
    and the forbidden rail pair when both are 1.
    """
    latches = [next(g.output for g in stage.gates if set(g.inputs) == {p.rail1, stage.ack_in})
               for p in (stage.input_ports[0], stage.input_ports[len(stage.input_ports) // 2])]
    return _mutated(stage, "extra_port", output_ports=(
        *stage.output_ports, DualRailPort("X", *latches, "out")))


def _tied_ack_in(stage):
    """An extra AND2 (RTZ) or OR2 (RTO) with both inputs on ``ack_in``: two firing pins."""
    kind = GateKind.AND2 if stage.protocol is Protocol.RTZ else GateKind.OR2
    level = 1 - stage.protocol.spacer_level  # ack_in's reset level
    return _with_gates(stage, "tied_ack_in",
                       lambda g: Gate(g, kind, (stage.ack_in,) * 2, stage.net_count, level))


def _unlatched(stage):
    """The first input latch an AND2 (RTZ) or OR2 (RTO): the ack_in flip moves it."""
    rail = stage.input_ports[0].rail1
    latch = next(g for g in stage.gates if set(g.inputs) == {rail, stage.ack_in})
    kind = GateKind.AND2 if stage.protocol is Protocol.RTZ else GateKind.OR2
    return _mutated(stage, "unlatched", gates=[dataclasses.replace(g, kind=kind)
                                               if g is latch else g for g in stage.gates])


def _slow_reader(stage):
    """The design with its C3s built as C2 trees, and an extra C3 reading the
    phase net and ``ack_in`` twice: it moves in every window, and a kind
    table can slow it alone."""
    stage = generate(MultiplierSpec(2, protocol=stage.protocol, c3_as_tree=True))
    spacer = stage.protocol.spacer_level
    return _with_gates(stage, "slow_reader", lambda g: Gate(
        g, GateKind.C3, (stage.phase_net, stage.ack_in, stage.ack_in), stage.net_count, spacer))


def _sticky(stage):
    """An extra C2 on ``a0``'s true rail and a constant at the active level: it
    takes the data and holds it through the spacer window."""
    spacer, c = stage.protocol.spacer_level, stage.net_count
    return _with_gates(stage, "sticky", lambda g: Gate(
        g, GateKind.C2, (stage.input_ports[0].rail1, c), c + 1, spacer),
        const_nets=(*stage.const_nets, (c, 1 - spacer)))


UNIT = [DelayModel.unit()]

#: Each guard: how the 2x2 stage is broken, the pairs and models, the reason
#: the lanes give, and what the engine raises (None: it returns reports).
GUARDS = {
    "completion": (_stalled, [(1, 1)], UNIT, "COMPLETION", StuckPhaseError),
    "product": (swap_port_rails, [(0, 0), (1, 1)], UNIT, "PRODUCT", None),
    "port": (_extra_port, [(1, 0), (0, 0)], UNIT, "PORT", None),
    "merge": (lambda s: generate(MultiplierSpec(2, FullAdderKind.MAJORITY_CONTROL, s.protocol)),
              [(3, 3), (0, 0)], UNIT, "MERGE", None),
    "tied_ack_in": (_tied_ack_in, [(1, 1)], UNIT, "MERGE", None),
    "ack_in_flip": (_unlatched, [(1, 1)], UNIT, "ACK_IN_FLIP", None),
    "ack_in_late": (_slow_reader, [(1, 1)],
                    [DelayModel.fixed_table({**{k: 1 for k in GateKind}, GateKind.C3: 40})],
                    "ACK_IN_LATE", None),
    "reset": (_sticky, [(0, 0), (1, 1)], UNIT, "RESET", StuckPhaseError),
    "guard": (lambda s: s, [(3, 3)], [DelayModel.fixed_table({k: 400_000 for k in GateKind})],
              "GUARD", NonQuiescentError),
}


def _breaks_a_rule(netlist, pairs, model):
    """Whether the engine's traced cycles break a rule ``check_delay_insensitivity`` checks."""
    reports = Harness(netlist, model).run_sequence(pairs, want_traces=True)
    return (any(r.product != r.a * r.b or r.port_fault for r in reports)
            or not check_monotonicity(netlist, reports))


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("guard", list(GUARDS))
def test_a_lane_outside_the_argument_is_refused(guard, protocol):
    break_, pairs, models, reason, raised = GUARDS[guard]
    nl = break_(generate(MultiplierSpec(2, protocol=protocol)))
    assert _refusal(nl, pairs, models).reason == reason
    if raised is not None:
        with pytest.raises(raised):
            _engine(nl, pairs, models)
    else:
        assert all(_breaks_a_rule(nl, pairs, m) for m in models)
    if guard == "ack_in_late":
        # under unit delays the reader lands by ack_out, inside the argument
        _assert_lanes_equal_engine(nl, pairs, UNIT)


# -- random accepted netlists: refused with a reason, or the engine's cycles ----

REASONS = {"GATE_KIND", "CYCLE", "HANDSHAKE", "INPUT_RESET", "ACK_IN_READER", "OPERANDS",
           "PORT", "COMPLETION", "PRODUCT", "MERGE", "ACK_IN_FLIP", "RESET", "ACK_IN_LATE",
           "GUARD"}

KINDS = [GateKind.AND2, GateKind.AND3, GateKind.OR2, GateKind.OR3, GateKind.C2, GateKind.C3]


def _one_bit_stage(draw):
    """A 1x1 RTZ stage with random C/AND/OR logic wired in, built without the generator.

    Input latches C2(rail, ack_in), four C2 minterms, P0's false rail an OR3
    of three of them and completion an OR2 of P0's rails.  Then up to six
    random gates read any earlier net; ``ack_out`` may also wait for one of
    them and P0's true rail may be ORed with one.  Every reset level is the
    gate's value at reset; a C-element whose inputs differ there takes a
    drawn level, but the latches and ``ack_out`` reset at 0, so that
    ``ack_in`` resets at 1.  ``draw`` takes a strategy and returns a value
    of it.
    """
    a1, a0, b1, b0, phase, ack_in = range(6)
    levels = [0, 0, 0, 0, 0, 1]
    gates = []

    def gate(kind, inputs, hold=None):
        """A new gate's output net; ``hold`` is a holding C-element's reset, else drawn."""
        if FAMILY[kind] == F_C and len({levels[n] for n in inputs}) > 1:
            reset = draw(st.integers(0, 1)) if hold is None else hold
        else:
            reset = eval_family(FAMILY[kind], inputs, levels, 0)
        gates.append(Gate(len(gates), kind, tuple(inputs), len(levels), reset))
        levels.append(reset)
        return len(levels) - 1

    la1, la0, lb1, lb0 = (gate(GateKind.C2, (r, ack_in), 0) for r in (a1, a0, b1, b0))
    m11, m10, m01, m00 = (gate(GateKind.C2, pair)
                          for pair in ((la1, lb1), (la1, lb0), (la0, lb1), (la0, lb0)))
    false_rail = gate(GateKind.OR3, (m10, m01, m00))
    done = gate(GateKind.OR2, (m11, false_rail))
    pool = list(range(len(levels)))
    extra = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(KINDS))
        arity = int(kind.value[-1])
        out = gate(kind, draw(st.lists(st.sampled_from(pool), min_size=arity, max_size=arity)))
        pool.append(out)
        extra.append(out)
    true_rail = m11
    if extra and draw(st.booleans()):
        true_rail = gate(GateKind.OR2, (m11, draw(st.sampled_from(extra))))
    ack_out = done
    if extra and draw(st.booleans()):
        ack_out = gate(GateKind.C2, (done, draw(st.sampled_from(extra))), 0)
    return Netlist(
        Protocol.RTZ, gates,
        input_ports=[DualRailPort("a0", a1, a0, "in"), DualRailPort("b0", b1, b0, "in")],
        output_ports=[DualRailPort("P0", true_rail, false_rail, "out")],
        ack_out=ack_out, ack_in=ack_in, phase_net=phase,
        meta={"n": 1, "operands": {"a": ["a0"], "b": ["b0"]}, "products": ["P0"]})


ONE_BIT_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _lanes_or_refusal(nl, pairs, models):
    """"accepted" when the lanes return the engine's reports, else the reason they refuse."""
    try:
        lanes = run_cycles(nl, pairs, models)
    except NotSettleableError as refused:
        assert refused.reason in REASONS
        return refused.reason
    assert lanes == _engine(nl, pairs, models)
    return "accepted"


@settings(max_examples=150, deadline=None)
@given(st.composite(_one_bit_stage)(),
       st.lists(st.sampled_from(ONE_BIT_PAIRS), min_size=1, max_size=6),
       st.integers(0, 2 ** 16), st.booleans())
def test_a_random_stage_is_refused_with_a_reason_or_matches_the_engine(nl, pairs, seed, rto):
    if nl.validate():
        return  # validate refuses the netlist before either backend runs
    if rto:
        nl = dualize(nl)
    _lanes_or_refusal(nl, pairs, [DelayModel.unit(), DelayModel.random_per_gate(1, 20, seed)])


def test_the_bare_one_bit_stage_is_accepted_and_a_stalled_one_refused():
    bare = _one_bit_stage(lambda strategy: 0)  # no random gate, C resets at 0
    assert not bare.validate()
    models = [DelayModel.unit(), DelayModel.random_per_gate(1, 20, 4)]
    for nl in (bare, dualize(bare)):
        assert _lanes_or_refusal(nl, ONE_BIT_PAIRS * 2, models) == "accepted"
        assert _lanes_or_refusal(_stalled(nl), ONE_BIT_PAIRS, models) == "COMPLETION"


# -- check_delay_insensitivity: the lanes decide, the engine explains -----------


def _serial_delay_insensitivity(netlist, pairs=None, seeds=8, samples=16, seed=0):
    """``check_delay_insensitivity`` as it was before the lanes: every model and
    pair on the traced engine, each cycle then walked by ``check_monotonicity``."""
    name = "delay_insensitivity"
    pairs = (sample_pairs(len(_Stage.of(netlist).a_ports), samples, seed) if pairs is None
             else list(pairs))
    if isinstance(seeds, int):
        seeds = range(seeds)
    models = [DelayModel.unit()]
    models += [DelayModel.random_per_gate(1, 20, s) for s in seeds]
    cycle_times = set()
    scenarios = 0
    for dm in models:
        harness = Harness(netlist, dm)
        for idx, (a, b) in enumerate(pairs):
            stim = {"a": a, "b": b, "cycle": idx}
            try:
                r = harness.run_cycle(a, b, want_trace=True)
            except HANDSHAKE_ERRORS as exc:
                return _fail(name, netlist, stim, dm, f"{type(exc).__name__}: {exc}",
                             "clean handshake cycle", scenarios, harness.state.trace)
            if r.product != a * b:
                return _fail(name, netlist, stim, dm, f"product {r.product}",
                             f"product {a * b}", scenarios, r.trace or ())
            if r.port_fault:
                return _fail(name, netlist, stim, dm, r.port_fault,
                             "each port: one codeword, one spacer per cycle",
                             scenarios, r.trace or ())
            mono = check_monotonicity(netlist, [r])
            if not mono:
                ce = mono.counterexample
                return CheckOutcome(name, False, mono.detail, scenarios, dataclasses.replace(
                    ce, check=name, stimulus={**ce.stimulus, "cycle": idx},
                    delay_model=dm.describe()))
            cycle_times.add(r.cycle)
            scenarios += 1
    detail = (f"{scenarios} cycles over {len(models)} delay models agree with the oracle; "
              f"{len(cycle_times)} distinct cycle times observed")
    return CheckOutcome(name, True, detail, scenarios,
                        stats={"models": len(models), "cycle_times": sorted(cycle_times)})


def _fork_skew(stage):
    """Sixteen OR2 buffers on one branch of a fork into P0's true-rail minterm."""
    p0 = next(p for p in stage.output_ports if p.name == "P0")
    consumer = stage.net(p0.rail1).driver_gate
    fork_net = stage.gate_by_id[consumer].inputs[0]
    return inject_fork_skew(stage, fork_net, consumer, stages=16)


CONTROLS = {
    "majority2": lambda: generate(MultiplierSpec(2, FullAdderKind.MAJORITY_CONTROL)),
    "majority4": lambda: generate(MultiplierSpec(4, FullAdderKind.MAJORITY_CONTROL)),
    "swap_port_rails": lambda: swap_port_rails(generate(MultiplierSpec(2))),
    "narrow_completion": lambda: narrow_completion(generate(MultiplierSpec(2))),
    "fork_skew16": lambda: _fork_skew(generate(MultiplierSpec(2))),
    "dims2": lambda: generate(MultiplierSpec(2)),
    "weak4_rto": lambda: generate(MultiplierSpec(4, FullAdderKind.WEAK_DISJOINT,
                                                 Protocol.RTO)),
}


@pytest.mark.parametrize("control", list(CONTROLS))
def test_delay_insensitivity_keeps_the_serial_loops_outcome(control):
    nl = CONTROLS[control]()
    for kwargs in ({}, {"seeds": 2, "samples": 5, "seed": 3},
                   {"pairs": [(3, 3), (0, 0), (1, 2)], "seeds": (7, -1)}):
        got = check_delay_insensitivity(nl, **kwargs)
        want = _serial_delay_insensitivity(nl, **kwargs)
        assert got == want
        if not want:
            assert got.counterexample.to_json() == want.counterexample.to_json()
    # the patient environment waits out the skew and the narrowed completion,
    # but the skew's OR2(x, x) buffers take two firing inputs in one window
    assert bool(got) == (control in ("dims2", "weak4_rto", "narrow_completion"))
