"""Handshake driver: cycle mechanics, latencies, error paths, exports."""

import dataclasses
import io
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import golden
import qdimul.harness as harness_mod
from qdimul.harness import (
    HANDSHAKE_ERRORS,
    CycleReport,
    EmptyReportsError,
    Harness,
    IllegalOutputError,
    NotAStageError,
    StuckPhaseError,
    _illegal_points,
    cycle_reports_json,
    drive,
    measure_latencies,
    scan_port_changes,
    write_cycle_reports_csv,
)
from qdimul.cells import FullAdderKind
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import (
    DiagnosticCode,
    DualRailPort,
    DualRailValue,
    Gate,
    GateKind,
    InvalidNetlistError,
    Netlist,
    Protocol,
    deserialize,
    encode,
    serialize,
)
from qdimul.sim import ENV, DelayModel, SimState, reset
from qdimul.verify import (
    default_pairs,
    inject_fork_skew,
    narrow_completion,
    sample_pairs,
    swap_port_rails,
)
from test_queue_disciplines import force


def test_cycle_report_is_a_frozen_value():
    fields = dict(a=1, b=2, product=2, forward=5, reverse=4, cycle=9, transitions=30,
                  data_start=0, spacer_start=6, end=11)
    r = CycleReport(*fields.values())
    assert r == CycleReport(**fields) == CycleReport(**fields, trace=None)
    assert hash(r) == hash(CycleReport(**fields))
    assert r != CycleReport(**{**fields, "end": 12})
    assert repr(r) == ("CycleReport(a=1, b=2, product=2, forward=5, reverse=4, cycle=9, "
                       "transitions=30, data_start=0, spacer_start=6, end=11, trace=None)")
    traced = dataclasses.replace(r, trace=[(0, 1, 1, -1)])
    assert traced.trace == [(0, 1, 1, -1)] and dataclasses.replace(traced, trace=None) == r
    assert dataclasses.astuple(r) == (*fields.values(), None, None)
    assert not hasattr(r, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.product = 3
    with pytest.raises(TypeError):
        CycleReport(1, 2, 2, 5, 4, 9, 30, 0, 6)


@pytest.fixture(scope="module")
def mult2():
    return generate(MultiplierSpec(n=2))


def test_cycle_report_fields(mult2):
    r = Harness(mult2).run_cycle(2, 3)
    assert r.product == 6
    assert r.cycle == r.forward + r.reverse
    assert r.transitions > 0
    assert r.data_start < r.spacer_start <= r.end
    assert r.trace is None


def test_consecutive_cycles_share_state_and_stay_correct(mult2):
    h = Harness(mult2)
    pairs = [(a, b) for a in range(4) for b in range(4)] * 2
    for r, (a, b) in zip(h.run_sequence(pairs), pairs):
        assert r.product == a * b


def test_forward_equals_reverse_under_unit_delays(mult2):
    for r in Harness(mult2).run_sequence([(0, 0), (1, 3), (3, 3), (2, 1)]):
        assert r.forward == r.reverse


def test_cycle_timestamps_advance_monotonically(mult2):
    h = Harness(mult2)
    r1 = h.run_cycle(1, 1)
    r2 = h.run_cycle(2, 2)
    assert r2.data_start >= r1.end


def test_trace_capture_and_port_scan(mult2):
    r = Harness(mult2).run_cycle(3, 2, want_trace=True)
    assert r.trace
    changes = scan_port_changes(mult2, mult2.reset_levels(), r.trace)
    for name, points in changes.items():
        values = [v for _, v in points]
        assert values[0].bit is not None
        assert values[1] is DualRailValue.SPACER
        assert len(values) == 2


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_port_scan_takes_any_iterable(protocol):
    nl = generate(MultiplierSpec(n=2, protocol=protocol))
    trace = Harness(nl).run_burst([(1, 3), (3, 3), (2, 1)]).trace
    base = nl.reset_levels()
    changes = scan_port_changes(nl, base, trace)
    assert sum(map(len, changes.values())) > 2 * len(nl.ports)
    assert scan_port_changes(nl, base, (event for event in trace)) == changes
    assert scan_port_changes(nl, base, iter([])) == {p.name: [] for p in nl.ports}


def test_operands_must_fit(mult2):
    h = Harness(mult2)
    with pytest.raises(ValueError):
        h.run_cycle(4, 0)
    with pytest.raises(ValueError):
        h.run_cycle(0, -1)


@pytest.mark.parametrize("bad", [4, -1, 1.5, 1.0, True, False, "1", None],
                         ids=["4", "-1", "1.5", "1.0", "True", "False", "str", "None"])
def test_an_operand_must_be_an_int_of_n_bits_before_anything_is_scheduled(bad):
    stage = generate(MultiplierSpec(n=2))
    h = Harness(stage)
    h.run_cycle(1, 2)  # recorded: a float equal to 1 must not find it
    clock = h.state.clock
    for pair in ((bad, 2), (1, bad)):
        with pytest.raises(ValueError, match=r"operands must be ints in \[0, 4\), got "):
            h.run_cycle(*pair)
        # a burst checks every pair up front
        with pytest.raises(ValueError, match=r"operands must be ints in \[0, 4\), got "):
            h.run_burst([(1, 1), pair])
        assert h.state.quiescent and h.state.trace == [] and h.state.clock == clock
    assert h.run_cycle(1, 2).product == 2


def test_harness_requires_stage_metadata(mult2):
    for meta in ({}, {"operands": 5, "products": []},
                 {"operands": {"a": ["zz"], "b": []}, "products": []}):
        bare = Netlist(mult2.protocol, mult2.gates, mult2.input_ports, mult2.output_ports,
                       ack_out=mult2.ack_out, ack_in=mult2.ack_in,
                       const_nets=mult2.const_nets, phase_net=mult2.phase_net,
                       extra_inputs=mult2.extra_inputs, meta=meta)
        with pytest.raises(NotAStageError):
            Harness(bare)


def test_stuck_phase_when_completion_never_asserts(mult2):
    # point ack_out at a constant net: the data phase then never acknowledges
    const_net = mult2.const_nets[0][0]
    stuck = Netlist(mult2.protocol, mult2.gates, mult2.input_ports, mult2.output_ports,
                    ack_out=const_net, ack_in=mult2.ack_in,
                    const_nets=mult2.const_nets, phase_net=mult2.phase_net,
                    extra_inputs=mult2.extra_inputs, meta=mult2.meta)
    with pytest.raises(StuckPhaseError):
        Harness(stuck).run_cycle(1, 1)


def test_undriven_ack_out_is_rejected(mult2):
    undriven = mult2.net_count + 5
    bad = Netlist(mult2.protocol, mult2.gates, mult2.input_ports, mult2.output_ports,
                  ack_out=undriven, ack_in=mult2.ack_in,
                  const_nets=mult2.const_nets, phase_net=mult2.phase_net,
                  extra_inputs=mult2.extra_inputs, meta=mult2.meta)
    assert [d.code for d in bad.validate()] == [DiagnosticCode.UNCONNECTED_INPUT]
    with pytest.raises(InvalidNetlistError, match="ack_out"):
        reset(bad)
    with pytest.raises(InvalidNetlistError, match="ack_out"):
        Harness(bad)


def _with_output_ports(stage, ports):
    return Netlist(stage.protocol, stage.gates, stage.input_ports, ports,
                   ack_out=stage.ack_out, ack_in=stage.ack_in,
                   const_nets=stage.const_nets, phase_net=stage.phase_net,
                   extra_inputs=stage.extra_inputs, meta=stage.meta)


def _crossed_rails(stage):
    # P0 reads P1's true rail as its false rail; with both bits at 1 the
    # pair shows both rails active at data time, which decodes ILLEGAL
    p0, p1 = stage.output_ports[:2]
    return _with_output_ports(
        stage, (DualRailPort(p0.name, p0.rail1, p1.rail1, "out"),) + stage.output_ports[1:])


def test_illegal_output_detected(mult2):
    with pytest.raises(IllegalOutputError):
        Harness(_crossed_rails(mult2)).run_cycle(1, 3)


def _p0_true_rail_on_ack_in(stage):
    # P0's true rail is ack_in, active at reset: the reset state itself has
    # a product port off SPACER, and an even product still decodes
    p0 = next(p for p in stage.output_ports if p.name == "P0")
    return _with_output_ports(stage, tuple(
        DualRailPort("P0", stage.ack_in, p.rail0, "out") if p is p0 else p
        for p in stage.output_ports))


def _latch_left_set(stage):
    # an extra C-element on (phase, ack_in) resets at the active level, is
    # cleared by the spacer phase and never set again
    active = stage.protocol.active_level
    extra = Gate(len(stage.gates), GateKind.C2, (stage.phase_net, stage.ack_in),
                 stage.net_count, active)
    return Netlist(stage.protocol, [*stage.gates, extra], stage.input_ports,
                   stage.output_ports, ack_out=stage.ack_out, ack_in=stage.ack_in,
                   const_nets=stage.const_nets, phase_net=stage.phase_net,
                   extra_inputs=stage.extra_inputs, meta=stage.meta)


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_end_of_cycle_names_the_first_failure(protocol):
    stage = generate(MultiplierSpec(n=2, protocol=protocol))
    off_spacer = _p0_true_rail_on_ack_in(stage)
    latched = _latch_left_set(stage)
    both = _latch_left_set(off_spacer)
    # the reset levels alone would pass the first: its port is walked anyway
    for netlist, message in ((off_spacer, "port P0 failed to return to spacer"),
                             (latched, "cycle ended away from the reset state"),
                             (both, "port P0 failed to return to spacer")):
        for dm in (DelayModel.unit(), DelayModel.random_per_gate(1, 20, seed=5)):
            with pytest.raises(StuckPhaseError, match=message):
                Harness(netlist, dm).run_cycle(2, 2)
    assert Harness(stage).run_cycle(2, 2).product == 4
    with pytest.raises(StuckPhaseError, match="product port P0 still at spacer"):
        Harness(off_spacer).run_cycle(1, 1)


def test_rto_harness_runs_identically(mult2):
    rto = generate(MultiplierSpec(n=2, protocol=Protocol.RTO))
    r_rtz = Harness(mult2).run_cycle(3, 2)
    r_rto = Harness(rto).run_cycle(3, 2)
    assert r_rto.product == r_rtz.product == 6
    assert (r_rto.forward, r_rto.reverse) == (r_rtz.forward, r_rtz.reverse)


def test_random_delays_change_latency_not_product(mult2):
    slow = Harness(mult2, DelayModel.random_per_gate(5, 30, seed=1))
    fast = Harness(mult2)
    r_slow, r_fast = slow.run_cycle(3, 3), fast.run_cycle(3, 3)
    assert r_slow.product == r_fast.product == 9
    assert r_slow.cycle > r_fast.cycle


def test_run_burst_matches_oracle_and_reports_windows(mult2):
    h = Harness(mult2)
    pairs = [(1, 2), (3, 3), (2, 2)]
    result = h.run_burst(pairs)
    assert [r.product for r in result.reports] == [2, 9, 4]
    assert result.illegal == []
    assert len(result.windows) == len(pairs)
    assert result.trace


def test_run_burst_counts_each_cycles_transitions(mult2):
    result = Harness(mult2).run_burst([(1, 2), (3, 3)])
    counts = [r.transitions for r in result.reports]
    assert sum(counts) == len(result.trace)
    assert all(c > 0 for c in counts)
    # cycle k owns the events from its data start up to the next cycle's
    second = result.reports[1].data_start
    assert counts[0] == sum(t < second for t, *_ in result.trace)


def test_drive_puts_codewords_and_rejects_bad_bits(mult2):
    for protocol in Protocol:
        stage = generate(MultiplierSpec(n=2, protocol=protocol))
        port = stage.input_ports[0]
        for bit in (0, 1, None):
            st = reset(stage)
            drive(st, [port], [bit], 3)
            st.run_until_quiescent()
            want = (encode(bit, protocol) if bit is not None
                    else (protocol.spacer_level,) * 2)
            assert (st.levels[port.rail1], st.levels[port.rail0]) == want
        # several ports in one call: each gets its own bit, rail1 then rail0
        ports = stage.input_ports[:3]
        bits = (1, None, 0)
        st = reset(stage)
        drive(st, ports, bits, 3)
        st.run_until_quiescent()
        for p, b in zip(ports, bits):
            want = encode(b, protocol) if b is not None else (protocol.spacer_level,) * 2
            assert (st.levels[p.rail1], st.levels[p.rail0]) == want
    for bad in (2, -1, "1", [1]):
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            drive(reset(mult2), [mult2.input_ports[0]], [bad])
    # a bad bit anywhere schedules nothing
    st = reset(mult2)
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        drive(st, mult2.input_ports[:2], [1, 2])
    assert st.quiescent
    for bits in ([1], [1, 0, 1]):
        with pytest.raises(ValueError, match=f"2 ports but {len(bits)} bits"):
            drive(st, mult2.input_ports[:2], bits)
    assert st.quiescent


# -- observation shortcuts against the paths they replace ---------------------


def _scan_by_rail_levels(netlist, base_levels, trace):
    """The port scan as first written: a level per rail, each port decoded anew."""
    table, ports = netlist.decode_table, netlist.ports
    watchers = {}
    for i, p in enumerate(ports):
        for rail in (p.rail1, p.rail0):
            watchers.setdefault(rail, []).append((i, p.rail1, p.rail0))
    rails = {net: base_levels[net] for net in watchers}
    current = [table[2 * rails[p.rail1] + rails[p.rail0]] for p in ports]
    changes = {p.name: [] for p in ports}
    for t, net, level, _cause in trace:
        if net in watchers:
            rails[net] = level
            for i, r1, r0 in watchers[net]:
                val = table[2 * rails[r1] + rails[r0]]
                if val is not current[i]:
                    current[i] = val
                    changes[ports[i].name].append((t, val))
    return changes


@pytest.mark.parametrize("model", ["unit", "random"])
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(FullAdderKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n", [2, 4])
def test_port_scan_matches_the_rail_level_oracle(n, kind, protocol, model):
    nl = generate(MultiplierSpec(n, kind, protocol))
    dm = DelayModel.unit() if model == "unit" else DelayModel.random_per_gate(1, 20, seed=n)
    pairs = default_pairs(n, seed=n)[::7][:6]
    traces = [r.trace for r in Harness(nl, dm).run_sequence(pairs, want_traces=True)]
    traces.append(Harness(nl, dm).run_burst(pairs).trace)  # phases overlap
    # an event that re-asserts a rail's level changes no code
    rails = {r for p in nl.ports for r in (p.rail1, p.rail0)}
    first = next(i for i, e in enumerate(traces[0]) if e[1] in rails)
    traces.append(traces[0][:first + 1] + traces[0][first:])
    base = nl.reset_levels()
    for trace in traces:
        want = _scan_by_rail_levels(nl, base, trace)
        assert scan_port_changes(nl, base, trace) == want
        assert scan_port_changes(nl, base, (e for e in trace)) == want
        # from other levels, and with rails set to levels they already hold
        flipped = [1 - lv for lv in base]
        assert (scan_port_changes(nl, flipped, trace)
                == _scan_by_rail_levels(nl, flipped, trace))


def test_port_scan_with_shared_and_tied_rails_matches_the_oracle():
    # P and Q share net 1; T has one net for both rails
    ports = [DualRailPort("P", 0, 1, "in"), DualRailPort("Q", 1, 2, "in"),
             DualRailPort("T", 3, 3, "in"), DualRailPort("P", 2, 0, "in")]
    nl = Netlist(Protocol.RTZ, [], ports, extra_inputs=[0, 1, 2, 3])
    rng = random.Random(7)
    for _ in range(50):
        base = [rng.randrange(2) for _ in range(4)]
        trace = [(t, rng.randrange(4), rng.randrange(2), ENV) for t in range(30)]
        assert scan_port_changes(nl, base, trace) == _scan_by_rail_levels(nl, base, trace)


def _full_scan_illegal(netlist, trace):
    changes = scan_port_changes(netlist, netlist.reset_levels(), trace)
    return [(t, name) for name, points in changes.items()
            for t, val in points if val is DualRailValue.ILLEGAL]


def _observed(harness, run):
    """Each (ack edges, port events, trace) the state holds when its trace is taken.

    The state left over at the end (after a raise mid-cycle or mid-burst)
    is the last entry.
    """
    st = harness.state
    seen = []
    take = st.take_trace

    def spy():
        seen.append((list(st.ack_edges), list(st.port_events), list(st.trace)))
        return take()

    st.take_trace = spy
    run(harness)
    seen.append((list(st.ack_edges), list(st.port_events), list(st.trace)))
    return seen


def _cycles(harness, operands=range(4)):
    for a in operands:
        for b in operands:
            try:
                harness.run_cycle(a, b, want_trace=True)
            except IllegalOutputError:
                pass  # raised after the trace was taken, at the reset state


def _odd_cycles(harness):
    # with crossed rails an even product leaves P0 at spacer, a stuck cycle
    _cycles(harness, (1, 3))


def _bursts(harness):
    try:
        result = harness.run_burst([(1, 0), (0, 1), (1, 0), (0, 1), (3, 3), (2, 1)])
    except (IllegalOutputError, StuckPhaseError):
        return
    assert result.illegal == sorted(_full_scan_illegal(harness.netlist, result.trace))


def _skewed(stage):
    p0 = next(p for p in stage.output_ports if p.name == "P0")
    consumer = stage.net(p0.rail1).driver_gate
    return inject_fork_skew(stage, stage.gate_by_id[consumer].inputs[0], consumer, stages=16)


def _active_at_reset(stage):
    # an extra port starts at a codeword: its true rail is ack_in, active
    # at reset in both protocols, and its false rail is P0's
    p0 = next(p for p in stage.output_ports if p.name == "P0")
    extra = DualRailPort("X", stage.ack_in, p0.rail0, "out")
    return _with_output_ports(stage, stage.output_ports + (extra,))


def _ack_out_port(stage):
    # an extra port whose true rail is ack_out, so one net is both a port
    # rail and the acknowledge; its false rail is P0's
    p0 = next(p for p in stage.output_ports if p.name == "P0")
    extra = DualRailPort("K", stage.ack_out, p0.rail0, "out")
    return _with_output_ports(stage, stage.output_ports + (extra,))


UNIT, RANDOM = DelayModel.unit(), DelayModel.random_per_gate(1, 20, seed=3)
SCENARIOS = {
    "healthy": (lambda s: s, (UNIT, RANDOM), (_cycles, _bursts), False),
    "crossed_rails": (_crossed_rails, (UNIT, RANDOM), (_odd_cycles,), True),
    "fork_skew": (_skewed, (UNIT, RANDOM, DelayModel.random_per_gate(1, 20, seed=13)),
                  (_bursts,), True),
    "active_at_reset": (_active_at_reset, (UNIT, RANDOM), (_cycles, _bursts), True),
    "ack_out_port": (_ack_out_port, (UNIT, RANDOM), (_cycles, _bursts), True),
}


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_ack_edges_and_illegal_screen_match_the_trace(scenario, protocol):
    build, models, runs, expect_illegal = SCENARIOS[scenario]
    stage = build(generate(MultiplierSpec(n=2, protocol=protocol)))
    rails = {r for p in stage.ports for r in (p.rail1, p.rail0)}
    traces = illegal = on_ack_in = on_ack_out = 0
    for dm in models:
        for run in runs:
            harness = Harness(stage, dm)
            for edges, events, trace in _observed(harness, run):
                assert edges == [(t, lv) for t, net, lv, _ in trace if net == stage.ack_out]
                assert events == [e for e in trace if e[1] in rails]
                want = _full_scan_illegal(stage, trace)
                scan = scan_port_changes(stage, stage.reset_levels(), events)
                assert _illegal_points(scan) == want
                traces += bool(trace)
                illegal += bool(want)
                on_ack_in += any(e[1] == stage.ack_in for e in events)
                on_ack_out += any(e[1] == stage.ack_out for e in events)
    assert traces
    assert bool(illegal) == expect_illegal
    # the extra ports of these two have ack_in and ack_out for a true rail
    assert bool(on_ack_in) == (scenario == "active_at_reset")
    assert bool(on_ack_out) == (scenario == "ack_out_port")


# -- the port rule against the acceptance oracle ---------------------------------


def _port_verdicts(stage, models, pairs):
    """(report, oracle verdict) of each cycle that ``run_cycle`` completes."""
    levels = stage.reset_levels()
    for dm in models:
        harness = Harness(stage, dm)
        for a, b in pairs:
            try:
                r = harness.run_cycle(a, b, want_trace=True)
            except HANDSHAKE_ERRORS:
                harness = Harness(stage, dm)  # the failed cycle may have left events
                continue
            yield r, golden.port_rule_ok(stage, levels, r)


@pytest.fixture
def port_scans(monkeypatch):
    """The calls ``run_cycle`` makes to the port scan, counted."""
    calls = []
    scan = harness_mod.scan_port_changes
    monkeypatch.setattr(harness_mod, "scan_port_changes",
                        lambda *args: calls.append(1) or scan(*args))
    return calls


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(FullAdderKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n", [2, 4, 8])
def test_port_fault_matches_the_oracle_on_generated_stages(n, kind, protocol, port_scans):
    stage = generate(MultiplierSpec(n, kind, protocol))
    models = [UNIT] + [DelayModel.random_per_gate(1, 20, seed) for seed in range(8)]
    pairs = sample_pairs(n, {2: 16, 4: 6, 8: 3}[n], seed=n)
    verdicts = list(_port_verdicts(stage, models, pairs))
    assert len(verdicts) == len(models) * len(pairs)
    assert all((r.port_fault is None) == ok for r, ok in verdicts)
    # every cycle is cleared by the count, never scanned
    assert all(ok for _, ok in verdicts) and not port_scans


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("n", [2, 4])
def test_port_fault_matches_the_oracle_on_negative_controls(n, protocol):
    stage = generate(MultiplierSpec(n, protocol=protocol))
    controls = (swap_port_rails(stage), narrow_completion(stage), _skewed(stage),
                generate(MultiplierSpec(n, FullAdderKind.MAJORITY_CONTROL, protocol)))
    for control in controls:
        verdicts = list(_port_verdicts(control, (UNIT, RANDOM), sample_pairs(n, 8)))
        assert verdicts
        assert all((r.port_fault is None) == ok for r, ok in verdicts)


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("build", [_active_at_reset, _ack_out_port])
def test_port_fault_falls_back_to_the_scan(build, protocol, port_scans):
    stage = build(generate(MultiplierSpec(n=2, protocol=protocol)))
    pairs = default_pairs(2)
    verdicts = list(_port_verdicts(stage, (UNIT, RANDOM), pairs))
    # every cycle reaches the port check, and none is cleared by the count
    assert len(port_scans) == 2 * len(pairs) > len(verdicts) > 0
    assert all((r.port_fault is None) == ok for r, ok in verdicts)
    # an odd product passes the extra port of one, and breaks the other's
    faults = {r.port_fault for r, _ in verdicts}
    assert (None in faults) == (build is _ack_out_port)
    assert (faults != {None}) == (build is _active_at_reset)


N2_STAGES = {p: generate(MultiplierSpec(n=2, protocol=p)) for p in Protocol}


@settings(max_examples=300, deadline=None)
@given(protocol=st.sampled_from(list(Protocol)), data=st.data())
def test_port_rule_count_matches_the_scan(protocol, data):
    """Port-event histories from the reset state back to it, judged both ways."""
    stage = N2_STAGES[protocol]
    harness = Harness(stage)
    levels = stage.reset_levels()
    ports = stage.ports
    # most ports move one rail up and down; the drawn ones move their rails at
    # will (nothing, ILLEGAL, a codeword twice), each rail an even number of times
    free = data.draw(st.sets(st.sampled_from(range(len(ports))), max_size=3))
    moves = []
    for i, p in enumerate(ports):
        rails = st.sampled_from((p.rail1, p.rail0))
        if i in free:
            m = data.draw(st.lists(rails, max_size=6))
            m += [r for r in (p.rail1, p.rail0) if m.count(r) % 2]
        else:
            m = [data.draw(rails)] * 2
        moves.append(m)
    order = data.draw(st.permutations([i for i, m in enumerate(moves) for _ in m]))
    pending = [iter(m) for m in moves]
    now, events = list(levels), []
    for t, i in enumerate(order):
        net = next(pending[i])
        now[net] ^= 1
        events.append((t, net, now[net], ENV))
    assert now == levels
    ok = golden.port_rule_ok(stage, levels, SimpleNamespace(trace=events))
    assert harness._stage.keeps_port_rule(events) == ok
    illegal = _illegal_points(scan_port_changes(stage, levels, events))
    if illegal:
        t, name = illegal[0]
        with pytest.raises(IllegalOutputError, match=f"^port {name} decodes ILLEGAL at t={t}$"):
            harness._port_fault(events)
    else:
        assert (harness._port_fault(events) is None) == ok


# -- the cycle record ----------------------------------------------------------


class Counting(SimState):
    """A state that counts its engine calls."""

    calls = 0

    def run_until_quiescent(self, *args, **kwargs):
        self.calls += 1
        return super().run_until_quiescent(*args, **kwargs)


def _fields(r):
    """Every field of a report but the trace, ``port_fault`` included."""
    return dataclasses.astuple(dataclasses.replace(r, trace=None))


def _outcome(harness, a, b, traced):
    try:
        return harness.run_cycle(a, b, want_trace=traced)
    except HANDSHAKE_ERRORS as exc:
        return type(exc).__name__, str(exc)


def _same_as_a_fresh_copy(netlist, dm, discipline, steps):
    """Run ``steps`` ``(a, b, traced)`` on ``netlist`` and traced on a fresh copy.

    The copy has no cycle record, and traced cycles never read one, so the
    copy simulates every cycle.  Each outcome must match, field by field,
    the trace too where one was asked for.  Returns the engine calls made
    on ``netlist``.
    """
    states = []

    def harnesses(copy):
        h = Harness(netlist, dm)
        h.state = force(Counting(netlist, dm), discipline)
        states.append(h.state)
        return h, Harness(copy, dm)

    h, ref = harnesses(deserialize(serialize(netlist)))
    for a, b, traced in steps:
        got, want = _outcome(h, a, b, traced), _outcome(ref, a, b, True)
        if isinstance(want, CycleReport):
            assert _fields(got) == _fields(want)
            assert got.trace == (want.trace if traced else None)
        else:
            assert got == want
            # a failed cycle may leave the stage mid-handshake
            h, ref = harnesses(ref.netlist)
    return sum(state.calls for state in states)


RECORD_MODELS = (DelayModel.unit(), DelayModel.random_per_gate(1, 20, seed=5),
                 DelayModel.random_per_gate(1, 20, seed=6))


@pytest.mark.parametrize("discipline", ["heap", "per_gate"], ids=["heap", "batches"])
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(FullAdderKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n", [2, 4, 8])
def test_recorded_cycles_equal_a_fresh_simulation(n, kind, protocol, discipline):
    stage = generate(MultiplierSpec(n, kind, protocol))
    p, q, r, s = sample_pairs(n, 4, seed=n)
    # misses, hits, a traced cycle after hits, a pair first seen traced (not
    # recorded, so its untraced run is a miss), and hits in a new harness
    steps = [(*p, False), (*q, False), (*p, False), (*q, True), (*r, False), (*p, False),
             (*r, True), (*s, True), (*s, False), (*s, False), (*q, False), (*p, True)]
    for dm in RECORD_MODELS:
        assert _same_as_a_fresh_copy(stage, dm, discipline, steps) == 2 * 8
        assert _same_as_a_fresh_copy(stage, dm, discipline, steps) == 2 * 4
        # an equal model shares the record
        assert _same_as_a_fresh_copy(stage, dataclasses.replace(dm), discipline, steps) == 2 * 4


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_recorded_port_faults_and_raised_cycles_equal_a_fresh_simulation(protocol):
    # (1, 1) and (1, 3) return with a port fault, the others raise at the reset state
    stage = _active_at_reset(generate(MultiplierSpec(n=2, protocol=protocol)))
    steps = [(a, b, traced) for traced in (False, True, False)
             for a, b in ((1, 1), (0, 0), (1, 3), (1, 1), (0, 0), (1, 3))]
    for dm in RECORD_MODELS[:2]:
        # simulated: the first untraced (1, 1) and (1, 3), every traced
        # cycle and every (0, 0), which raises and is never recorded
        assert _same_as_a_fresh_copy(stage, dm, "heap", steps) == 2 * (2 + 6 + 4)
        record = stage._memo["harness.cycles"][dm]
        assert sorted(record) == [(1, 1), (1, 3)]
        assert all(rep.port_fault for rep in record.values())


def test_traced_cycles_neither_read_nor_write_the_record():
    stage = generate(MultiplierSpec(n=2))
    h = Harness(stage)
    h.state = Counting(stage, DelayModel.unit())
    h.run_cycle(1, 2, want_trace=True)
    assert stage._memo["harness.cycles"] == {} and h.state.calls == 2
    recorded = h.run_cycle(1, 2)
    assert stage._memo["harness.cycles"][DelayModel.unit()] == {(1, 2): recorded}
    assert h.state.calls == 4
    h.run_cycle(1, 2)
    assert h.state.calls == 4
    traced = h.run_cycle(1, 2, want_trace=True)
    assert traced.trace and h.state.calls == 6


def test_a_state_off_reset_or_with_a_trace_is_simulated():
    stage = generate(MultiplierSpec(n=2))
    copy = deserialize(serialize(stage))
    recorded = Harness(stage).run_cycle(1, 2)
    for at_reset in (False, True):
        got = []
        for netlist in (stage, copy):
            h = Harness(netlist)
            h.state = Counting(netlist, DelayModel.unit())
            if at_reset:  # a whole handshake by hand, its events left in the trace
                h._apply_operands(3, 3, 0)
                h.state.run_until_quiescent()
                h._apply_spacer(h.state.clock + 1)
                h.state.run_until_quiescent()
                assert h.state.levels == stage.reset_levels() and h.state.trace
            else:  # quiescent with a0 at DATA1, the rest at reset, and no trace
                drive(h.state, [stage.input_ports[0]], [1])
                h.state.run_until_quiescent()
                h.state.take_trace()
                assert h.state.levels != stage.reset_levels()
            calls = h.state.calls
            got.append(h.run_cycle(1, 2))
            assert h.state.calls == calls + 2
        assert _fields(got[0]) == _fields(got[1])
        assert got[0].product == 2 and got[0].transitions != recorded.transitions


def test_measure_latencies_summary(mult2):
    reports = Harness(mult2).run_sequence([(0, 0), (3, 3), (1, 2)])
    lat = measure_latencies(reports)
    assert lat.cycles == 3
    assert lat.forward_min <= lat.forward_mean <= lat.forward_max
    assert lat.cycle_mean == pytest.approx(lat.forward_mean + lat.reverse_mean)
    assert lat.forward_equals_reverse


def test_measure_latencies_rejects_empty():
    with pytest.raises(EmptyReportsError):
        measure_latencies([])


def test_csv_export(mult2):
    reports = Harness(mult2).run_sequence([(1, 1), (2, 3)])
    buf = io.StringIO()
    write_cycle_reports_csv(reports, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "a,b,product,forward,reverse,cycle,transitions"
    assert len(lines) == 3
    assert lines[1].startswith("1,1,1,")


def test_json_export(mult2):
    reports = Harness(mult2).run_sequence([(2, 2)])
    rows = json.loads(cycle_reports_json(reports))
    assert rows[0]["product"] == 4
    assert set(rows[0]) == {"a", "b", "product", "forward", "reverse", "cycle",
                            "transitions"}
