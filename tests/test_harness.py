"""Handshake driver: cycle mechanics, latencies, error paths, exports."""

import dataclasses
import io
import json
import random

import pytest

from qdimul.harness import (
    CycleReport,
    EmptyReportsError,
    Harness,
    IllegalOutputError,
    NotAStageError,
    StuckPhaseError,
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
    encode,
)
from qdimul.sim import ENV, DelayModel, reset
from qdimul.verify import default_pairs, inject_fork_skew


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
    assert dataclasses.astuple(r) == (*fields.values(), None)
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
    """Each (ack edges, trace) the state holds when its trace is taken.

    The state left over at the end (after a raise mid-cycle or mid-burst)
    is the last entry.
    """
    st = harness.state
    seen = []
    take = st.take_trace

    def spy():
        seen.append((list(st.ack_edges), list(st.trace)))
        return take()

    st.take_trace = spy
    run(harness)
    seen.append((list(st.ack_edges), list(st.trace)))
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
        harness.run_burst([(1, 0), (0, 1), (1, 0), (0, 1), (3, 3), (2, 1)])
    except (IllegalOutputError, StuckPhaseError):
        pass


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


UNIT, RANDOM = DelayModel.unit(), DelayModel.random_per_gate(1, 20, seed=3)
SCENARIOS = {
    "healthy": (lambda s: s, (UNIT, RANDOM), (_cycles, _bursts), False),
    "crossed_rails": (_crossed_rails, (UNIT, RANDOM), (_odd_cycles,), True),
    "fork_skew": (_skewed, (UNIT, RANDOM, DelayModel.random_per_gate(1, 20, seed=13)),
                  (_bursts,), True),
    "active_at_reset": (_active_at_reset, (UNIT, RANDOM), (_cycles, _bursts), True),
}


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_ack_edges_and_illegal_screen_match_the_trace(scenario, protocol):
    build, models, runs, expect_illegal = SCENARIOS[scenario]
    stage = build(generate(MultiplierSpec(n=2, protocol=protocol)))
    traces = illegal = 0
    for dm in models:
        for run in runs:
            harness = Harness(stage, dm)
            for edges, trace in _observed(harness, run):
                assert edges == [(t, lv) for t, net, lv, _ in trace if net == stage.ack_out]
                want = _full_scan_illegal(stage, trace)
                assert harness._illegal_points(trace) == want
                traces += bool(trace)
                illegal += bool(want)
    assert traces
    assert bool(illegal) == expect_illegal


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
