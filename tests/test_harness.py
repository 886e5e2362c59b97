"""Handshake driver: cycle mechanics, latencies, error paths, exports."""

import io
import json

import pytest

from qdimul.harness import (
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
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import (
    DiagnosticCode,
    DualRailPort,
    DualRailValue,
    InvalidNetlistError,
    Netlist,
    Protocol,
    encode,
)
from qdimul.sim import DelayModel, reset
from qdimul.verify import inject_fork_skew


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


def test_drive_puts_codewords_and_rejects_bad_bits(mult2):
    for protocol in Protocol:
        stage = generate(MultiplierSpec(n=2, protocol=protocol))
        port = stage.input_ports[0]
        for bit in (0, 1, None):
            st = reset(stage)
            drive(st, port, bit, 3)
            st.run_until_quiescent()
            want = (encode(bit, protocol) if bit is not None
                    else (protocol.spacer_level,) * 2)
            assert (st.levels[port.rail1], st.levels[port.rail0]) == want
    for bad in (2, -1, "1", [1]):
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            drive(reset(mult2), mult2.input_ports[0], bad)


# -- observation shortcuts against the paths they replace ---------------------


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
