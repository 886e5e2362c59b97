"""Property checkers: positives on healthy designs, negatives on controls."""

import hashlib
import json

import pytest

from qdimul.cells import (
    FullAdderKind,
    make_and2_strong,
    make_completion_detector,
    make_constant_source,
    make_full_adder,
    make_register_bank,
)
from qdimul.cli import main
from qdimul.harness import CycleReport, Harness
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import GateKind, Netlist, NetlistBuilder, Protocol, serialize
from qdimul.sim import ENV, DelayModel
from qdimul.verify import (
    CheckOutcome,
    _fail,
    check_delay_insensitivity,
    check_duality,
    check_functional,
    check_monotonicity,
    check_race_immunity,
    check_stage_indication,
    check_strong_indication,
    check_weak_indication,
    default_pairs,
    inject_fork_skew,
    narrow_completion,
    run_all_checks,
    sample_pairs,
    swap_port_rails,
)

BURST_PAIRS = [(1, 0), (0, 1), (1, 0), (0, 1)]


@pytest.fixture(scope="module")
def mult2():
    return generate(MultiplierSpec(n=2))


@pytest.fixture(scope="module")
def skewed2(mult2):
    # delay one branch of a forking net on the way into a product minterm
    p0 = next(p for p in mult2.output_ports if p.name == "P0")
    consumer = mult2.net(p0.rail1).driver_gate
    fork_net = mult2.gate_by_id[consumer].inputs[0]
    return inject_fork_skew(mult2, fork_net, consumer, stages=16)


def test_default_pairs_exhaustive_when_small():
    pairs = default_pairs(2)
    assert pairs == [(a, b) for a in range(4) for b in range(4)]


def test_default_pairs_sampled_when_wide():
    pairs = default_pairs(8, samples=40, seed=3)
    assert len(pairs) == 40
    assert (0, 0) in pairs and (255, 255) in pairs
    assert all(0 <= a < 256 and 0 <= b < 256 for a, b in pairs)
    assert pairs == default_pairs(8, samples=40, seed=3)


@pytest.mark.parametrize("samples", [1, 2, 3, 4, 5, 9])
def test_default_pairs_gives_exactly_samples_pairs_when_wide(samples):
    corners = [(0, 0), (255, 255), (1, 255), (255, 1)]
    pairs = default_pairs(8, samples=samples, seed=3)
    assert len(pairs) == samples
    assert pairs[:4] == corners[:samples]
    assert pairs == default_pairs(8, samples=9, seed=3)[:samples]
    # exhaustive at 4 bits and below, whatever the count
    assert len(default_pairs(4, samples=samples)) == 256


@pytest.mark.parametrize("n, samples", [(1, 3), (2, 5), (4, 8), (4, 255), (4, 256), (8, 9)])
def test_sample_pairs_spread_a_small_count_over_the_exhaustive_set(n, samples):
    pairs = sample_pairs(n, samples, seed=3)
    full = default_pairs(n, samples, seed=3)
    assert len(pairs) == min(samples, len(full)) == len(set(pairs))
    assert set(pairs) <= set(full) and pairs == sample_pairs(n, samples, seed=3)
    if samples >= len(full):
        assert pairs == full
    else:
        limit = 1 << n
        assert pairs[:2] == [(0, 0), (limit - 1, limit - 1)]


def _recorded_pairs(monkeypatch):
    """Operand pairs the harness runs, recorded through its three entry points."""
    seen = set()

    def recorder(real, one_pair):
        def record(self, *args, **kwargs):
            seen.update([args[:2]] if one_pair else args[0])
            return real(self, *args, **kwargs)
        return record

    monkeypatch.setattr(Harness, "run_cycle", recorder(Harness.run_cycle, True))
    for name in ("run_burst", "run_sequence"):
        monkeypatch.setattr(Harness, name, recorder(getattr(Harness, name), False))
    return seen


SMALL_STAGE_SAMPLERS = {
    "duality": lambda nl: check_duality(nl, samples=8),
    "race_immunity": lambda nl: check_race_immunity(nl, samples=8),
    "delay_insensitivity": lambda nl: check_delay_insensitivity(nl, seeds=1, samples=8),
    "bench": lambda nl: main(["bench", "--n", "4", "--samples", "8", "--json"]) == 0,
}


@pytest.mark.parametrize("caller", list(SMALL_STAGE_SAMPLERS))
def test_a_4x4_sample_is_not_the_first_rows_of_the_exhaustive_set(caller, monkeypatch, capsys):
    nl = generate(MultiplierSpec(n=4))
    seen = _recorded_pairs(monkeypatch)
    assert SMALL_STAGE_SAMPLERS[caller](nl)
    assert seen == set(sample_pairs(4, 8))
    assert any(a * b for a, b in seen)


def test_functional_runs_exactly_samples_cycles_when_wide():
    out = check_functional(generate(MultiplierSpec(n=8)), samples=2)
    assert out and out.scenarios == 2


CHECKERS_WITH_SAMPLES = {
    "default_pairs": lambda nl, **kw: default_pairs(8, **kw),
    "functional": check_functional,
    "duality": check_duality,
    "race_immunity": check_race_immunity,
    "delay_insensitivity": check_delay_insensitivity,
    "run_all_checks": run_all_checks,
}


@pytest.mark.parametrize("samples", [0, -5])
@pytest.mark.parametrize("check", list(CHECKERS_WITH_SAMPLES))
def test_an_empty_sample_count_is_refused(mult2, check, samples):
    with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
        CHECKERS_WITH_SAMPLES[check](mult2, samples=samples)


@pytest.mark.parametrize("check", [check_delay_insensitivity, run_all_checks])
def test_a_negative_seed_count_is_refused(mult2, check):
    with pytest.raises(ValueError, match="seeds must be at least 0, got -3"):
        check(mult2, seeds=-3)
    assert check_delay_insensitivity(mult2, seeds=0, samples=2).stats["models"] == 1


def test_functional_passes_on_healthy_design(mult2):
    out = check_functional(mult2)
    assert out
    assert out.scenarios == 16
    assert out.counterexample is None


def test_strong_indication_and_cell():
    for protocol in Protocol:
        assert check_strong_indication(make_and2_strong(protocol).netlist)


def test_strong_indication_dims_adder():
    cell = make_full_adder(FullAdderKind.DIMS_STRONG)
    assert check_strong_indication(cell.netlist)


def test_weak_adder_fails_strong_passes_weak():
    cell = make_full_adder(FullAdderKind.WEAK_DISJOINT)
    strong = check_strong_indication(cell.netlist)
    assert not strong
    assert strong.counterexample is not None
    assert check_weak_indication(cell.netlist)


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_register_bank_indicates_per_port_under_its_acknowledge(protocol):
    # the checks play the environment on ack_in; a latch bank still lets
    # each port through on its own, so it is weakly but not strongly indicating
    nl = make_register_bank(2, protocol).netlist
    weak = check_weak_indication(nl)
    assert weak, weak.detail
    strong = check_strong_indication(nl)
    assert not strong
    assert "after only 1 of 2 inputs" in strong.detail


def test_majority_adder_is_weakly_indicating():
    cell = make_full_adder(FullAdderKind.MAJORITY_CONTROL)
    assert check_weak_indication(cell.netlist)


@pytest.mark.parametrize("kind", list(FullAdderKind))
def test_stage_indication_every_adder_kind(kind):
    nl = generate(MultiplierSpec(n=2, fa_kind=kind))
    out = check_stage_indication(nl)
    assert out, out.detail


def test_weak_indication_dispatches_to_stage_check(mult2):
    out = check_weak_indication(mult2)
    assert out
    assert out.check == "weak_indication"


def test_monotonicity_clean_for_indicating_adders():
    for kind in (FullAdderKind.DIMS_STRONG, FullAdderKind.WEAK_DISJOINT):
        nl = generate(MultiplierSpec(n=4, fa_kind=kind))
        r = Harness(nl).run_cycle(3, 7, want_trace=True)
        assert check_monotonicity(nl, [r])


def test_monotonicity_flags_majority_control_carry():
    nl = generate(MultiplierSpec(n=4, fa_kind=FullAdderKind.MAJORITY_CONTROL))
    r = Harness(nl).run_cycle(3, 7, want_trace=True)
    out = check_monotonicity(nl, [r])
    assert not out
    assert out.counterexample is not None
    assert "gate" in out.counterexample.observed


def _reference_monotonicity(netlist, reports):
    """The event-by-event loop ``check_monotonicity`` runs on every report
    before the set-pass screen; the screened check must agree with it."""
    or_watch, and_watch = {}, {}
    for g in netlist.gates:
        if g.kind.name.startswith("OR"):
            for n in g.inputs:
                or_watch.setdefault(n, []).append(g.id)
        elif g.kind.name.startswith("AND"):
            for n in g.inputs:
                and_watch.setdefault(n, []).append(g.id)
    scenarios = 0
    for idx, r in enumerate(reports):
        net_seen, merge_seen = {}, {}
        for t, net, level, _cause in r.trace:
            w = 0 if t < r.spacer_start else 1
            net_seen[net, w] = net_seen.get((net, w), 0) + 1
            stim = {"a": r.a, "b": r.b, "cycle": idx, "phase": w}
            if net_seen[net, w] > 1:
                return _fail("monotonicity", netlist, stim, None,
                             f"net {net} changed twice in one phase (t={t})",
                             "one transition per net per phase", scenarios, r.trace)
            for gid in (or_watch if level == 1 else and_watch).get(net, ()):
                merge_seen[gid, w] = merge_seen.get((gid, w), 0) + 1
                if merge_seen[gid, w] > 1:
                    return _fail(
                        "monotonicity", netlist, stim, None,
                        f"merge gate {gid} got a second firing input (net {net}, t={t})",
                        "disjoint merges: one firing input per phase", scenarios, r.trace)
        scenarios += 1
    return CheckOutcome("monotonicity", True,
                        f"all transitions acknowledged across {scenarios} cycles", scenarios)


def _assert_same_monotonicity(netlist, reports):
    want = _reference_monotonicity(netlist, reports)
    assert repr(check_monotonicity(netlist, reports)) == repr(want)
    return want


@pytest.mark.parametrize("kind", list(FullAdderKind), ids=lambda k: k.name)
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_monotonicity_screen_agrees_with_event_loop(kind, protocol):
    verdicts = []
    for n in (2, 4):
        nl = generate(MultiplierSpec(n, kind, protocol))
        for dm in (DelayModel.unit(), DelayModel.random_per_gate(1, 20, seed=7)):
            reports = Harness(nl, dm).run_sequence(default_pairs(n)[::3], want_traces=True)
            verdicts.append(_assert_same_monotonicity(nl, reports).passed)
            for r in reports[:12]:
                verdicts.append(_assert_same_monotonicity(nl, [r]).passed)
    # the majority-carry control is the one design with merge hazards
    assert all(verdicts) == (kind is not FullAdderKind.MAJORITY_CONTROL)


def _report(trace, spacer_start):
    return CycleReport(a=0, b=0, product=0, forward=0, reverse=0, cycle=0,
                       transitions=len(trace), data_start=0, spacer_start=spacer_start,
                       end=trace[-1][0] if trace else 0, trace=trace)


def _two_input_netlist(kind, tied):
    b = NetlistBuilder(Protocol.RTZ)
    x, y = b.input_net("x"), b.input_net("y")
    z = b.gate(kind, (x, x) if tied else (x, y))
    return b.build(), x, y, z


HAND_BUILT = {
    "rise": ([(1, "x", 1), (2, "z", 1)], 5),
    "rise_fall": ([(1, "x", 1), (2, "z", 1), (6, "x", 0), (7, "z", 0)], 5),
    "net_twice": ([(1, "x", 1), (3, "x", 0)], 10),
    "net_once_per_phase": ([(1, "x", 1), (12, "x", 0)], 10),
    "out_of_time_order": ([(12, "x", 0), (1, "x", 1)], 10),
    "out_of_time_order_twice": ([(3, "x", 0), (1, "x", 1)], 10),
    "empty": ([], 0),
}


@pytest.mark.parametrize("case", list(HAND_BUILT))
@pytest.mark.parametrize("kind", [GateKind.OR2, GateKind.AND2, GateKind.C2],
                         ids=lambda k: k.value)
@pytest.mark.parametrize("tied", [True, False], ids=["tied", "split"])
def test_monotonicity_screen_agrees_on_hand_built_traces(case, kind, tied):
    nl, x, y, z = _two_input_netlist(kind, tied)
    nets = {"x": x, "y": y, "z": z}
    events, spacer_start = HAND_BUILT[case]
    report = _report([(t, nets[net], level, ENV) for t, net, level in events], spacer_start)
    healthy = _report([(1, y, 1, ENV), (12, y, 0, ENV)], 10)
    _assert_same_monotonicity(nl, [report])
    _assert_same_monotonicity(nl, [healthy, report])


@pytest.mark.parametrize("kind, case", [(GateKind.OR2, "rise"), (GateKind.AND2, "rise_fall")])
def test_tied_merge_gate_counts_one_transition_twice(kind, case):
    nl, x, _y, z = _two_input_netlist(kind, tied=True)
    events, spacer_start = HAND_BUILT[case]
    trace = [(t, x if net == "x" else z, level, ENV) for t, net, level in events]
    out = check_monotonicity(nl, [_report(trace, spacer_start)])
    assert not out and "merge gate 0 got a second firing input" in out.detail


def test_delay_insensitivity_sweep(mult2):
    out = check_delay_insensitivity(mult2, seeds=4, samples=8)
    assert out, out.detail
    assert len(out.stats["cycle_times"]) > 1


def test_duality(mult2):
    assert check_duality(mult2)


def test_duality_fails_on_a_stalled_stage(mult2):
    # ack_out moved onto a constant spacer net: completion never asserts
    idle = mult2.net_count
    stalled = Netlist(mult2.protocol, mult2.gates, mult2.input_ports, mult2.output_ports,
                      ack_out=idle, ack_in=mult2.ack_in,
                      const_nets=(*mult2.const_nets, (idle, mult2.protocol.spacer_level)),
                      phase_net=mult2.phase_net, extra_inputs=mult2.extra_inputs,
                      meta=mult2.meta)
    out = check_duality(stalled, pairs=[(1, 1)])
    assert not out
    ce = out.counterexample
    assert ce.check == "duality"
    assert ce.observed.startswith("StuckPhaseError")
    assert ce.stimulus == {"a": 1, "b": 1, "protocol": "rtz"}
    assert ce.trace_tail


def test_race_immunity_clean_on_healthy_design(mult2):
    assert check_race_immunity(mult2, pairs=BURST_PAIRS)


def _three_pairs():
    yield from [(1, 2), (3, 3), (2, 1)]


# each checker lists its pairs once, so a generator runs every pair
def test_race_immunity_takes_pairs_from_a_generator(mult2):
    race = check_race_immunity(mult2, pairs=_three_pairs())
    assert race and race.scenarios == 3
    assert race.detail == check_race_immunity(mult2, pairs=list(_three_pairs())).detail


def test_delay_insensitivity_takes_pairs_from_a_generator(mult2):
    di = check_delay_insensitivity(mult2, pairs=_three_pairs(), seeds=2)
    assert di and di.scenarios == 9
    assert di.detail.startswith("9 cycles over 3 delay models")


def test_functional_and_duality_take_pairs_from_a_generator(mult2):
    assert check_duality(mult2, pairs=_three_pairs()).scenarios == 3
    assert check_functional(mult2, pairs=_three_pairs()).scenarios == 3
    # the failure path replays the failing prefix from the same pairs
    broken = swap_port_rails(mult2)
    listed = check_functional(broken, pairs=list(_three_pairs()))
    assert not listed
    assert check_functional(broken, pairs=_three_pairs()) == listed


def test_run_all_checks_green(mult2):
    outcomes = run_all_checks(mult2, seeds=2, samples=8)
    assert len(outcomes) == 5
    assert all(outcomes), [o.detail for o in outcomes if not o]


def test_swapped_rails_fail_functional(mult2):
    broken = swap_port_rails(mult2)
    out = check_functional(broken)
    assert not out
    ce = out.counterexample
    assert ce is not None
    assert "swap_port_rails" in ce.design
    assert ce.trace_tail


def test_narrowed_completion_fails_stage_indication(mult2):
    broken = narrow_completion(mult2)
    out = check_stage_indication(broken)
    assert not out
    assert out.counterexample is not None
    assert "withheld" in out.counterexample.stimulus
    assert "asserted" in out.counterexample.observed


def test_fork_skew_fails_race_immunity(skewed2):
    out = check_race_immunity(skewed2, pairs=BURST_PAIRS)
    assert not out
    ce = out.counterexample
    assert ce is not None
    assert "fork_skew" in ce.design
    assert ce.trace_tail


def test_fork_skew_tolerated_by_patient_environment(skewed2):
    # the same skewed stage is fine when the environment waits for quiescence
    assert check_functional(skewed2)
    assert check_stage_indication(skewed2)


def test_counterexample_replay_is_deterministic(skewed2):
    first = check_race_immunity(skewed2, pairs=BURST_PAIRS)
    second = check_race_immunity(skewed2, pairs=BURST_PAIRS)
    assert first.counterexample.to_json() == second.counterexample.to_json()


def test_counterexample_json_is_parseable(mult2):
    out = check_functional(swap_port_rails(mult2))
    doc = json.loads(out.counterexample.to_json())
    assert set(doc) == {"design", "check", "stimulus", "delay_model",
                        "observed", "expected", "trace_tail"}


def test_swap_port_rails_unknown_port(mult2):
    with pytest.raises(ValueError):
        swap_port_rails(mult2, "nope")


def test_narrow_completion_unknown_port(mult2):
    with pytest.raises(ValueError):
        narrow_completion(mult2, "nope")


def test_inject_fork_skew_validates_arguments(mult2):
    p0 = next(p for p in mult2.output_ports if p.name == "P0")
    consumer = mult2.net(p0.rail1).driver_gate
    fork_net = mult2.gate_by_id[consumer].inputs[0]
    with pytest.raises(ValueError):
        inject_fork_skew(mult2, fork_net, consumer, stages=0)
    with pytest.raises(ValueError):
        inject_fork_skew(mult2, fork_net, consumer + 10_000, stages=4)
    with pytest.raises(ValueError):
        inject_fork_skew(mult2, mult2.gate_by_id[consumer].output, consumer, stages=4)


def test_mutants_keep_their_tags(mult2):
    assert "mutation" in swap_port_rails(mult2).meta
    assert "mutation" in narrow_completion(mult2).meta


# sha256 over the repr of every outcome below, pinned before the checkers'
# drivers were merged and re-pinned when the cell checks began to drive
# ack_in (only the register banks' weak verdicts changed), and again when a
# random model began to draw from one seeded stream (under
# golden.legacy_draws() it is the digest before), and again when small
# stages began to sample their pairs through sample_pairs (with the old
# default_pairs(...)[:samples] slice it is the digest before); any change
# to a verdict, detail, scenario count, counterexample or trace tail
# changes it.
GOLDEN_OUTCOME_SHA256 = "b1b0215844d98cf657060c00d843061e520b40f87383b7210fa0be4141b64789"


def _cells(protocol):
    yield make_and2_strong(protocol)
    for kind in FullAdderKind:
        yield make_full_adder(kind, protocol)
    yield make_register_bank(2, protocol)
    yield make_completion_detector(2, protocol)
    yield make_constant_source(1, protocol)


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        return exc


def test_golden_outcome_hash(tmp_path, capsys):
    h = hashlib.sha256()
    for protocol in Protocol:
        for cell in _cells(protocol):
            for check in (check_strong_indication, check_weak_indication):
                h.update(repr(_outcome(check, cell.netlist)).encode())
    for n in (2, 4):
        for kind in FullAdderKind:
            for protocol in Protocol:
                nl = generate(MultiplierSpec(n, kind, protocol))
                h.update(repr(run_all_checks(nl)).encode())
                h.update(repr(check_weak_indication(nl)).encode())
    mult2 = generate(MultiplierSpec(n=2))
    p0 = next(p for p in mult2.output_ports if p.name == "P0")
    consumer = mult2.net(p0.rail1).driver_gate
    fork_net = mult2.gate_by_id[consumer].inputs[0]
    majority = generate(MultiplierSpec(n=4, fa_kind=FullAdderKind.MAJORITY_CONTROL))
    controls = [
        check_functional(swap_port_rails(mult2)),
        check_stage_indication(narrow_completion(mult2), seed=3),
        check_race_immunity(inject_fork_skew(mult2, fork_net, consumer, stages=16),
                            pairs=BURST_PAIRS),
        check_monotonicity(majority, [Harness(majority).run_cycle(3, 7, want_trace=True)]),
    ]
    h.update(repr(controls).encode())
    path = tmp_path / "stage.json"
    path.write_text(serialize(mult2))
    assert main(["verify", "--netlist", str(path), "--json", "--seed", "5"]) == 0
    out = capsys.readouterr()
    h.update((out.out + out.err).replace(str(path), "<netlist>").encode())
    assert h.hexdigest() == GOLDEN_OUTCOME_SHA256
