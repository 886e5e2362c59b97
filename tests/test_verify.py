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
from qdimul.harness import Harness
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import Netlist, Protocol, serialize
from qdimul.verify import (
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
# drivers were merged; any change to a verdict, detail, scenario count,
# counterexample or trace tail changes it.
GOLDEN_OUTCOME_SHA256 = "e13ebe12a0cde7c8f5a182340a26d9099e83e4b36bd73dc22eecb28db86b6d43"


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
