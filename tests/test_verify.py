"""Property checkers: positives on healthy designs, negatives on controls."""

import dataclasses
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import golden

from qdimul.cells import (
    FullAdderKind,
    make_and2_strong,
    make_full_adder,
    make_register_bank,
)
from qdimul.cli import main
from qdimul.harness import CycleReport, Harness, _Stage
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import (DualRailValue, Gate, GateKind, InvalidNetlistError, Netlist,
                            NetlistBuilder, Protocol, dualize, encode)
from qdimul.settle import NotSettleableError, lane_plan
from qdimul.sim import ENV, DelayModel, SimState, reset
from qdimul import verify
from qdimul.verify import (
    CheckOutcome,
    _acts_once,
    _fail,
    _first_failing_lane,
    _merge_gates,
    _mutated,
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

BURST_PAIRS = golden.BURST_PAIRS


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


def test_a_negative_seed_samples_other_pairs_than_its_absolute_value():
    # random.Random seeds an int with its absolute value; pair sampling must not
    assert default_pairs(8, 5, seed=-1) != default_pairs(8, 5, seed=1)
    assert sample_pairs(4, 8, seed=-3) != sample_pairs(4, 8, seed=3)


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
    """Operand pairs the checkers run, recorded through the harness's three entry
    points and the settled lanes' ``run_cycles``."""
    seen = set()

    def recorder(real, one_pair):
        def record(self, *args, **kwargs):
            seen.update([args[:2]] if one_pair else args[0])
            return real(self, *args, **kwargs)
        return record

    monkeypatch.setattr(Harness, "run_cycle", recorder(Harness.run_cycle, True))
    for name in ("run_burst", "run_sequence"):
        monkeypatch.setattr(Harness, name, recorder(getattr(Harness, name), False))
    # ``run_cycles(netlist, pairs, models)``: the netlist takes ``self``'s place
    monkeypatch.setattr(verify, "run_cycles", recorder(verify.run_cycles, False))
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


@pytest.mark.parametrize("samples, refused", [
    (0, "samples must be at least 1, got 0"),
    (-5, "samples must be at least 1, got -5"),
    (2.5, "samples must be an int, got 2.5"),
    (1.5, "samples must be an int, got 1.5"),
    (True, "samples must be an int, got True"),
    ("2", "samples must be an int, got '2'"),
], ids=["0", "-5", "float", "float1.5", "bool", "str"])
@pytest.mark.parametrize("check", list(CHECKERS_WITH_SAMPLES))
def test_an_empty_sample_count_is_refused(mult2, check, samples, refused):
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        CHECKERS_WITH_SAMPLES[check](mult2, samples=samples)


@pytest.mark.parametrize("seeds, refused", [
    (-3, "seeds must be at least 0, got -3"),
    (2.5, "seeds must be an int, got 2.5"),
    (True, "seeds must be an int, got True"),
    ("2", "seeds must be an int, got '2'"),
], ids=["-3", "float", "bool", "str"])
@pytest.mark.parametrize("check", [check_delay_insensitivity, run_all_checks])
def test_a_negative_seed_count_is_refused(mult2, check, seeds, refused):
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        check(mult2, seeds=seeds)
    assert check_delay_insensitivity(mult2, seeds=0, samples=2).stats["models"] == 1
    assert check_delay_insensitivity(mult2, seeds=(5,), samples=2).stats["models"] == 2


#: Every entry that samples pairs from a seed; those that take ``pairs`` refuse
#: a bad seed also when the pairs are given.
SEEDED = {
    **CHECKERS_WITH_SAMPLES,
    "sample_pairs": lambda nl, **kw: sample_pairs(4, 8, **kw),
    "stage_indication": check_stage_indication,
}


@pytest.mark.parametrize("seed", [[1], 2.5, "a", None, True],
                         ids=["list", "float", "str", "None", "bool"])
@pytest.mark.parametrize("check", list(SEEDED))
def test_a_seed_that_is_not_an_int_is_refused(mult2, check, seed):
    refused = f"^{re.escape(f'seed must be an int, got {seed!r}')}$"
    with pytest.raises(ValueError, match=refused):
        SEEDED[check](mult2, seed=seed)
    if check in ("functional", "duality", "race_immunity", "delay_insensitivity"):
        with pytest.raises(ValueError, match=refused):
            SEEDED[check](mult2, pairs=[(1, 1)], seed=seed)


@pytest.mark.parametrize("n, refused", [
    (0, "n must be at least 1, got 0"),
    (2.5, "n must be an int, got 2.5"),
    (True, "n must be an int, got True"),
], ids=["zero", "float", "bool"])
@pytest.mark.parametrize("sampler", [default_pairs, sample_pairs])
def test_a_sampler_refuses_a_width_that_is_not_a_positive_int(sampler, n, refused):
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        sampler(n, 4)


# a check over no stimulus would pass on 0 scenarios, so each refuses it
NO_STIMULUS = {
    "functional": (lambda nl: check_functional(nl, pairs=[]), "pairs"),
    "functional_generator": (lambda nl: check_functional(nl, pairs=iter(())), "pairs"),
    "duality": (lambda nl: check_duality(nl, pairs=[]), "pairs"),
    "race_immunity": (lambda nl: check_race_immunity(nl, pairs=[]), "pairs"),
    "delay_insensitivity": (lambda nl: check_delay_insensitivity(nl, pairs=[]), "pairs"),
    "monotonicity": (lambda nl: check_monotonicity(nl, []), "reports"),
}


@pytest.mark.parametrize("case", NO_STIMULUS.values(), ids=NO_STIMULUS)
def test_an_empty_stimulus_is_refused(mult2, case):
    check, what = case
    with pytest.raises(ValueError, match=f"^{what} must hold at least one"):
        check(mult2)


@pytest.mark.parametrize("extra_values, refused", [
    (-1, "extra_values must be at least 0, got -1"),
    (-5, "extra_values must be at least 0, got -5"),
    (2.5, "extra_values must be an int, got 2.5"),
    ("1", "extra_values must be an int, got '1'"),
    (True, "extra_values must be an int, got True"),
], ids=["-1", "-5", "float", "str", "bool"])
def test_stage_indication_refuses_a_negative_value_count(mult2, extra_values, refused):
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        check_stage_indication(mult2, extra_values=extra_values)
    assert check_stage_indication(mult2, extra_values=0).scenarios == 4


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


@pytest.mark.parametrize("check", [check_strong_indication, check_weak_indication],
                         ids=["strong", "weak"])
def test_cell_indication_refuses_an_invalid_cell(check):
    nl = make_and2_strong().netlist
    # a repeated gate id, and a gate output that is not an int (no reset levels)
    for code, second in (("DUPLICATE_GATE_ID", dataclasses.replace(nl.gates[1], id=0)),
                         ("BAD_GATE_FIELD", dataclasses.replace(nl.gates[1], output="x"))):
        invalid = Netlist(nl.protocol, (nl.gates[0], second, *nl.gates[2:]), nl.input_ports,
                          nl.output_ports, nl.ack_out, nl.ack_in, nl.const_nets, nl.phase_net,
                          nl.extra_inputs, nl.meta)
        with pytest.raises(InvalidNetlistError, match=code):
            check(invalid)


@pytest.mark.parametrize("check", [check_strong_indication, check_weak_indication],
                         ids=["strong", "weak"])
@pytest.mark.parametrize("ports, scenarios", [(6, "46,080"), (8, "10,321,920")])
def test_cell_indication_refuses_more_than_five_ports_before_its_first_scenario(
        check, ports, scenarios, monkeypatch):
    runs = _count_engine_runs(monkeypatch)
    refused = (f"a cell with {ports} input ports has 2^{ports} * {ports}! = {scenarios} "
               "codeword/arrival-order scenarios; cell indication takes at most 5 ports "
               "(3,840 scenarios)")
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        check(make_register_bank(ports).netlist)
    assert not runs


def test_majority_adder_is_weakly_indicating():
    cell = make_full_adder(FullAdderKind.MAJORITY_CONTROL)
    assert check_weak_indication(cell.netlist)


@pytest.mark.parametrize("kind", list(FullAdderKind))
def test_stage_indication_every_adder_kind(kind):
    nl = generate(MultiplierSpec(n=2, fa_kind=kind))
    out = check_stage_indication(nl)
    assert out, out.detail


def _stage_indication_running_every_spacer_phase(netlist, extra_values=2, seed=0):
    """``check_stage_indication`` as it was when every scenario ran its spacer phase."""
    name = "stage_indication"
    stage = _Stage.of(netlist)
    a_ports, b_ports, out_ports = stage.a_ports, stage.b_ports, stage.out_ports
    ports = (*a_ports, *b_ports)
    n = len(a_ports)
    proto = netlist.protocol
    active, spacer = proto.active_level, proto.spacer_level
    ack = netlist.ack_out
    reset_levels = netlist.reset_levels()
    limit = 1 << n

    def codewords(ports, bits):  # each bit's events, rail1 then rail0; None is the spacer
        levels = [(spacer, spacer) if bit is None else encode(bit, proto) for bit in bits]
        return [e for p, (r1, r0) in zip(ports, levels) for e in ((p.rail1, r1), (p.rail0, r0))]

    rng = random.Random(seed)
    values = [(limit - 1, limit - 1)]
    values += [(rng.randrange(limit), rng.randrange(limit)) for _ in range(extra_values)]
    scenarios = 0
    for k, withheld in enumerate(ports):
        for a, b in values:
            stim = {"a": a, "b": b, "withheld": withheld.name}
            word = a | b << n  # bit i goes to ports[i]
            st = reset(netlist)
            st.set_primary(netlist.phase_net, active)
            st.set_primaries(codewords(ports[:k] + ports[k + 1:],
                                       [word >> i & 1 for i in range(len(ports)) if i != k]))
            st.run_until_quiescent()
            if st.levels[ack] != spacer:
                return _fail(name, netlist, stim, None,
                             f"completion asserted with {withheld.name} withheld",
                             "ack_out released until every input bit arrives",
                             scenarios, st.trace)
            if all(st.read_port(p) is not DualRailValue.SPACER for p in out_ports):
                return _fail(name, netlist, stim, None,
                             f"every product bit completed with {withheld.name} withheld",
                             "at least one product bit still at spacer",
                             scenarios, st.trace)
            st.set_primaries(codewords((withheld,), (word >> k & 1,)))
            st.run_until_quiescent()
            if st.levels[ack] != active:
                return _fail(name, netlist, stim, None, "completion missing with all inputs",
                             "ack_out asserted", scenarios, st.trace)
            product = 0
            for i, p in enumerate(out_ports):
                v = st.read_port(p).bit
                if v is None:
                    return _fail(name, netlist, stim, None, f"port {p.name} incomplete",
                                 "all products at codewords", scenarios, st.trace)
                product |= v << i
            if product != a * b:
                return _fail(name, netlist, stim, None, f"product {product}",
                             f"product {a * b}", scenarios, st.trace)
            st.set_primary(netlist.phase_net, spacer)
            st.set_primaries(codewords(ports, [None] * len(ports)))
            st.run_until_quiescent()
            if st.levels != reset_levels:
                return _fail(name, netlist, stim, None, "stage did not return to reset",
                             "exact reset state after a full cycle", scenarios, st.trace)
            scenarios += 1
    return CheckOutcome(name, True,
                        f"ack_out waits for every operand bit ({scenarios} scenarios)",
                        scenarios)


def _latched(stage, bit):
    """A stage that stays off reset after any product with bit ``bit`` set.

    An extra C-element and merge gate form a latch on the product port's
    true rail: set by its data, held through the spacer phase.
    """
    rail = stage.output_ports[bit].rail1
    merge = GateKind.OR2 if stage.protocol is Protocol.RTZ else GateKind.AND2
    c, w, g = stage.net_count, stage.net_count + 1, len(stage.gates)
    spacer = stage.protocol.spacer_level
    latch = [Gate(g, GateKind.C2, (rail, w), c, spacer), Gate(g + 1, merge, (rail, c), w, spacer)]
    return _mutated(stage, f"latched_{bit}", gates=[*stage.gates, *latch])


def _order_latch(stage):
    """A stage whose settled state depends on the order its operand bits arrive.

    A latch is set when ``a0`` rises no later than ``b0`` (through two
    buffers and an inverter), and held through the spacer phase.  So one
    operand pair settles in two states: withholding ``a0`` leaves the latch
    clear, withholding another bit sets it.
    """
    if stage.protocol is Protocol.RTO:
        return dualize(_order_latch(dualize(stage)))
    a0 = stage.input_ports[0]
    b0 = stage.input_ports[len(stage.input_ports) // 2]
    b1, b2, nb, d, c, w = range(stage.net_count, stage.net_count + 6)
    g = len(stage.gates)
    latch = [Gate(g, GateKind.OR2, (b0.rail1, b0.rail1), b1, 0),
             Gate(g + 1, GateKind.OR2, (b1, b1), b2, 0),
             Gate(g + 2, GateKind.NOT, (b2,), nb, 1),
             Gate(g + 3, GateKind.AND2, (a0.rail1, nb), d, 0),
             Gate(g + 4, GateKind.C2, (d, w), c, 0),
             Gate(g + 5, GateKind.OR2, (d, c), w, 0)]
    return _mutated(stage, "order_latch", gates=[*stage.gates, *latch])


def _first_latch(stage):
    """The input latch of the stage's first operand rail: a C2 that also reads ``ack_in``."""
    rail = stage.input_ports[0].rail1
    return next(g for g in stage.gates if set(g.inputs) == {rail, stage.ack_in})


def _buffered_latch(stage):
    """A stage whose first input latch reads its operand rail through a buffer, a gate output."""
    latch, rail, buffered = _first_latch(stage), stage.input_ports[0].rail1, stage.net_count
    gates = [dataclasses.replace(g, inputs=tuple(buffered if n == rail else n for n in g.inputs))
             if g is latch else g for g in stage.gates]
    gates.append(Gate(len(gates), GateKind.OR2, (rail, rail), buffered,
                      stage.protocol.spacer_level))
    return _mutated(stage, "buffered_latch", gates=gates)


def _unlatched(stage):
    """A stage whose first input latch is an AND2 (RTZ) or OR2 (RTO): the ack_in flip moves it."""
    latch = _first_latch(stage)
    kind = GateKind.AND2 if stage.protocol is Protocol.RTZ else GateKind.OR2
    return _mutated(stage, "unlatched", gates=[dataclasses.replace(g, kind=kind)
                                               if g is latch else g for g in stage.gates])


def _phase_on_ack_in(stage):
    """A stage whose phase net is its ``ack_in``; the old phase net stays an input."""
    return _mutated(stage, "phase_on_ack_in", phase_net=stage.ack_in,
                    extra_inputs=(*stage.extra_inputs, stage.phase_net))


def _count_engine_runs(monkeypatch):
    """A list that grows by one on every ``SimState.run_until_quiescent`` call from now on."""
    runs = []
    run = SimState.run_until_quiescent

    def counted(self, *args, **kwargs):
        runs.append(None)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(SimState, "run_until_quiescent", counted)
    return runs


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(FullAdderKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n", [2, 4, 8])
def test_stage_indication_equals_running_every_spacer_phase(n, kind, protocol, monkeypatch):
    stage = generate(MultiplierSpec(n, kind, protocol))
    designs = [stage, narrow_completion(stage), swap_port_rails(stage),
               _latched(stage, 1), _latched(stage, 2), _order_latch(stage)]
    # the lane plan takes the stage and the first two controls; a C-element
    # loop or a NOT gate keeps the others on the serial loop
    for nl in designs[:3]:
        lane_plan(nl)
    for nl, reason in zip(designs[3:], ("CYCLE", "CYCLE", "GATE_KIND")):
        with pytest.raises(NotSettleableError) as refused:
            lane_plan(nl)
        assert refused.value.reason == reason
    runs = _count_engine_runs(monkeypatch)
    late_failures = 0
    for nl in designs:
        for extra_values, seed in ((2, 0), (1, n)):
            want = _stage_indication_running_every_spacer_phase(nl, extra_values, seed)
            before = len(runs)
            assert check_stage_indication(nl, extra_values, seed) == want
            if nl in designs[:3]:
                # lanes alone pass; a failure re-runs the failing scenario only
                spent = len(runs) - before
                assert (spent == 0) if want else (0 < spent <= 3)
            late_failures += not want and want.scenarios > 0
    assert check_stage_indication(stage)
    assert not check_stage_indication(designs[1])
    # the order latch, and from 4 bits on the product latches, fail a
    # scenario after one that passed
    assert late_failures >= 2 + (n > 2)


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("n", [2, 4])
def test_stage_indication_off_the_lane_path_equals_running_every_spacer_phase(n, protocol):
    stage = generate(MultiplierSpec(n, protocol=protocol))
    buffered, unlatched, shared = (_buffered_latch(stage), _unlatched(stage),
                                   _phase_on_ack_in(stage))
    for nl, reason in ((buffered, "ACK_IN_READER"), (shared, "INPUT_RESET")):
        with pytest.raises(NotSettleableError) as refused:
            lane_plan(nl)
        assert refused.value.reason == reason
    # accepted, but the ack_in flip moves the latch in lanes that pass, so
    # the serial loop runs from scenario 0
    lane_plan(unlatched)
    assert _first_failing_lane(unlatched, unlatched._derived("harness.stage", _Stage),
                               [(1, 1), (2, 3)]) == 0
    for nl in (buffered, unlatched, shared):
        for extra_values, seed in ((2, 0), (1, n)):
            want = _stage_indication_running_every_spacer_phase(nl, extra_values, seed)
            assert check_stage_indication(nl, extra_values, seed) == want


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_lane_plan_refuses_a_cell_without_the_stage_handshake(protocol):
    # a register bank has ack_in but no ack_out for the engine to mirror
    with pytest.raises(NotSettleableError, match="declares no ack_out") as refused:
        lane_plan(make_register_bank(2, protocol).netlist)
    assert refused.value.reason == "HANDSHAKE" and refused.value.code == "NOT_SETTLEABLE"


GENERATED = [MultiplierSpec(n, kind, protocol, c3, or4)
             for n in (2, 3, 4, 8, 16) for kind in FullAdderKind for protocol in Protocol
             for c3 in (False, True) for or4 in (False, True)]


@pytest.mark.parametrize("spec", GENERATED, ids=lambda s: (
    f"{s.n}-{s.fa_kind.value}-{s.protocol.value}-c3{int(s.c3_as_tree)}-or4{int(s.or4_as_tree)}"))
def test_every_generated_stage_takes_the_lane_path(spec, monkeypatch):
    stage = generate(spec)
    runs = _count_engine_runs(monkeypatch)
    out = check_stage_indication(stage)
    assert out and out.scenarios == 2 * spec.n * 3
    assert not runs


# How the driver of P0's true rail is broken, and what validation says of it.
INVALID_P0_DRIVERS = {
    "duplicate_id": (dict(id=7), "DUPLICATE_GATE_ID: gate id 7 is used by 2 gates"),
    "arity": (dict(inputs=(10,)), "ARITY_MISMATCH: gate 8 (c2) has 1 inputs, expects 2"),
    "reset_2": (dict(reset=2), "BAD_GATE_FIELD: gates[8].reset is 2, expected 0 or 1"),
    "negative_output": (dict(output=-1),
                        "NEGATIVE_NET_ID: net id -1 is negative; UNCONNECTED_INPUT: gate 52 "
                        "input 0 reads undriven net 18; UNCONNECTED_INPUT: port 'P0' rail1 "
                        "dangles on undriven net 18"),
}


@pytest.mark.parametrize("change,message", INVALID_P0_DRIVERS.values(), ids=INVALID_P0_DRIVERS)
def test_stage_indication_refuses_an_invalid_stage_before_building_its_tables(mult2, change,
                                                                              message):
    # a product rail's driver: with a reset of 2 the stage tables would index
    # past the decode table, so validation must come first
    g = mult2.gates[mult2.net(mult2.output_ports[0].rail1).driver_gate]
    assert (g.id, g.inputs, g.output) == (8, (10, 14), 18)
    fields = {"id": g.id, "kind": g.kind, "inputs": g.inputs, "output": g.output,
              "reset": g.reset, **change}
    gates = [Gate(**fields) if other is g else other for other in mult2.gates]
    broken = Netlist(mult2.protocol, gates, mult2.input_ports, mult2.output_ports,
                     ack_out=mult2.ack_out, ack_in=mult2.ack_in, const_nets=mult2.const_nets,
                     phase_net=mult2.phase_net, extra_inputs=mult2.extra_inputs,
                     meta=mult2.meta)
    with pytest.raises(InvalidNetlistError) as err:
        check_stage_indication(broken)
    assert str(err.value) == message


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


@pytest.mark.parametrize("report", [1, (1, 1), None], ids=["int", "pair", "None"])
def test_monotonicity_refuses_a_report_that_is_not_a_cycle_report(mult2, report):
    refused = f"reports must hold CycleReports, got {report!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        check_monotonicity(mult2, [report])


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


SCREENED = [generate(MultiplierSpec(2, kind, protocol))
            for kind in FullAdderKind for protocol in Protocol]
SCREENED += [_two_input_netlist(kind, tied)[0] for kind in (GateKind.OR2, GateKind.AND2)
             for tied in (True, False)]


EVENTS = st.tuples(st.integers(0, 12), st.integers(0, 40), st.integers(0, 1))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, len(SCREENED) - 1), st.lists(EVENTS, max_size=24, unique_by=lambda e: e[1]),
       st.lists(EVENTS, max_size=2), st.booleans(), st.integers(0, 13))
# in time order up to the split, then a late event on a data-phase net
@example(len(SCREENED) - 1, [(1, 0, 1), (12, 1, 1), (3, 0, 0)], [], False, 10)
def test_monotonicity_screen_never_passes_a_trace_the_walk_fails(which, distinct, extra,
                                                                 in_time_order, spacer_start):
    nl = SCREENED[which]
    # mostly distinct nets, so that the screen passes often enough to matter
    trace = [(t, net % nl.net_count, level, ENV) for t, net, level in distinct + extra]
    if in_time_order:
        trace.sort(key=lambda e: e[0])
    report = _report(trace, spacer_start)
    merge = nl._derived("verify.merge_gates", _merge_gates)
    if _acts_once(report.trace, report.spacer_start, merge):
        assert _reference_monotonicity(nl, [report]).passed
    _assert_same_monotonicity(nl, [report])


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


def test_delay_insensitivity_names_the_cycle_a_hazard_breaks():
    # cycle 1 breaks, though the nested monotonicity check sees it as its cycle 0
    nl = generate(MultiplierSpec(n=2, fa_kind=FullAdderKind.MAJORITY_CONTROL))
    out = check_delay_insensitivity(nl, pairs=[(3, 3), (0, 0)], seeds=0)
    assert not out and out.scenarios == 1 and "(net 54, t=23)" in out.detail
    assert out.counterexample.check == "delay_insensitivity"
    assert out.counterexample.stimulus == {"a": 0, "b": 0, "cycle": 1, "phase": 0}


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


@pytest.mark.parametrize("pair", [(4, 1), (1, -1), (1.5, 2), (1.0, 2), (True, 1)],
                         ids=["wide", "negative", "float", "whole-float", "bool"])
@pytest.mark.parametrize("check", [check_functional, check_duality, check_race_immunity,
                                   check_delay_insensitivity])
def test_checkers_refuse_operands_the_stage_cannot_take(mult2, check, pair):
    # after the same pairs as ints have run, so a record could be found
    assert check(mult2, pairs=[(1, 2), (1, 1)])
    with pytest.raises(ValueError, match=r"operands must be ints in \[0, 4\)"):
        check(mult2, pairs=[(1, 2), pair])


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
    for stages, refused in ((0, "stages must be at least 1, got 0"),
                            (True, "stages must be an int, got True"),
                            (2.5, "stages must be an int, got 2.5"),
                            ("2", "stages must be an int, got '2'")):
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            inject_fork_skew(mult2, fork_net, consumer, stages=stages)
    with pytest.raises(ValueError):
        inject_fork_skew(mult2, fork_net, consumer + 10_000, stages=4)
    with pytest.raises(ValueError):
        inject_fork_skew(mult2, mult2.gate_by_id[consumer].output, consumer, stages=4)


def test_mutants_keep_their_tags(mult2):
    assert "mutation" in swap_port_rails(mult2).meta
    assert "mutation" in narrow_completion(mult2).meta


def test_golden_outcome_hash():
    assert golden.outcome_digest() == golden.GOLDEN_OUTCOME_SHA256


def test_readme_quick_tour_prints_what_it_says(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Quick tour", 1)[1]
    snippet = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(snippet, "README.md", "exec"), {})
    checks = ["functional", "stage_indication", "duality", "race_immunity",
              "delay_insensitivity"]
    assert capsys.readouterr().out.splitlines() == (
        ["143 19 19"] + [f"{check} True" for check in checks])
