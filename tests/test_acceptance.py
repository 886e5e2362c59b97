"""Acceptance battery: ten criteria, one printed verdict line each.

The bulk fixture drives every 4-bit design through its full 256-pair
operand space under unit delays and 100 random per-gate delay seeds, and
every 8-bit design through 10,000 seeded operand pairs, recording product
mismatches, port protocol violations, per-net transition counts and
latency identities in a single pass.  The criterion tests then read those
tallies, so the expensive simulation happens once per pytest run.
"""

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace
from operator import itemgetter

import pytest

import golden
from qdimul.cells import FullAdderKind, make_and2_strong, make_full_adder
from qdimul.cli import main as cli_main
from qdimul.harness import Harness, IllegalOutputError, StuckPhaseError
from qdimul.metrics import compare, measure
from qdimul.multiplier import MultiplierSpec, generate, structure_stats
from qdimul.netlist import Protocol, decode, dualize, encode
from qdimul.sim import DelayModel, NonQuiescentError, reset
from qdimul.verify import (
    check_functional,
    check_monotonicity,
    check_race_immunity,
    check_stage_indication,
    check_strong_indication,
    check_weak_indication,
    default_pairs,
    inject_fork_skew,
    narrow_completion,
    swap_port_rails,
)

KINDS = (FullAdderKind.DIMS_STRONG, FullAdderKind.WEAK_DISJOINT)
PROTOCOLS = (Protocol.RTZ, Protocol.RTO)
RANDOM_SEEDS = tuple(range(100))
N8_PAIR_COUNT = 10_000
BURST_PAIRS = [(1, 0), (0, 1), (1, 0), (0, 1)]


def verdict(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@dataclass
class DesignTally:
    netlist: object
    n: int
    kind: str
    protocol: str
    cycles: int = 0
    handshake_errors: int = 0
    product_errors: int = 0
    port_errors: int = 0
    net_errors: int = 0
    latency_mismatches: int = 0
    cycle_sum_errors: int = 0
    unit_reports: list = field(default_factory=list)
    unit_products: list = field(default_factory=list)


def net_rule_ok(report):
    # at most one transition per net per half-cycle, in both halves
    split = bisect_left(report.trace, report.spacer_start, key=itemgetter(0))
    for half in (report.trace[:split], report.trace[split:]):
        counts = Counter(map(itemgetter(1), half))
        if counts and counts.most_common(1)[0][1] > 1:
            return False
    return True


@pytest.fixture(scope="module")
def bulk():
    tallies = {}
    for n in (4, 8):
        if n == 4:
            pairs = [(a, b) for a in range(16) for b in range(16)]
            models = [DelayModel.unit()]
            models += [DelayModel.random_per_gate(1, 20, s) for s in RANDOM_SEEDS]
        else:
            pairs = default_pairs(8, N8_PAIR_COUNT, seed=0)
            models = [DelayModel.unit()]
        for kind, protocol in itertools.product(KINDS, PROTOCOLS):
            nl = generate(MultiplierSpec(n=n, fa_kind=kind, protocol=protocol))
            tally = DesignTally(nl, n, kind.value, protocol.value)
            reset_levels = nl.reset_levels()
            for model_index, dm in enumerate(models):
                unit = model_index == 0
                harness = Harness(nl, dm)
                try:
                    for a, b in pairs:
                        r = harness.run_cycle(a, b, want_trace=True)
                        tally.cycles += 1
                        if r.product != a * b:
                            tally.product_errors += 1
                        if not golden.port_rule_ok(nl, reset_levels, r):
                            tally.port_errors += 1
                        if not net_rule_ok(r):
                            tally.net_errors += 1
                        if unit:
                            if r.forward != r.reverse:
                                tally.latency_mismatches += 1
                            if r.cycle != r.forward + r.reverse:
                                tally.cycle_sum_errors += 1
                            tally.unit_reports.append(replace(r, trace=None))
                            tally.unit_products.append(r.product)
                except (StuckPhaseError, IllegalOutputError, NonQuiescentError):
                    tally.handshake_errors += 1
            tallies[(n, kind.value, protocol.value)] = tally
    return tallies


def test_criterion_1_functional_correctness(bulk):
    cycles = sum(t.cycles for t in bulk.values())
    expected = 4 * (1 + len(RANDOM_SEEDS)) * 256 + 4 * N8_PAIR_COUNT
    bad = sum(t.product_errors + t.handshake_errors for t in bulk.values())
    verdict(1, "functional correctness", bad == 0 and cycles == expected,
            f"{cycles} handshake cycles over 8 designs, {bad} product mismatches "
            f"(4x4: unit + {len(RANDOM_SEEDS)} delay seeds, exhaustive pairs; "
            f"8x8: {N8_PAIR_COUNT} seeded pairs)")


def test_criterion_2_protocol_conformance(bulk):
    bad = sum(t.port_errors + t.handshake_errors for t in bulk.values())
    cycles = sum(t.cycles for t in bulk.values())
    verdict(2, "protocol conformance", bad == 0,
            f"{cycles} cycles scanned at every port: {bad} violations of the "
            "one-codeword-then-spacer alternation, zero illegal codewords")


def test_criterion_3_indication():
    strong_cells = [make_and2_strong(p).netlist for p in PROTOCOLS]
    strong_cells += [make_full_adder(FullAdderKind.DIMS_STRONG, p).netlist
                     for p in PROTOCOLS]
    strong = [check_strong_indication(nl) for nl in strong_cells]
    weak_cells = [make_full_adder(FullAdderKind.WEAK_DISJOINT, p).netlist
                  for p in PROTOCOLS]
    stages = [generate(MultiplierSpec(n=4, fa_kind=k, protocol=p))
              for k, p in itertools.product(KINDS, PROTOCOLS)]
    weak = [check_weak_indication(nl) for nl in weak_cells + stages]
    ok = all(strong) and all(weak)
    verdict(3, "indication",
            ok,
            f"{len(strong)} strong-indication cells over all arrival orders, "
            f"{len(weak_cells)} weak cells and {len(stages)} multiplier stages "
            "with the withheld-input probe")


def test_criterion_4_monotonicity(bulk):
    bad = sum(t.net_errors for t in bulk.values())
    cycles = sum(t.cycles for t in bulk.values())
    nl = generate(MultiplierSpec(n=4, fa_kind=FullAdderKind.MAJORITY_CONTROL))
    r = Harness(nl).run_cycle(3, 7, want_trace=True)
    flagged = check_monotonicity(nl, [r])
    caught = not flagged.passed and flagged.counterexample is not None
    verdict(4, "monotonicity", bad == 0 and caught,
            f"{cycles} cycles with at most one transition per net per half-cycle "
            f"({bad} violations); non-disjoint majority-carry control flagged: {caught}")


def test_criterion_5_latency_identity(bulk):
    mism = sum(t.latency_mismatches for t in bulk.values())
    sums = sum(t.cycle_sum_errors for t in bulk.values())
    unit_cycles = sum(len(t.unit_reports) for t in bulk.values())
    verdict(5, "latency identity", mism == 0 and sums == 0,
            f"{unit_cycles} unit-delay cycles: forward == reverse in all "
            f"({mism} mismatches), cycle == forward + reverse ({sums} mismatches)")


def test_criterion_6_structure(bulk):
    ok = True
    for n in (2, 4, 8):
        for kind, protocol in itertools.product(KINDS, PROTOCOLS):
            key = (n, kind.value, protocol.value)
            nl = (bulk[key].netlist if key in bulk
                  else generate(MultiplierSpec(n=n, fa_kind=kind, protocol=protocol)))
            st = structure_stats(nl)
            ok = ok and (st.and_cells, st.full_adders,
                         st.constant_carries, st.product_width) == (
                             n * n, n * (n - 1), n, 2 * n)
    verdict(6, "structure", ok,
            "and-cell/adder/constant/product counts equal "
            "(N^2, N(N-1), N, 2N) for N in {2, 4, 8}, all adder kinds and protocols")


def test_criterion_7_duality(bulk):
    involution = all(dualize(dualize(t.netlist)) == t.netlist for t in bulk.values())
    stage_match = all(
        bulk[(4, k.value, "rtz")].unit_products == bulk[(4, k.value, "rto")].unit_products
        for k in KINDS)
    cell_match = True
    for a, b in itertools.product((0, 1), repeat=2):
        decoded = []
        for protocol in PROTOCOLS:
            cell = make_and2_strong(protocol)
            nl = cell.netlist
            st = reset(nl)
            for name, bit in (("a", a), ("b", b)):
                port = next(p for p in nl.ports if p.name == name)
                r1, r0 = encode(bit, protocol)
                st.set_primary(port.rail1, r1)
                st.set_primary(port.rail0, r0)
            st.run_until_quiescent()
            z = next(p for p in nl.ports if p.name == "z")
            decoded.append(decode(st.levels[z.rail1], st.levels[z.rail0], protocol))
        cell_match = cell_match and decoded[0] is decoded[1]
        cell_match = cell_match and decoded[0].bit == (a & b)
    ok = involution and stage_match and cell_match
    verdict(7, "duality", ok,
            f"dualize is an involution on all 8 designs: {involution}; "
            f"rtz/rto products agree on all 256 pairs at 4x4: {stage_match}; "
            f"and-cell duals agree on all 4 input pairs: {cell_match}")


def test_criterion_8_relative_ordering(bulk):
    ordering = []
    normalized = []
    for n in (4, 8):
        for protocol in PROTOCOLS:
            rows = [measure(bulk[(n, k.value, protocol.value)].netlist,
                            bulk[(n, k.value, protocol.value)].unit_reports)
                    for k in KINDS]
            ranked = compare(rows)
            by_kind = {r.fa_kind: r for r in ranked}
            ordering.append(by_kind["weak"].cycle_mean <= by_kind["dims"].cycle_mean)
            normalized.append(
                sum(1 for r in ranked if r.pctp_normalized == 1.0) == 1)
    detail_rows = []
    for n in (4, 8):
        dims = measure(bulk[(n, "dims", "rtz")].netlist,
                       bulk[(n, "dims", "rtz")].unit_reports)
        weak = measure(bulk[(n, "weak", "rtz")].netlist,
                       bulk[(n, "weak", "rtz")].unit_reports)
        detail_rows.append(f"{n}x{n} weak {weak.cycle_mean:.1f} <= dims {dims.cycle_mean:.1f}")
    verdict(8, "relative ordering", all(ordering) and all(normalized),
            "unit-delay cycle times " + ", ".join(detail_rows) +
            "; pctp normalization marks exactly one design per group")


def test_criterion_9_determinism(tmp_path):
    gen_path = tmp_path / "gen.json"
    trace_path = tmp_path / "trace.csv"
    sim_path = tmp_path / "sim.json"
    bench_path = tmp_path / "bench.json"
    table_path = tmp_path / "table.txt"
    paths = (gen_path, trace_path, sim_path, bench_path, table_path)
    outs = []
    for _ in range(2):
        assert cli_main(["gen", "--n", "4", "--out", str(gen_path)]) == 0
        assert cli_main(["sim", "--netlist", str(gen_path),
                         "--pairs", "3x5,15x15,7x9",
                         "--delay-model", "random:1,20", "--seed", "7",
                         "--trace", str(trace_path),
                         "--json", "--out", str(sim_path)]) == 0
        assert cli_main(["bench", "--n", "2", "--samples", "8",
                         "--delay-model", "random:1,9", "--seed", "3",
                         "--json", "--out", str(bench_path)]) == 0
        assert cli_main(["bench", "--n", "2", "--samples", "8",
                         "--out", str(table_path)]) == 0
        outs.append(tuple(p.read_bytes() for p in paths))
    ok = outs[0] == outs[1]
    verdict(9, "determinism", ok,
            "netlist, trace, cycle-report, bench-json and bench-table artifacts "
            "are byte-identical across two consecutive runs of the same config")


def test_criterion_10_checker_sensitivity():
    nl = generate(MultiplierSpec(n=2))
    p0 = next(p for p in nl.output_ports if p.name == "P0")
    consumer = nl.net(p0.rail1).driver_gate
    fork_net = nl.gate_by_id[consumer].inputs[0]
    majority = generate(MultiplierSpec(n=4, fa_kind=FullAdderKind.MAJORITY_CONTROL))

    def monotonicity_flag(netlist):
        r = Harness(netlist).run_cycle(3, 7, want_trace=True)
        return check_monotonicity(netlist, [r])

    controls = [
        ("swapped output rails -> functional",
         lambda: check_functional(swap_port_rails(nl))),
        ("narrowed completion -> stage indication",
         lambda: check_stage_indication(narrow_completion(nl))),
        ("skewed fork -> race immunity",
         lambda: check_race_immunity(
             inject_fork_skew(nl, fork_net, consumer, stages=16),
             pairs=BURST_PAIRS)),
        ("non-disjoint carry -> monotonicity",
         lambda: monotonicity_flag(majority)),
    ]
    ok = True
    caught = []
    for label, run in controls:
        first, second = run(), run()
        failed = (not first.passed
                  and first.counterexample is not None
                  and first.counterexample.to_json() == second.counterexample.to_json())
        ok = ok and failed
        caught.append(f"{label}: {'caught' if failed else 'MISSED'}")
    verdict(10, "checker sensitivity", ok, "; ".join(caught))
