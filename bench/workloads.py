"""The benchmark's three workloads, each a fixed list of operations.

A workload is built from its seed alone: operand pairs come from
``default_pairs(n, samples, seed)`` and delay-model seeds are derived from the
workload seed, so qdimul only ever sees the generated inputs.  ``build`` is the
set-up (designs generated, and in ``verify`` sent through
``serialize``/``deserialize``); it returns the ops of one round.  The runner
times each op's ``run`` and checks its value with ``check``, outside the timed
region.  Every round repeats the same ops, so every round must return the same
signatures.

The benchmark calls qdimul through module attributes (``verify.check_duality``
rather than a name bound here) so that the traced run sees every call.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from operator import itemgetter
from typing import Callable, NamedTuple

import qdimul.cells as cells
import qdimul.harness as harness
import qdimul.metrics as metrics
import qdimul.multiplier as multiplier
import qdimul.netlist as netlist
import qdimul.verify as verify
from qdimul.cells import FullAdderKind
from qdimul.netlist import DualRailValue, Protocol
from qdimul.sim import DelayModel

KINDS = (FullAdderKind.DIMS_STRONG, FullAdderKind.WEAK_DISJOINT)
PROTOCOLS = (Protocol.RTZ, Protocol.RTO)
#: Known-failing burst for the fork-skew control (acceptance criterion 10).
BURST_PAIRS = [(1, 0), (0, 1), (1, 0), (0, 1)]
#: Pair on which the majority-carry stage shows its non-disjoint merge.
MAJORITY_PAIR = (3, 7)


class Result(NamedTuple):
    failed: int
    work: int  # handshake cycles, or checker scenarios in ``verify``
    signature: object


class Op(NamedTuple):
    key: str
    attempted: int  # operations counted toward failed_ratio
    run: Callable[[], object]
    check: Callable[[object], Result]
    checker: str | None = None  # verify check whose scenarios this op reports


def delay_seeds(seed: int, count: int) -> list[int]:
    """Per-workload delay seeds, disjoint for distinct workload seeds."""
    return [seed * 1000 + i for i in range(count)]


def stage(n: int, kind: FullAdderKind = FullAdderKind.DIMS_STRONG,
          protocol: Protocol = Protocol.RTZ):
    spec = multiplier.MultiplierSpec(n=n, fa_kind=kind, protocol=protocol)
    return multiplier.generate(spec)


def net_rule_ok(report) -> bool:
    """At most one transition per net in each half-cycle (acceptance rule)."""
    split = bisect_left(report.trace, report.spacer_start, key=itemgetter(0))
    for half in (report.trace[:split], report.trace[split:]):
        counts = Counter(map(itemgetter(1), half))
        if counts and counts.most_common(1)[0][1] > 1:
            return False
    return True


def port_rule_ok(changes) -> bool:
    """Each port shows exactly one data codeword, then one spacer."""
    for points in changes.values():
        if len(points) != 2:
            return False
        if points[0][1].bit is None or points[1][1] is not DualRailValue.SPACER:
            return False
    return True


def _harness_op(key: str, slot: dict, nl, dm) -> Op:
    def run():
        slot["h"] = harness.Harness(nl, dm)
        slot["reports"] = []

    return Op(key, 0, run, lambda _v: Result(0, 0, None))


class Sweep4:
    """The acceptance ``bulk`` sweep at 4x4, every cycle traced and checked.

    Four designs (dims/weak x RTZ/RTO), all 256 operand pairs, under unit
    delays and two ``random_per_gate(1, 20)`` models.
    """

    name = "sweep4"

    def __init__(self, seed: int, tiny: bool, plant: bool) -> None:
        pairs = verify.default_pairs(4, seed=seed)
        self.pairs = pairs[::16] if tiny else pairs
        self.seeds = delay_seeds(seed, 2)
        self.plant = plant

    def build(self) -> list[Op]:
        designs = [stage(4, k, p) for k, p in itertools.product(KINDS, PROTOCOLS)]
        if self.plant:
            designs[0] = verify.swap_port_rails(designs[0])
        models = [DelayModel.unit()]
        models += [DelayModel.random_per_gate(1, 20, s) for s in self.seeds]
        ops: list[Op] = []
        for nl, dm in itertools.product(designs, models):
            label = f"{metrics.design_label(nl)}/{dm.mode.value}:{dm.seed}"
            slot: dict = {}
            ops.append(_harness_op(label, slot, nl, dm))
            levels = nl.reset_levels()
            ops += [self._cycle(f"{label}/{a}x{b}", slot, nl, dm, levels, a, b)
                    for a, b in self.pairs]
        return ops

    @staticmethod
    def _cycle(key, slot, nl, dm, levels, a, b) -> Op:
        def run():
            try:
                r = slot["h"].run_cycle(a, b, want_trace=True)
            except Exception:
                # a failed cycle leaves the stage mid-handshake
                slot["h"] = harness.Harness(nl, dm)
                raise
            return r, harness.scan_port_changes(nl, levels, r.trace)

        def check(value) -> Result:
            r, changes = value
            ok = r.product == a * b and port_rule_ok(changes) and net_rule_ok(r)
            sig = (r.product, r.forward, r.reverse, r.transitions, r.end - r.data_start)
            return Result(0 if ok else 1, 1, sig)

        return Op(key, 1, run, check)


class Throughput:
    """What ``qdimul bench`` does: untraced sequences, then measure and compare.

    dims and weak RTZ stages at 8x8 (64 pairs) and 16x16 (32 pairs), under
    unit delays and one ``random_per_gate(1, 20)`` model.
    """

    name = "throughput"
    CHUNK = 4  # pairs per run_sequence call; each call is one latency sample

    def __init__(self, seed: int, tiny: bool, plant: bool) -> None:
        samples = {8: 8, 16: 4} if tiny else {8: 64, 16: 32}
        self.pairs = {n: verify.default_pairs(n, k, seed)[:k] for n, k in samples.items()}
        self.seed = delay_seeds(seed, 1)[0]
        self.plant = plant

    def build(self) -> list[Op]:
        ops: list[Op] = []
        models = (DelayModel.unit(), DelayModel.random_per_gate(1, 20, self.seed))
        for n, pairs in self.pairs.items():
            designs = [stage(n, k) for k in KINDS]
            if self.plant and n == 8:
                designs[0] = verify.swap_port_rails(designs[0])
            for dm in models:
                slots = []
                for nl in designs:
                    label = f"{metrics.design_label(nl)}/{dm.mode.value}"
                    slot: dict = {}
                    slots.append(slot)
                    ops.append(_harness_op(label, slot, nl, dm))
                    for i in range(0, len(pairs), self.CHUNK):
                        ops.append(self._sequence(f"{label}/{i}", slot,
                                                  pairs[i:i + self.CHUNK]))
                    ops.append(self._measure(f"{label}/measure", slot, nl, len(pairs)))
                ops.append(self._compare(f"{n}x{n}/{dm.mode.value}/compare", slots))
        return ops

    @staticmethod
    def _sequence(key, slot, chunk) -> Op:
        def run():
            reports = slot["h"].run_sequence(chunk)
            slot["reports"] += reports
            return reports

        def check(reports) -> Result:
            wrong = sum(r.product != a * b for r, (a, b) in zip(reports, chunk))
            wrong += len(chunk) - len(reports)
            sig = tuple((r.product, r.forward, r.reverse, r.transitions) for r in reports)
            return Result(wrong, len(reports), sig)

        return Op(key, len(chunk), run, check)

    @staticmethod
    def _measure(key, slot, nl, cycles) -> Op:
        def run():
            slot["row"] = metrics.measure(nl, slot["reports"])
            return slot["row"]

        def check(row) -> Result:
            ok = row.cycles == cycles and row.cycle_mean > 0
            return Result(0 if ok else 1, 0, (row.cycle_mean, row.power_proxy, row.area))

        return Op(key, 1, run, check)

    @staticmethod
    def _compare(key, slots) -> Op:
        def run():
            return metrics.compare([s["row"] for s in slots])

        def check(ranked) -> Result:
            sig = tuple((r.design, r.pctp_normalized) for r in ranked)
            ok = len(ranked) == len(slots) and max(r.pctp_normalized for r in ranked) == 1.0
            return Result(0 if ok else 1, 0, sig)

        return Op(key, 1, run, check)


def _healthy(outcome) -> Result:
    return Result(0 if outcome.passed else 1, outcome.scenarios,
                  (outcome.check, outcome.passed, outcome.scenarios, outcome.detail))


def _caught(outcome) -> Result:
    ce = outcome.counterexample
    ok = not outcome.passed and ce is not None and bool(ce.trace_tail)
    return Result(0 if ok else 1, outcome.scenarios,
                  (outcome.check, outcome.passed, outcome.scenarios,
                   ce.to_json() if ce is not None else None))


def _check_op(key: str, checker: str, run: Callable, control: bool = False) -> Op:
    return Op(key, 1, run, _caught if control else _healthy, checker)


class Verify:
    """The ``qdimul gen | qdimul verify`` path: checker battery and controls.

    Every design reaches the checkers through ``serialize``/``deserialize``.
    The battery (``run_all_checks``'s five checks with its arguments, except
    one seeded operand value per port in ``check_stage_indication`` and two
    random delay seeds in ``check_delay_insensitivity``) and
    ``check_monotonicity`` over 16 traced cycles run on the four 8x8 designs.
    A 16x16 stage gets ``check_delay_insensitivity`` on two pairs under unit
    and one random delay model; the AND and full-adder cells get the
    strong/weak indication checks.  Every check call stays under about 0.2 s,
    so a run repeats each one often enough for its median time to settle.
    """

    name = "verify"

    def __init__(self, seed: int, tiny: bool, plant: bool) -> None:
        self.seed = seed
        self.widths = (2, 4) if tiny else (8, 16)
        seeds = delay_seeds(seed, 3)
        self.di_seeds, self.wide_seeds = seeds[:2], seeds[2:]
        self.plant = plant

    def build(self) -> list[Op]:
        n, n_wide = self.widths
        raw = {f"{k.value}-{p.value}-{n}": stage(n, k, p)
               for k, p in itertools.product(KINDS, PROTOCOLS)}
        raw["wide"] = stage(n_wide)
        raw["fork"] = stage(2)
        raw["majority"] = stage(4, FullAdderKind.MAJORITY_CONTROL)
        for p in PROTOCOLS:
            raw[f"and-{p.value}"] = cells.make_and2_strong(p).netlist
            for k in (FullAdderKind.DIMS_STRONG, FullAdderKind.WEAK_DISJOINT):
                raw[f"fa-{k.value}-{p.value}"] = cells.make_full_adder(k, p).netlist
        texts = {name: netlist.serialize(nl) for name, nl in raw.items()}
        d = {name: netlist.deserialize(text) for name, text in texts.items()}
        stages = [d[f"{k.value}-{p.value}-{n}"] for k, p in itertools.product(KINDS, PROTOCOLS)]
        if self.plant:
            stages[0] = verify.swap_port_rails(stages[0])
        return (self._battery(stages) + self._monotonicity(stages)
                + self._wide(d["wide"]) + self._cells(d)
                + self._controls(d[f"dims-rtz-{n}"], d))

    def _battery(self, designs) -> list[Op]:
        s, seeds = self.seed, self.di_seeds
        ops: list[Op] = []
        for nl in designs:
            label = metrics.design_label(nl)
            ops += [
                _check_op(f"{label}/functional", "functional",
                          lambda nl=nl: verify.check_functional(nl, samples=16, seed=s)),
                _check_op(f"{label}/stage_indication", "stage_indication",
                          lambda nl=nl: verify.check_stage_indication(
                              nl, extra_values=1, seed=s)),
                _check_op(f"{label}/duality", "duality",
                          lambda nl=nl: verify.check_duality(nl, samples=16, seed=s)),
                _check_op(f"{label}/race_immunity", "race_immunity",
                          lambda nl=nl: verify.check_race_immunity(nl, samples=8, seed=s)),
                _check_op(f"{label}/delay_insensitivity", "delay_insensitivity",
                          lambda nl=nl: verify.check_delay_insensitivity(
                              nl, seeds=seeds, samples=8, seed=s)),
            ]
        return ops

    def _monotonicity(self, designs) -> list[Op]:
        ops = []
        for nl in designs:
            pairs = verify.default_pairs(int(nl.meta["n"]), 16, self.seed)[:16]
            ops.append(_check_op(
                f"{metrics.design_label(nl)}/monotonicity", "monotonicity",
                lambda nl=nl, pairs=pairs: verify.check_monotonicity(
                    nl, harness.Harness(nl).run_sequence(pairs, want_traces=True))))
        return ops

    def _wide(self, nl) -> list[Op]:
        pairs = verify.default_pairs(self.widths[1], 6, self.seed)[4:6]
        return [_check_op(f"{metrics.design_label(nl)}/delay_insensitivity",
                          "delay_insensitivity",
                          lambda: verify.check_delay_insensitivity(
                              nl, pairs=pairs, seeds=self.wide_seeds))]

    @staticmethod
    def _cells(d) -> list[Op]:
        ops = []
        for p in PROTOCOLS:
            for name, checker in ((f"and-{p.value}", "strong_indication"),
                                  (f"fa-dims-{p.value}", "strong_indication"),
                                  (f"fa-weak-{p.value}", "weak_indication")):
                ops.append(_check_op(
                    f"{name}/{checker}", checker,
                    lambda checker=checker, nl=d[name]: getattr(verify, f"check_{checker}")(nl)))
        return ops

    def _controls(self, base, d) -> list[Op]:
        s = self.seed
        fork = d["fork"]
        p0 = next(p for p in fork.output_ports if p.name == "P0")
        consumer = fork.net(p0.rail1).driver_gate
        fork_net = fork.gate_by_id[consumer].inputs[0]
        majority = d["majority"]

        def monotonicity():
            r = harness.Harness(majority).run_cycle(*MAJORITY_PAIR, want_trace=True)
            return verify.check_monotonicity(majority, [r])

        return [
            _check_op("control/swap_port_rails", "functional",
                      lambda: verify.check_functional(
                          verify.swap_port_rails(base), samples=16, seed=s), True),
            _check_op("control/narrow_completion", "stage_indication",
                      lambda: verify.check_stage_indication(
                          verify.narrow_completion(base), extra_values=1, seed=s), True),
            _check_op("control/inject_fork_skew", "race_immunity",
                      lambda: verify.check_race_immunity(
                          verify.inject_fork_skew(fork, fork_net, consumer, stages=16),
                          pairs=BURST_PAIRS), True),
            _check_op("control/majority_carry", "monotonicity", monotonicity, True),
        ]


WORKLOADS = {w.name: w for w in (Sweep4, Throughput, Verify)}
