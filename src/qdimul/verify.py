"""Property checkers for dual-rail handshake circuits.

Each checker returns a :class:`CheckOutcome`; a failing outcome carries a
:class:`Counterexample` with everything needed to replay it (operands, seed,
delay model, tail of the event trace).  The checkers never mutate the
netlist under test, and each fixes its own environment: every check runs
under unit delays except :func:`check_delay_insensitivity`, which adds
``random_per_gate(1, 20, seed)`` models, and every run is bounded by the
engine's ``DEFAULT_GUARD``.  A handshake that fails with one of
:data:`~qdimul.harness.HANDSHAKE_ERRORS` is a failing outcome, not an error.
A check given no stimulus (an empty ``pairs`` or ``reports``) raises
``ValueError`` rather than pass on 0 scenarios.  Seeded operand pairs come
from one generator per seed (:func:`_pair_rng`), so ``seed`` and ``-seed``
sample different pairs.

Every check simulates its scenarios on the event engine except two, which
first decide all of their scenarios at once from settled states
(:mod:`qdimul.settle`, one lane per scenario).
:func:`check_stage_indication` runs the engine only from the lowest
failing scenario on, for the counterexample, or from the first when the
lanes cannot decide.  :func:`check_delay_insensitivity` takes every pair's
cycle under every delay model from the timed lanes
(:func:`~qdimul.settle.run_cycles`) and passes without simulating; when
they refuse, its serial loop runs every scenario from the first on the
engine, so failures, counts and counterexamples stay the engine's.

The module also ships three netlist mutators used as negative controls:
:func:`swap_port_rails` (corrupts function), :func:`narrow_completion`
(completion stops indicating all inputs) and :func:`inject_fork_skew`
(delays one branch of a forking wire, breaking the matched-fork assumption).
A healthy checker suite must fail on each of them.

A handshake cycle is clean when it keeps three rules.  Port rule: each port
shows one data codeword, then the spacer; the harness judges it from the
cycle's port-rail events and keeps a break as ``CycleReport.port_fault``
(an ILLEGAL decode raises instead).  Net rule: a net changes at most once
per phase window (data, then spacer from the report's ``spacer_start``).
Merge rule: an AND or OR gate receives at most one input transition toward
its firing level (rising for OR, falling for AND) per window; a second one
is a transition the output cannot acknowledge, the classic hazard of
non-disjoint merges.  C-elements are exempt: they absorb and sequence
multiple arrivals by design.  :func:`_acts_once` defines the last two.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import getitem, itemgetter
from typing import Callable, Iterable, Sequence

from .harness import (
    HANDSHAKE_ERRORS,
    Harness,
    CycleReport,
    _Stage,
    _input_events,
    scan_port_changes,  # unused here; bench/tracing.py wraps this module's copy
)
from .metrics import design_label
from .netlist import (
    F_AND,
    F_OR,
    FAMILY,
    DualRailPort,
    DualRailValue,
    Gate,
    GateKind,
    Netlist,
    _require_count,
    dualize,
)
from .settle import NotSettleableError, lane_plan, run_cycles
from .sim import DelayModel, reset

TRACE_TAIL = 24


@dataclass(frozen=True)
class Counterexample:
    """A replayable failing scenario."""

    design: str
    check: str
    stimulus: dict
    delay_model: dict
    observed: str
    expected: str
    trace_tail: tuple = ()

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=1, sort_keys=True)


@dataclass(frozen=True)
class CheckOutcome:
    check: str
    passed: bool
    detail: str
    scenarios: int = 0
    counterexample: Counterexample | None = None
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed


def _tail(trace: Sequence[tuple]) -> tuple:
    return tuple(trace[-TRACE_TAIL:])


def _fail(
    check: str,
    netlist: Netlist,
    stimulus: dict,
    delay_model: DelayModel | None,
    observed: str,
    expected: str,
    scenarios: int,
    trace: Sequence[tuple] = (),
) -> CheckOutcome:
    dm = delay_model or DelayModel.unit()
    ce = Counterexample(
        design=design_label(netlist),
        check=check,
        stimulus=stimulus,
        delay_model=dm.describe(),
        observed=observed,
        expected=expected,
        trace_tail=_tail(trace),
    )
    return CheckOutcome(check, False, f"{observed} (expected {expected})", scenarios, ce)


def _require_counts(samples: int, seeds: Iterable[int] | int = 0, seed: int = 0) -> None:
    """Refuse ``samples`` unless it is an int of at least 1, ``seeds`` unless it
    is an int of at least 0 or an iterable of seeds other than a str, and the
    pair-sampling ``seed`` unless it is an int (negative ones included)."""
    _require_count("samples", samples, 1)
    if isinstance(seeds, str) or not isinstance(seeds, Iterable):
        _require_count("seeds", seeds, 0)
    _require_count("seed", seed, None)


def _listed(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """``pairs`` as a list; refuse an empty one, on which a check would pass vacuously."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("pairs must hold at least one operand pair")
    return pairs


def _pair_rng(seed: int) -> random.Random:
    """The generator that samples operand pairs under ``seed``.

    ``random.Random`` seeds an int with its absolute value, so a negative
    seed seeds with its decimal text, as :class:`~qdimul.sim.DelayModel`
    does; a seed of 0 or more keeps ``random.Random(seed)``.
    """
    return random.Random(seed if seed >= 0 else str(seed))


def _corners(limit: int) -> list[tuple[int, int]]:
    return [(0, 0), (limit - 1, limit - 1), (1, limit - 1), (limit - 1, 1)]


def default_pairs(n: int, samples: int = 64, seed: int = 0) -> list[tuple[int, int]]:
    """Stimulus set: exhaustive up to 4-bit operands, ``samples`` pairs beyond.

    Beyond 4 bits the four corner pairs come first, then seeded random pairs.
    ``n`` must be an int of at least 1, ``samples`` one of at least 1 and
    ``seed`` an int (not bools), else ``ValueError``; ``seed`` and ``-seed``
    sample different pairs (:func:`_pair_rng`).
    """
    _require_count("n", n, 1)
    _require_counts(samples, seed=seed)
    limit = 1 << n
    if n <= 4:
        return [(a, b) for a in range(limit) for b in range(limit)]
    rng = _pair_rng(seed)
    pairs = _corners(limit)[:samples]
    while len(pairs) < samples:
        pairs.append((rng.randrange(limit), rng.randrange(limit)))
    return pairs


def sample_pairs(n: int, samples: int, seed: int = 0) -> list[tuple[int, int]]:
    """At most ``samples`` pairs of :func:`default_pairs`, spread over its range.

    Above 4 bits, and whenever ``samples`` covers the exhaustive set, this is
    :func:`default_pairs`.  Otherwise a slice of its ``a``-major order would
    keep only the smallest ``a``, so the distinct corner pairs come first,
    then a seeded sample of the other pairs without replacement.
    """
    pairs = default_pairs(n, samples, seed)
    if len(pairs) <= samples:
        return pairs
    corners = list(dict.fromkeys(_corners(1 << n)))[:samples]
    rest = [p for p in pairs if p not in corners]
    return corners + _pair_rng(seed).sample(rest, samples - len(corners))


# -- functional correctness ----------------------------------------------------


def check_functional(
    netlist: Netlist,
    pairs: Sequence[tuple[int, int]] | None = None,
    samples: int = 64,
    seed: int = 0,
) -> CheckOutcome:
    """Products must equal the integer product of the operands (unit delays)."""
    name = "functional"
    _require_counts(samples, seed=seed)
    harness = Harness(netlist)
    pairs = default_pairs(harness.n, samples, seed) if pairs is None else _listed(pairs)
    done = 0
    for a, b in pairs:
        try:
            report = harness.run_cycle(a, b)
        except HANDSHAKE_ERRORS as exc:
            tail = _replay_tail(netlist, pairs[: done + 1])
            return _fail(name, netlist, {"a": a, "b": b, "cycle": done}, None,
                         f"{type(exc).__name__}: {exc}", "clean handshake cycle", done, tail)
        if report.product != a * b:
            tail = _replay_tail(netlist, pairs[: done + 1])
            return _fail(name, netlist, {"a": a, "b": b, "cycle": done}, None,
                         f"product {report.product}", f"product {a * b}", done, tail)
        done += 1
    return CheckOutcome(name, True, f"{done} products match the integer oracle", done)


def _replay_tail(netlist: Netlist, pairs: Sequence[tuple[int, int]]) -> tuple:
    """Re-run a failing prefix with tracing on to capture the event tail."""
    harness = Harness(netlist)
    trace: list = []
    try:
        for a, b in pairs:
            report = harness.run_cycle(a, b, want_trace=True)
            trace = report.trace or []
    except HANDSHAKE_ERRORS:
        trace = harness.state.trace
    return _tail(trace)


# -- indication (cell level) ---------------------------------------------------


def _cell_io(netlist: Netlist) -> tuple[tuple[DualRailPort, ...], tuple[DualRailPort, ...]]:
    ins, outs = netlist.input_ports, netlist.output_ports
    if not ins or not outs:
        raise ValueError("indication checks need a cell with dual-rail ports")
    return ins, outs


#: Most input ports whose 2^k * k! scenarios a cell indication check enumerates.
_MAX_ARRIVAL_PORTS = 5


def _arrival_orders(
    netlist: Netlist,
    name: str,
    step: Callable[..., tuple[str, str] | None],
    passed: str,
) -> CheckOutcome:
    """Drive a cell through every input codeword under every arrival order.

    Inputs are applied one at a time, settling under unit delays in between,
    then withdrawn in the same order; each step is one port's entry of the
    netlist's input event table (``harness._input_events``), fetched once
    per check after the netlist is validated.  After each step
    ``step(st, outs, mark, early, withdrawing)`` judges the settled state:
    ``mark`` is where the step's events start in the trace, and ``early``
    reads "after only i of k inputs" (or "withdrawals") while inputs remain,
    else "".  It returns an ``(observed, expected)`` failure or None.  Every
    scenario must also complete the outputs once all inputs are present and
    end in the exact reset state.

    A cell with ``ack_in`` but no ``ack_out`` (whose ``ack_in`` the engine
    would mirror) gets the four-phase environment's acknowledge: ``ack_in``
    leaves its reset level once the outputs complete and returns to it after
    the last withdrawal.

    A cell of k input ports has 2^k * k! scenarios, so a valid cell of more
    than :data:`_MAX_ARRIVAL_PORTS` ports raises ``ValueError`` before the first.
    """
    ins, outs = _cell_io(netlist)
    k = len(ins)
    netlist.require_valid()  # before any table of the netlist is read
    if k > _MAX_ARRIVAL_PORTS:
        limit = _MAX_ARRIVAL_PORTS
        raise ValueError(
            f"a cell with {k} input ports has 2^{k} * {k}! = {2 ** k * math.factorial(k):,} "
            f"codeword/arrival-order scenarios; cell indication takes at most {limit} "
            f"ports ({2 ** limit * math.factorial(limit):,} scenarios)")
    reset_levels, table = netlist.reset_levels(), _input_events(netlist)
    ack = netlist.ack_in if netlist.ack_out is None else None
    # each step's "early" text, formatted once per check rather than per step
    earlies = {withdrawing: [f"after only {pos} of {k} {unit}" for pos in range(1, k)] + [""]
               for withdrawing, unit in ((False, "inputs"), (True, "withdrawals"))}
    scenarios = 0
    for bits in itertools.product((0, 1), repeat=k):
        for order in itertools.permutations(range(k)):
            stim = {
                "bits": {p.name: bits[i] for i, p in enumerate(ins)},
                "arrival": [ins[i].name for i in order],
            }
            st = reset(netlist)
            for withdrawing in (False, True):
                for early, idx in zip(earlies[withdrawing], order):
                    mark = len(st.trace)
                    st.set_primaries(table[idx][2 if withdrawing else bits[idx]])
                    st.run_until_quiescent()
                    failure = step(st, outs, mark, early, withdrawing)
                    if failure:
                        return _fail(name, netlist, stim, None, *failure, scenarios, st.trace)
                if not withdrawing and any(st.read_port(p).bit is None for p in outs):
                    return _fail(name, netlist, stim, None,
                                 "outputs incomplete with all inputs present",
                                 "all outputs at codewords", scenarios, st.trace)
                if ack is not None:
                    st.set_primary(ack, reset_levels[ack] if withdrawing
                                   else 1 - reset_levels[ack])
                    st.run_until_quiescent()
            if st.levels != reset_levels:
                return _fail(name, netlist, stim, None, "cell did not return to reset",
                             "exact reset state after a full cycle", scenarios, st.trace)
            scenarios += 1
    return CheckOutcome(name, True, passed.format(scenarios), scenarios)


def check_strong_indication(netlist: Netlist) -> CheckOutcome:
    """No output may move before the last input, in either phase.

    Exercises every input codeword under every arrival order: inputs are
    applied one at a time (settling in between), and no output rail may
    transition until the final input lands.  The same holds for withdrawal:
    outputs stay at data until the final input returns to spacer.
    """
    out_nets = {r for p in netlist.output_ports for r in (p.rail1, p.rail0)}

    def step(st, outs, mark, early, withdrawing):
        if early:
            moved = next((e for e in st.trace[mark:] if e[1] in out_nets), None)
            if moved is not None:
                return (f"output net {moved[1]} moved at t={moved[0]} {early}",
                        "no output activity before the last "
                        + ("withdrawal" if withdrawing else "input"))
        elif withdrawing and any(st.read_port(p) is not DualRailValue.SPACER for p in outs):
            return "outputs stuck off spacer", "all outputs at spacer"
        return None

    return _arrival_orders(netlist, "strong_indication", step,
                           "outputs wait for the last input under all {} "
                           "codeword/arrival-order scenarios")


def check_weak_indication(netlist: Netlist) -> CheckOutcome:
    """Output completion must imply input completion, in both phases.

    Weaker than :func:`check_strong_indication`: individual outputs may fire
    early, but while any input is missing the outputs as a whole must stay
    incomplete, and while any input is still at data they must not all reach
    spacer.  Cells are exercised under every codeword and arrival order;
    multiplier stages (recognised by their port metadata) run
    :func:`check_stage_indication`'s withheld-operand-bit check under this
    check's name.
    """
    name = "weak_indication"
    if "operands" in netlist.meta:
        return _stage_indication(netlist, name)

    def step(st, outs, mark, early, withdrawing):
        if not early:
            return None
        if withdrawing:
            if all(st.read_port(p) is DualRailValue.SPACER for p in outs):
                return f"all outputs at spacer {early}", "at least one output still at data"
        elif all(st.read_port(p).bit is not None for p in outs):
            return f"all outputs complete {early}", "at least one output incomplete"
        return None

    return _arrival_orders(netlist, name, step,
                           "output completion implies input completion across {} "
                           "codeword/arrival-order scenarios")


# -- indication (stage level) --------------------------------------------------


def check_stage_indication(
    netlist: Netlist,
    extra_values: int = 2,
    seed: int = 0,
) -> CheckOutcome:
    """Completion must not assert while any single operand bit is withheld.

    For every operand port and a handful of operand values (the all-ones
    pair, then ``extra_values`` seeded random pairs) the stage runs, under
    unit delays, with that one dual-rail bit held at spacer: ``ack_out``
    must stay released and some product bit must stay at spacer.  Supplying
    the bit must then complete the handshake with the correct product, and
    a full spacer must restore the reset state.  Scenario ``k * V + v``
    withholds port k (the ``a`` ports, then the ``b`` ports) under value v
    of V.  An ``extra_values`` that is not an int of at least 0 or a
    ``seed`` that is not an int (a bool is neither) raises ``ValueError``,
    and a netlist the :class:`Harness` refuses raises what it raises
    (``_Stage.of``).

    How it is decided.  Where :mod:`qdimul.settle`'s precondition holds,
    each scenario is one lane and three settles decide every scenario at
    once: the data phase without the withheld bits, then the withheld bits
    with the ``ack_in`` flip, then the spacer phase with the flip back.
    Each yields failure words for the six ways a scenario fails (completion
    asserted with a bit withheld, every product bit completed with one
    withheld, completion missing with all inputs, a product port
    incomplete, a wrong product, no return to reset).  If no lane fails,
    the check passes without simulating.

    The serial loop below has two jobs: explaining the lowest failing
    lane, and deciding a netlist the lane plan refuses.  It runs each
    scenario's three phases on the engine through the harness's ``_Stage``
    tables, from the lowest failing lane (the scenarios before it count as
    passed), so the message, count and counterexample trace are the
    engine's; or from scenario 0 when the plan is refused or a flip moves a
    net in a lane that has not failed.
    """
    return _stage_indication(netlist, "stage_indication", extra_values, seed)


def _stage_indication(netlist: Netlist, name: str, extra_values: int = 2,
                      seed: int = 0) -> CheckOutcome:
    """:func:`check_stage_indication`'s body, its outcome named ``name``."""
    _require_count("extra_values", extra_values, 0)
    _require_count("seed", seed, None)
    stage = _Stage.of(netlist)
    ports = (*stage.a_ports, *stage.b_ports)
    n = len(stage.a_ports)
    limit = 1 << n
    rng = _pair_rng(seed)
    values = [(limit - 1, limit - 1)]
    values += [(rng.randrange(limit), rng.randrange(limit)) for _ in range(extra_values)]
    try:
        start = _first_failing_lane(netlist, stage, values)
    except NotSettleableError:
        start = 0
    if start is None:
        scenarios = len(ports) * len(values)
        return CheckOutcome(name, True,
                            f"ack_out waits for every operand bit ({scenarios} scenarios)",
                            scenarios)

    active, spacer = netlist.protocol.active_level, netlist.protocol.spacer_level
    ack = netlist.ack_out
    scenarios = start
    every_scenario = [(k, p, a, b) for k, p in enumerate(ports) for a, b in values]
    for k, withheld, a, b in every_scenario[start:]:
        stim = {"a": a, "b": b, "withheld": withheld.name}
        word = a | b << n  # bit i goes to ports[i]
        st = reset(netlist)
        events = [codewords[word >> i & 1] for i, codewords in enumerate(stage.operand_events)]
        st.set_primaries([stage.phase_active,
                          *itertools.chain.from_iterable(events[:k] + events[k + 1:])])
        st.run_until_quiescent()
        levels = st.levels  # the engine updates this list in place
        if levels[ack] != spacer:
            return _fail(name, netlist, stim, None,
                         f"completion asserted with {withheld.name} withheld",
                         "ack_out released until every input bit arrives",
                         scenarios, st.trace)
        if all(stage.decode[2 * levels[r1] + levels[r0]] is not DualRailValue.SPACER
               for r1, r0 in stage.out_rails):
            return _fail(name, netlist, stim, None,
                         f"every product bit completed with {withheld.name} withheld",
                         "at least one product bit still at spacer",
                         scenarios, st.trace)
        st.set_primaries(events[k])
        st.run_until_quiescent()
        if levels[ack] != active:
            return _fail(name, netlist, stim, None, "completion missing with all inputs",
                         "ack_out asserted", scenarios, st.trace)
        product = 0
        for i, (r1, r0) in enumerate(stage.out_rails):
            v = stage.bit_of[2 * levels[r1] + levels[r0]]
            if v is None:
                return _fail(name, netlist, stim, None,
                             f"port {stage.out_ports[i].name} incomplete",
                             "all products at codewords", scenarios, st.trace)
            product |= v << i
        if product != a * b:
            return _fail(name, netlist, stim, None, f"product {product}",
                         f"product {a * b}", scenarios, st.trace)
        st.set_primaries(stage.spacer_events)
        st.run_until_quiescent()
        if levels != stage.reset_levels:
            return _fail(name, netlist, stim, None, "stage did not return to reset",
                         "exact reset state after a full cycle", scenarios, st.trace)
        scenarios += 1
    return CheckOutcome(name, True,
                        f"ack_out waits for every operand bit ({scenarios} scenarios)",
                        scenarios)


def _first_failing_lane(netlist: Netlist, stage: _Stage,
                        values: Sequence[tuple[int, int]]) -> int | None:
    """The scenario :func:`check_stage_indication`'s serial loop must start at.

    None when every scenario passes.  Lane ``k * len(values) + v`` is the
    scenario that withholds operand port k under ``values[v]``.  Raises
    :class:`~qdimul.settle.NotSettleableError` for a netlist the lane plan
    refuses.
    """
    plan = lane_plan(netlist)
    width = len(values)
    codewords = stage.operand_events
    full = (1 << len(codewords) * width) - 1
    every_port = sum(1 << k * width for k in range(len(codewords)))  # lane 0 of each port

    def lanes(bits: Iterable[int]) -> int:
        """The lanes, under every withheld port, of the values whose bit is set."""
        return sum(bit << v for v, bit in enumerate(bits)) * every_port

    reset_words = [full * level for level in stage.reset_levels]
    words = reset_words.copy()
    spacer = full * netlist.protocol.spacer_level
    n = len(stage.a_ports)
    operands = [a | b << n for a, b in values]
    # data phase: every operand rail but the withheld port's takes its codeword
    driven = []
    for i, (zero, one) in enumerate(codewords):
        ones = lanes(word >> i & 1 for word in operands)
        withheld = ((1 << width) - 1) << i * width
        for (net, level0), (_, level1) in zip(zero, one):
            word = (full * level1 & ones) | (full * level0 & ~ones)
            driven.append((net, word))
            words[net] = (word & ~withheld) | (words[net] & withheld)
    net, level = stage.phase_active
    words[net] = full * level
    plan.settle(words)
    ack = netlist.ack_out
    failed = words[ack] ^ spacer  # completion asserted with a bit withheld
    complete = full
    for r1, r0 in stage.out_rails:
        complete &= (words[r1] ^ spacer) | (words[r0] ^ spacer)
    failed |= complete  # every product bit completed with a bit withheld

    for net, word in driven:  # the withheld bits arrive
        words[net] = word
    plan.settle(words)
    failed |= words[ack] ^ spacer ^ full  # completion missing with all inputs
    products = [a * b for a, b in values]
    for i, (r1, r0) in enumerate(stage.out_rails):
        failed |= words[r1] ^ words[r0] ^ full  # a product port incomplete
        # a codeword's true rail is off spacer exactly for bit 1
        failed |= words[r1] ^ spacer ^ lanes(p >> i & 1 for p in products)  # a wrong product
    failed |= lanes(p >> len(stage.out_rails) != 0 for p in products)  # wider than the ports
    moved = plan.flip(words, full)

    for net, level in stage.spacer_events:
        words[net] = full * level
    plan.settle(words)
    moved |= plan.flip(words, full)
    for word, reset_word in zip(words, reset_words):
        failed |= word ^ reset_word  # no return to reset

    if moved & ~failed:
        return 0
    return (failed & -failed).bit_length() - 1 if failed else None


# -- monotonicity / hazards ------------------------------------------------


_TIME, _NET, _LEVEL = itemgetter(0), itemgetter(1), itemgetter(2)

#: The input level that fires a merge gate, by kind: rising for OR, falling for AND.
_FIRING_LEVEL = {k: int(f == F_OR) for k, f in FAMILY.items() if f in (F_OR, F_AND)}

#: The merge-gate entry of a net that feeds no AND or OR gate.
_NO_MERGE: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())


def _merge_gates(netlist: Netlist) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per net and level, the merge gates a transition of the net to that level fires.

    ``merge[net][level]``: OR gates fire on a rising input, AND gates on a
    falling one, and a gate is listed once per input pin it has on the net.
    Nets that feed no merge gate share one empty entry.
    """
    fired: dict[int, tuple[list[int], list[int]]] = {}
    for g in netlist.gates:
        level = _FIRING_LEVEL.get(g.kind)
        if level is None:
            continue
        for n in g.inputs:
            entry = fired.get(n)
            if entry is None:
                entry = fired[n] = ([], [])
            entry[level].append(g.id)
    merge = [_NO_MERGE] * netlist.net_count
    for n, (fall, rise) in fired.items():
        merge[n] = (tuple(fall), tuple(rise))
    return merge


def _acts_once(trace: Sequence[tuple], spacer_start: int, merge: list) -> bool:
    """True when ``trace`` keeps the net and merge rules (module docstring).

    Per phase window, one set pass over its nets and one over the merge
    gates its transitions fire (looked up by net, then level).  False also
    for a trace whose events are not split in time order at
    ``spacer_start``, which is left to the event loop.
    """
    k = bisect_left(trace, spacer_start, key=_TIME)
    data, spacer = trace[:k], trace[k:]
    if (data and max(map(_TIME, data)) >= spacer_start) or (
            spacer and min(map(_TIME, spacer)) < spacer_start):
        return False
    for window in (data, spacer):
        nets = list(map(_NET, window))
        if len(set(nets)) != len(nets):
            return False
        fired = list(itertools.chain.from_iterable(
            map(getitem, map(merge.__getitem__, nets), map(_LEVEL, window))))
        if len(set(fired)) != len(fired):
            return False
    return True


def check_monotonicity(netlist: Netlist, reports: Sequence[CycleReport]) -> CheckOutcome:
    """Every net and every merge gate must act once per handshake phase.

    The net and merge rules of the module docstring, over traced cycles.
    Each cycle is first screened with set passes over each phase window's
    nets and the merge gates they fire; only a cycle that fails the screen
    is walked event by event, to report its first violation.  A report that
    is not a traced :class:`~qdimul.harness.CycleReport` raises ``ValueError``
    when the walk reaches it.
    """
    name = "monotonicity"
    if not reports:
        raise ValueError("reports must hold at least one cycle report")
    merge = netlist._derived("verify.merge_gates", _merge_gates)
    scenarios = 0
    for idx, r in enumerate(reports):
        if not isinstance(r, CycleReport):
            raise ValueError(f"reports must hold CycleReports, got {r!r}")
        if r.trace is None:
            raise ValueError("check_monotonicity needs cycle reports with traces")
        if _acts_once(r.trace, r.spacer_start, merge):
            scenarios += 1
            continue
        net_seen: dict[tuple[int, int], int] = {}
        merge_seen: dict[tuple[int, int], int] = {}
        for t, net, level, _cause in r.trace:
            w = 0 if t < r.spacer_start else 1
            key = (net, w)
            net_seen[key] = net_seen.get(key, 0) + 1
            if net_seen[key] > 1:
                stim = {"a": r.a, "b": r.b, "cycle": idx, "phase": w}
                return _fail(name, netlist, stim, None,
                             f"net {net} changed twice in one phase (t={t})",
                             "one transition per net per phase", scenarios, r.trace)
            for gid in merge[net][level]:
                gkey = (gid, w)
                merge_seen[gkey] = merge_seen.get(gkey, 0) + 1
                if merge_seen[gkey] > 1:
                    stim = {"a": r.a, "b": r.b, "cycle": idx, "phase": w}
                    return _fail(
                        name, netlist, stim, None,
                        f"merge gate {gid} got a second firing input (net {net}, t={t})",
                        "disjoint merges: one firing input per phase",
                        scenarios, r.trace)
        scenarios += 1
    return CheckOutcome(name, True,
                        f"all transitions acknowledged across {scenarios} cycles", scenarios)


# -- delay insensitivity -----------------------------------------------------


def check_delay_insensitivity(
    netlist: Netlist,
    pairs: Sequence[tuple[int, int]] | None = None,
    seeds: Iterable[int] | int = 8,
    samples: int = 16,
    seed: int = 0,
) -> CheckOutcome:
    """Behaviour must not depend on gate delays.

    Runs the same operand sequence under unit delays and under per-gate
    random delays in [1, 20] for each of ``seeds``.  Every run must produce the oracle
    products, keep every port on the data/spacer alternation, and stay
    monotonic per phase.  Cycle times may and do differ; that is the point.

    The timed lanes (:func:`~qdimul.settle.run_cycles`) decide every pair
    and model at once: they return only cycles that keep all of these
    rules, with the engine's cycle times.  When they refuse, the serial loop
    below runs every model and pair on the traced engine from the start.
    """
    name = "delay_insensitivity"
    _require_counts(samples, seeds, seed)
    pairs = (sample_pairs(len(_Stage.of(netlist).a_ports), samples, seed) if pairs is None
             else _listed(pairs))
    if isinstance(seeds, int):
        seeds = range(seeds)
    models = [DelayModel.unit()]
    models += [DelayModel.random_per_gate(1, 20, s) for s in seeds]
    try:
        lanes = run_cycles(netlist, pairs, models)
    except NotSettleableError:
        lanes = None
    if lanes is not None:
        cycle_times = {r.cycle for reports in lanes for r in reports}
        scenarios = len(models) * len(pairs)
        return _di_passed(name, scenarios, len(models), cycle_times)
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
    return _di_passed(name, scenarios, len(models), cycle_times)


def _di_passed(name: str, scenarios: int, models: int, cycle_times: set[int]) -> CheckOutcome:
    """:func:`check_delay_insensitivity`'s passing outcome."""
    detail = (f"{scenarios} cycles over {models} delay models agree with the oracle; "
              f"{len(cycle_times)} distinct cycle times observed")
    return CheckOutcome(name, True, detail, scenarios,
                        stats={"models": models, "cycle_times": sorted(cycle_times)})


# -- protocol duality ----------------------------------------------------------


def check_duality(
    netlist: Netlist,
    pairs: Sequence[tuple[int, int]] | None = None,
    samples: int = 32,
    seed: int = 0,
) -> CheckOutcome:
    """The polarity-flipped twin must behave identically.

    Structural half: flipping twice must reproduce the original netlist
    exactly.  Behavioural half: the flipped stage must produce the same
    products with the same forward and reverse latencies under unit delays.
    A twin that stalls, shows an ILLEGAL codeword or oscillates fails the
    check with that twin's trace tail.
    """
    name = "duality"
    _require_counts(samples, seed=seed)
    dual = dualize(netlist)
    if dualize(dual) != netlist:
        return _fail(name, netlist, {}, None, "double flip changed the netlist",
                     "polarity flip is an involution", 0)
    pairs = (sample_pairs(len(_Stage.of(netlist).a_ports), samples, seed) if pairs is None
             else _listed(pairs))
    h1 = Harness(netlist)
    h2 = Harness(dual)
    scenarios = 0
    for a, b in pairs:
        stim = {"a": a, "b": b}
        h = h1
        try:
            r1 = h1.run_cycle(a, b)
            h = h2
            r2 = h2.run_cycle(a, b)
        except HANDSHAKE_ERRORS as exc:
            return _fail(name, netlist, {**stim, "protocol": h.netlist.protocol.value},
                         None, f"{type(exc).__name__}: {exc}", "clean handshake cycle",
                         scenarios, h.state.trace)
        if r1.product != r2.product:
            return _fail(name, netlist, stim, None,
                         f"products differ ({r1.product} vs {r2.product})",
                         "identical products", scenarios)
        if (r1.forward, r1.reverse) != (r2.forward, r2.reverse):
            return _fail(name, netlist, stim, None,
                         f"latencies differ ({r1.forward}/{r1.reverse} vs "
                         f"{r2.forward}/{r2.reverse})",
                         "mirrored timing under unit delays", scenarios)
        scenarios += 1
    return CheckOutcome(name, True,
                        f"flip is an involution; {scenarios} cycles behave identically",
                        scenarios)


# -- racing environment --------------------------------------------------------

#: Ticks between an acknowledge edge and the racing environment's next phase.
_RACE_GAP = 1


def check_race_immunity(
    netlist: Netlist,
    pairs: Sequence[tuple[int, int]] | None = None,
    samples: int = 16,
    seed: int = 0,
) -> CheckOutcome:
    """The stage must survive an environment that never waits for quiescence.

    Under unit delays, phases switch one tick after each acknowledge edge, so
    transitions still in flight from the previous phase race the next one.
    A correct quasi-delay-insensitive stage still yields oracle products and
    legal codewords; stages with skewed forks leak stale transitions across
    phase boundaries and fail here.
    """
    name = "race_immunity"
    _require_counts(samples, seed=seed)
    harness = Harness(netlist)
    pairs = sample_pairs(harness.n, samples, seed) if pairs is None else _listed(pairs)
    stim = {"pairs": pairs, "gap": _RACE_GAP}
    try:
        result = harness.run_burst(pairs, gap=_RACE_GAP)
    except HANDSHAKE_ERRORS as exc:
        return _fail(name, netlist, stim, None, f"{type(exc).__name__}: {exc}",
                     "completed burst", 0, harness.state.trace)
    if result.illegal:
        t, pname = result.illegal[0]
        return _fail(name, netlist, stim, None, f"port {pname} decoded ILLEGAL at t={t}",
                     "legal codewords throughout the burst", 0, result.trace)
    for idx, r in enumerate(result.reports):
        if r.product != r.a * r.b:
            return _fail(name, netlist, {"a": r.a, "b": r.b, "cycle": idx, "gap": _RACE_GAP},
                         None, f"product {r.product}", f"product {r.a * r.b}",
                         idx, result.trace)
    return CheckOutcome(name, True, f"{len(result.reports)} back-to-back cycles stay "
                        f"clean at gap={_RACE_GAP}", len(result.reports))


#: The standard stage verification battery, cheapest checks first: check
#: name -> checker called as ``check(netlist, seeds, samples, seed)``.
BATTERY = {
    "functional": lambda nl, seeds, samples, seed: check_functional(
        nl, samples=samples, seed=seed),
    "stage_indication": lambda nl, seeds, samples, seed: check_stage_indication(
        nl, seed=seed),
    "duality": lambda nl, seeds, samples, seed: check_duality(
        nl, samples=min(samples, 16), seed=seed),
    "race_immunity": lambda nl, seeds, samples, seed: check_race_immunity(
        nl, samples=min(samples, 8), seed=seed),
    "delay_insensitivity": lambda nl, seeds, samples, seed: check_delay_insensitivity(
        nl, seeds=seeds, samples=min(samples, 8), seed=seed),
}


def run_all_checks(
    netlist: Netlist,
    seeds: int = 4,
    samples: int = 16,
    seed: int = 0,
) -> list[CheckOutcome]:
    """The standard stage verification battery, :data:`BATTERY`, in order."""
    _require_counts(samples, seeds, seed)
    return [check(netlist, seeds, samples, seed) for check in BATTERY.values()]


# -- negative controls ---------------------------------------------------------


def _mutated(netlist: Netlist, tag: str, **overrides) -> Netlist:
    fields = {k: getattr(netlist, k) for k in (
        "protocol", "gates", "input_ports", "output_ports", "ack_out", "ack_in",
        "const_nets", "phase_net", "extra_inputs")}
    fields["meta"] = {**netlist.meta, "mutation": tag}
    return Netlist(**{**fields, **overrides})


def swap_port_rails(netlist: Netlist, port_name: str | None = None) -> Netlist:
    """Negative control: cross the rails of one output port.

    The circuit still completes and still handshakes, but the affected bit
    reads inverted whenever it carries a one, so :func:`check_functional`
    must fail.
    """
    outs = list(netlist.output_ports)
    if port_name is None:
        port_name = outs[0].name
    swapped = []
    found = False
    for p in outs:
        if p.name == port_name:
            swapped.append(DualRailPort(p.name, p.rail0, p.rail1, p.direction))
            found = True
        else:
            swapped.append(p)
    if not found:
        raise ValueError(f"no output port named {port_name!r}")
    return _mutated(netlist, f"swap_port_rails:{port_name}", output_ports=swapped)


def narrow_completion(netlist: Netlist, port_name: str | None = None) -> Netlist:
    """Negative control: completion watches a single output bit.

    ``ack_out`` is rewired to the detector's collector for one port, so it
    asserts as soon as that bit completes, no longer indicating the other
    inputs; :func:`check_stage_indication` must fail.
    """
    outs = netlist.output_ports
    if port_name is None:
        port_name = outs[0].name
    port = next((p for p in outs if p.name == port_name), None)
    if port is None:
        raise ValueError(f"no output port named {port_name!r}")
    rails = {port.rail1, port.rail0}
    collector = None
    for g in netlist.gates:
        if g.kind in (GateKind.OR2, GateKind.AND2) and set(g.inputs) == rails:
            collector = g
            break
    if collector is None:
        raise ValueError(f"no completion collector found for port {port_name!r}")
    return _mutated(netlist, f"narrow_completion:{port_name}", ack_out=collector.output)


def inject_fork_skew(
    netlist: Netlist,
    net: int,
    consumer_gate: int,
    stages: int = 8,
) -> Netlist:
    """Negative control: delay one branch of a forking net.

    Inserts a chain of identity gates (OR2 with both inputs tied) between
    ``net`` and one of its consumers, modelling a wire branch that is much
    slower than its siblings.  This violates the matched-fork assumption the
    design relies on; under a racing environment stale transitions cross
    phase boundaries and :func:`check_race_immunity` must fail.
    """
    _require_count("stages", stages, 1)
    gate = netlist.gate_by_id.get(consumer_gate)
    if gate is None:
        raise ValueError(f"no gate with id {consumer_gate}")
    if net not in gate.inputs:
        raise ValueError(f"net {net} does not feed gate {consumer_gate}")
    if len(netlist.net(net).fanout) < 2:
        raise ValueError(f"net {net} does not fork")
    level = netlist.reset_levels()[net]
    next_net = netlist.net_count
    next_gate = max(g.id for g in netlist.gates) + 1
    gates = list(netlist.gates)
    prev = net
    for k in range(stages):
        out = next_net + k
        gates.append(Gate(next_gate + k, GateKind.OR2, (prev, prev), out, level))
        prev = out
    for i, g in enumerate(gates):
        if g.id == consumer_gate:
            new_inputs = tuple(prev if x == net else x for x in g.inputs)
            gates[i] = Gate(g.id, g.kind, new_inputs, g.output, g.reset)
            break
    tag = f"fork_skew:net{net}->gate{consumer_gate}x{stages}"
    return _mutated(netlist, tag, gates=gates)
