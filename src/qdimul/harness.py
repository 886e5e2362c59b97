"""Four-phase handshake environment around a generated multiplier stage.

A cycle has two halves.  Data phase: the environment encodes both operands
onto the input rails (together with the constants' phase line), the stage
computes, and the completion detector asserts ``ack_out`` once every product
bit holds a codeword.  Spacer phase: the environment withdraws to spacers
and completion releases, restoring the exact reset state.  ``ack_in`` is the
complement of ``ack_out`` and is maintained by the simulator's zero-delay
environment inverter.

Forward latency is measured from the instant the operand rails are applied
to the completion assert edge; reverse latency from spacer application to
the release edge.  Cycle time is their sum.  The harness waits for full
quiescence before switching phases, which is the conservative contract the
checkers rely on; :meth:`Harness.run_burst` offers an impatient environment
(next phase right after the acknowledge edge) for race experiments.  Every
run is bounded by the engine's ``DEFAULT_GUARD``, and a cycle that fails
raises one of :data:`HANDSHAKE_ERRORS`.

Each phase is one :meth:`SimState.set_primaries` call.  Its events come
from tables built once per stage and kept on the netlist: every operand
port's two codeword event pairs, and the spacer phase's events with the
phase net.  The end-of-cycle checks decode the product through an int bit
table and compare the net levels with the reset state first, walking the
product ports only to name a failure.

Observation costs what the caller needs.  The acknowledge edges come from
the engine's record of ``ack_out`` transitions (``SimState.ack_edges``),
not from a search of the trace.  The ILLEGAL check first collects the port
rails that moved in the trace: a port that starts at SPACER can only decode
ILLEGAL once both of its rails have moved, so the full port scan
(:func:`scan_port_changes`) runs only when such a port moved both rails or a
port that starts elsewhere moved at all.  A healthy handshake cycle moves
one rail per port and is never scanned.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from itertools import compress, islice
from operator import itemgetter
from statistics import fmean
from typing import IO, Iterable, Sequence

from .netlist import DualRailPort, DualRailValue, Netlist, Protocol, encode
from .sim import DelayModel, NonQuiescentError, SimState, Trace, reset


class IllegalOutputError(RuntimeError):
    """A dual-rail port exposed the forbidden rail combination."""

    code = "ILLEGAL_OUTPUT"


class StuckPhaseError(RuntimeError):
    """A handshake phase ended without the expected completion edge."""

    code = "STUCK_PHASE"


#: What a failed handshake raises: a stall, an ILLEGAL decode or no quiescence.
HANDSHAKE_ERRORS = (StuckPhaseError, IllegalOutputError, NonQuiescentError)


class EmptyReportsError(ValueError):
    code = "EMPTY"


class NotAStageError(ValueError):
    """The netlist lacks the operand and product metadata of a generated stage."""

    code = "NOT_A_STAGE"


@dataclass(frozen=True, slots=True)
class CycleReport:
    """Result of one full data/spacer handshake cycle."""

    a: int
    b: int
    product: int
    forward: int
    reverse: int
    cycle: int
    transitions: int
    data_start: int
    spacer_start: int
    end: int
    trace: Trace | None = None

    def __init__(self, a: int, b: int, product: int, forward: int, reverse: int, cycle: int,
                 transitions: int, data_start: int, spacer_start: int, end: int,
                 trace: Trace | None = None) -> None:
        # Each slot's own setter, as for netlist.Gate: the generated frozen
        # __init__ calls object.__setattr__ per field.
        _SET_A(self, a)
        _SET_B(self, b)
        _SET_PRODUCT(self, product)
        _SET_FORWARD(self, forward)
        _SET_REVERSE(self, reverse)
        _SET_CYCLE(self, cycle)
        _SET_TRANSITIONS(self, transitions)
        _SET_DATA_START(self, data_start)
        _SET_SPACER_START(self, spacer_start)
        _SET_END(self, end)
        _SET_TRACE(self, trace)


(_SET_A, _SET_B, _SET_PRODUCT, _SET_FORWARD, _SET_REVERSE, _SET_CYCLE, _SET_TRANSITIONS,
 _SET_DATA_START, _SET_SPACER_START, _SET_END, _SET_TRACE) = (
    CycleReport.__dict__[f.name].__set__ for f in fields(CycleReport))


@dataclass(frozen=True)
class LatencySummary:
    cycles: int
    forward_min: int
    forward_max: int
    forward_mean: float
    reverse_min: int
    reverse_max: int
    reverse_mean: float
    cycle_min: int
    cycle_max: int
    cycle_mean: float
    forward_equals_reverse: bool


@dataclass
class BurstResult:
    """Outcome of an impatient multi-cycle run (race experiments)."""

    reports: list[CycleReport]
    trace: Trace
    windows: list[tuple[int, int, int]]
    illegal: list[tuple[int, str]] = field(default_factory=list)


def stage_ports(
    netlist: Netlist,
) -> tuple[list[DualRailPort], list[DualRailPort], list[DualRailPort]]:
    """Operand ``a``, operand ``b`` and product ports of a stage, LSB first."""
    meta = netlist.meta
    if "operands" not in meta or "products" not in meta:
        raise NotAStageError("not a multiplier stage: the netlist has no operand metadata")
    by_name = {p.name: p for p in netlist.ports}
    try:
        return ([by_name[nm] for nm in meta["operands"]["a"]],
                [by_name[nm] for nm in meta["operands"]["b"]],
                [by_name[nm] for nm in meta["products"]])
    except (KeyError, TypeError) as exc:
        raise NotAStageError(f"malformed stage port metadata: {exc!r}") from None


def _codes(protocol: Protocol) -> dict:
    """``(rail1, rail0)`` levels for bit 0, bit 1 and the spacer (None)."""
    spacer = protocol.spacer_level
    return {0: encode(0, protocol), 1: encode(1, protocol), None: (spacer, spacer)}


# two names rather than a dict: hashing an Enum member runs Python code, and
# on Python 3.11 so does reading one off its class
_RTZ = Protocol.RTZ
_RTZ_CODES, _RTO_CODES = _codes(Protocol.RTZ), _codes(Protocol.RTO)


def drive(
    state: SimState,
    ports: Sequence[DualRailPort],
    bits: Sequence[int | None],
    t: int | None = None,
) -> None:
    """Put the codeword of each bit, or the spacer for None, on its port's rails.

    ``bits[i]`` goes to ``ports[i]``, rail1 then rail0, in one
    :meth:`SimState.set_primaries` call.  A bad bit, or a count of bits
    other than the count of ports, raises ``ValueError`` before anything is
    scheduled.
    """
    codes = _RTZ_CODES if state.netlist.protocol is _RTZ else _RTO_CODES
    if len(ports) != len(bits):
        raise ValueError(f"{len(ports)} ports but {len(bits)} bits")
    events = []
    i = 0  # an index costs less than zip() for the one port most calls pass
    for port in ports:
        bit = bits[i]
        try:
            r1, r0 = codes[bit]
        except (KeyError, TypeError):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}") from None
        events.append((port.rail1, r1))
        events.append((port.rail0, r0))
        i += 1
    state.set_primaries(events, t)


def _port_masks(netlist: Netlist) -> dict[int, tuple[tuple[int, int], ...]]:
    """Each rail net -> ``(port index, mask)`` of every port it belongs to.

    A port's code is ``2 * rail1 + rail0``; ``mask`` holds the code bits
    the rail sets (2 for rail1, 1 for rail0, 3 for a port whose rails are
    one net).  Built once and kept on the netlist.
    """
    def build(nl: Netlist) -> dict[int, tuple[tuple[int, int], ...]]:
        masks: dict[int, dict[int, int]] = {}
        for i, p in enumerate(nl.ports):
            for rail, mask in ((p.rail1, 2), (p.rail0, 1)):
                of_rail = masks.setdefault(rail, {})
                of_rail[i] = of_rail.get(i, 0) | mask
        return {rail: tuple(of_rail.items()) for rail, of_rail in masks.items()}

    return netlist._derived("harness.port_masks", build)


def scan_port_changes(
    netlist: Netlist,
    base_levels: Sequence[int],
    trace: Iterable[tuple],
) -> dict[str, list[tuple[int, DualRailValue]]]:
    """Decode every port's codeword timeline out of a trace.

    Returns, per port name, the list of (time, value) points where the
    decoded value changed.  The caller supplies the net levels the trace
    starts from (usually the reset levels).  Each port is kept as its 2-bit
    code, and a rail event sets its bits to the event's level.
    """
    table, masks = netlist.decode_table, _port_masks(netlist)
    ports = netlist.ports
    codes = [2 * base_levels[p.rail1] + base_levels[p.rail0] for p in ports]
    changes: dict[str, list[tuple[int, DualRailValue]]] = {p.name: [] for p in ports}
    points = [changes[p.name] for p in ports]
    if not isinstance(trace, list):
        trace = list(trace)
    on_rail = map(masks.__contains__, map(itemgetter(1), trace))
    # the four codes decode to four distinct values, so a value changes
    # exactly when its code does
    for t, net, level, _cause in compress(trace, on_rail):
        for i, mask in masks[net]:
            old = codes[i]
            code = old | mask if level else old & ~mask
            if code != old:
                codes[i] = code
                points[i].append((t, table[code]))
    return changes


class _Stage:
    """What a :class:`Harness` needs from one stage, built once per netlist.

    The environment's events per operand port and bit (``(net, level)``
    pairs, rail1 then rail0), the spacer phase's events, and the tables of
    the end-of-cycle checks and the ILLEGAL screen.  Nothing here is mutated
    after construction.
    """

    def __init__(self, netlist: Netlist):
        a_ports, b_ports, out_ports = stage_ports(netlist)
        protocol = netlist.protocol
        codes = _RTZ_CODES if protocol is _RTZ else _RTO_CODES

        def events(p: DualRailPort, bit: int | None) -> tuple[tuple[int, int], ...]:
            r1, r0 = codes[bit]
            return (p.rail1, r1), (p.rail0, r0)

        self.a_events = [(events(p, 0), events(p, 1)) for p in a_ports]
        self.b_events = [(events(p, 0), events(p, 1)) for p in b_ports]
        self.phase_active = (netlist.phase_net, protocol.active_level)
        self.spacer_events = [e for p in (*a_ports, *b_ports) for e in events(p, None)]
        self.spacer_events.append((netlist.phase_net, protocol.spacer_level))

        self.reset_levels = lv = netlist.reset_levels()
        self.decode = table = netlist.decode_table
        self.bit_of = [v.bit for v in table]
        self.out_rails = [(p.rail1, p.rail0) for p in out_ports]
        # the ILLEGAL screen: every port rail, the (rail1, rail0) pairs of
        # ports at SPACER in the reset state, and the rails of all others
        self.rails = frozenset(r for p in netlist.ports for r in (p.rail1, p.rail0))
        at_spacer = [table[2 * lv[p.rail1] + lv[p.rail0]] is DualRailValue.SPACER
                     for p in netlist.ports]
        self.spacer_pairs = [frozenset((p.rail1, p.rail0))
                             for p, sp in zip(netlist.ports, at_spacer) if sp]
        self.hot_rails = frozenset(r for p, sp in zip(netlist.ports, at_spacer) if not sp
                                   for r in (p.rail1, p.rail0))
        # the reset state passes the end-of-cycle port check
        self.outs_reset_spacer = all(table[2 * lv[r1] + lv[r0]] is DualRailValue.SPACER
                                     for r1, r0 in self.out_rails)


class Harness:
    """Drives a generated multiplier stage through handshake cycles."""

    def __init__(self, netlist: Netlist, delay_model: DelayModel | None = None):
        self.a_ports, self.b_ports, self.out_ports = stage_ports(netlist)
        if netlist.ack_out is None or netlist.ack_in is None or netlist.phase_net is None:
            raise ValueError("harness requires ack_out, ack_in and a phase net")
        self.netlist = netlist
        self.state: SimState = reset(netlist, delay_model)
        self.n = len(self.a_ports)
        self._ack = netlist.ack_out
        self._active = netlist.protocol.active_level
        self._spacer = netlist.protocol.spacer_level
        self._stage: _Stage = netlist._derived("harness.stage", _Stage)

    # -- phase primitives ----------------------------------------------------

    def _apply_operands(self, a: int, b: int, t: int) -> None:
        stage = self._stage
        events: list[tuple[int, int]] = []
        for codewords in stage.a_events:
            events += codewords[a & 1]
            a >>= 1
        for codewords in stage.b_events:
            events += codewords[b & 1]
            b >>= 1
        events.append(stage.phase_active)
        self.state.set_primaries(events, t)

    def _apply_spacer(self, t: int) -> None:
        self.state.set_primaries(self._stage.spacer_events, t)

    def _ack_edge(self, start: int, level: int, what: str) -> int:
        """Time of the first ``ack_out`` edge to ``level`` from edge ``start`` on."""
        for t, lv in islice(self.state.ack_edges, start, None):
            if lv == level:
                return t
        raise StuckPhaseError(f"completion never {what} (ack_out stayed put)")

    def _decode_product(self) -> int:
        levels, stage = self.state.levels, self._stage
        bit_of = stage.bit_of
        value = 0
        for i, (r1, r0) in enumerate(stage.out_rails):
            bit = bit_of[2 * levels[r1] + levels[r0]]
            if bit is None:
                p = self.out_ports[i]
                if stage.decode[2 * levels[r1] + levels[r0]] is DualRailValue.ILLEGAL:
                    raise IllegalOutputError(f"product port {p.name} decodes ILLEGAL")
                raise StuckPhaseError(f"product port {p.name} still at spacer after completion")
            value |= bit << i
        return value

    def _check_reset(self) -> None:
        """Raise unless the spacer phase restored the reset state.

        A product port off SPACER is named first; the ports are walked only
        when the levels differ from the reset state, or when some product
        port is off SPACER in the reset state itself.
        """
        levels, stage = self.state.levels, self._stage
        if levels == stage.reset_levels and stage.outs_reset_spacer:
            return
        table = stage.decode
        for p, (r1, r0) in zip(self.out_ports, stage.out_rails):
            if table[2 * levels[r1] + levels[r0]] is not DualRailValue.SPACER:
                raise StuckPhaseError(f"port {p.name} failed to return to spacer")
        if levels != stage.reset_levels:
            raise StuckPhaseError("cycle ended away from the reset state")

    def _illegal_points(self, trace: Trace) -> list[tuple[int, str]]:
        """(time, port) of every ILLEGAL decode in ``trace``, port by port.

        Runs the full port scan only when the rails that moved could have
        formed ILLEGAL (see the module docstring); one moving rail cannot.
        """
        stage = self._stage
        moved = stage.rails.intersection(map(itemgetter(1), trace))
        if moved.isdisjoint(stage.hot_rails) and not any(
                map(moved.issuperset, stage.spacer_pairs)):
            return []
        changes = scan_port_changes(self.netlist, stage.reset_levels, trace)
        return [(t, name) for name, points in changes.items()
                for t, val in points if val is DualRailValue.ILLEGAL]

    # -- cycles ----------------------------------------------------------------

    def run_cycle(self, a: int, b: int, want_trace: bool = False) -> CycleReport:
        """One complete data/spacer handshake; returns the measured cycle.

        Raises :class:`StuckPhaseError` if completion never asserts or
        releases, :class:`IllegalOutputError` if any port ever decodes to the
        forbidden rail pair, and propagates ``NonQuiescentError`` from the
        engine on oscillation (together, :data:`HANDSHAKE_ERRORS`).
        """
        limit = 1 << self.n
        if not (0 <= a < limit and 0 <= b < limit):
            raise ValueError(f"operands must fit in {self.n} bits")
        st = self.state
        if not st.quiescent:
            raise StuckPhaseError("cycle started with events still pending")

        t0 = st.clock
        self._apply_operands(a, b, t0)
        st.run_until_quiescent()
        ta = self._ack_edge(0, self._active, "asserted")
        product = self._decode_product()

        t1 = st.clock + 1
        data_edges = len(st.ack_edges)
        self._apply_spacer(t1)
        st.run_until_quiescent()
        tb = self._ack_edge(data_edges, self._spacer, "released")
        self._check_reset()

        trace = st.take_trace()
        illegal = self._illegal_points(trace)
        if illegal:
            t, name = illegal[0]
            raise IllegalOutputError(f"port {name} decodes ILLEGAL at t={t}")
        forward = ta - t0
        reverse = tb - t1
        return CycleReport(
            a=a,
            b=b,
            product=product,
            forward=forward,
            reverse=reverse,
            cycle=forward + reverse,
            transitions=len(trace),
            data_start=t0,
            spacer_start=t1,
            end=st.clock,
            trace=trace if want_trace else None,
        )

    def run_sequence(
        self, pairs: Iterable[tuple[int, int]], want_traces: bool = False
    ) -> list[CycleReport]:
        """Run consecutive cycles, threading circuit state between them."""
        return [self.run_cycle(a, b, want_trace=want_traces) for a, b in pairs]

    def run_burst(self, pairs: Sequence[tuple[int, int]], gap: int = 1) -> BurstResult:
        """Impatient environment: switch phases right after the ack edge.

        A correct quasi-delay-insensitive stage tolerates this -- that is the
        entire point of the discipline.  Netlists with broken isochronic
        forks or unacknowledged transitions can be caught mid-flight here,
        which the fully patient :meth:`run_cycle` would mask by waiting for
        global quiescence.  Port codeword violations are collected rather
        than raised.  Cycles overlap in time, so a report's ``transitions``
        counts the trace's events from its data start up to the next
        cycle's; the last cycle takes the rest, and the counts sum to the
        length of the returned trace.
        """
        st = self.state
        if not st.quiescent:
            raise StuckPhaseError("burst started with events still pending")
        cycles: list[tuple[int, int, int, int]] = []  # (a, b, product, ack edge)
        windows: list[tuple[int, int, int]] = []
        origin = len(st.trace)
        for a, b in pairs:
            t0 = st.clock if not windows else st.clock + gap
            self._apply_operands(a, b, t0)
            st.run_until_quiescent(stop_net=self._ack, stop_level=self._active)
            if st.levels[self._ack] != self._active:
                raise StuckPhaseError("completion never asserted during burst")
            ta = st.clock
            product = self._decode_product()
            t1 = ta + gap
            self._apply_spacer(t1)
            st.run_until_quiescent(stop_net=self._ack, stop_level=self._spacer)
            if st.levels[self._ack] != self._spacer:
                raise StuckPhaseError("completion never released during burst")
            cycles.append((a, b, product, ta))
            windows.append((t0, t1, st.clock))
        st.run_until_quiescent()
        trace = st.trace[origin:]
        illegal = sorted(self._illegal_points(trace))
        st.take_trace()
        cuts = [bisect_left(trace, t0, key=itemgetter(0)) for t0, _, _ in windows]
        cuts.append(len(trace))
        reports = [
            CycleReport(
                a=a, b=b, product=product,
                forward=ta - t0, reverse=tb - t1, cycle=(ta - t0) + (tb - t1),
                transitions=cuts[k + 1] - cuts[k],
                data_start=t0, spacer_start=t1, end=tb,
            )
            for k, ((a, b, product, ta), (t0, t1, tb)) in enumerate(zip(cycles, windows))
        ]
        return BurstResult(reports=reports, trace=trace, windows=windows, illegal=illegal)


def measure_latencies(reports: Sequence[CycleReport]) -> LatencySummary:
    """Aggregate latency statistics over a batch of cycle reports."""
    if not reports:
        raise EmptyReportsError("no cycle reports to summarize")
    fwd = [r.forward for r in reports]
    rev = [r.reverse for r in reports]
    cyc = [r.cycle for r in reports]
    return LatencySummary(
        cycles=len(reports),
        forward_min=min(fwd), forward_max=max(fwd), forward_mean=fmean(fwd),
        reverse_min=min(rev), reverse_max=max(rev), reverse_mean=fmean(rev),
        cycle_min=min(cyc), cycle_max=max(cyc), cycle_mean=fmean(cyc),
        forward_equals_reverse=all(f == r for f, r in zip(fwd, rev)),
    )


#: The fields of a :class:`CycleReport` that its CSV and JSON exports carry.
REPORT_COLUMNS = ("a", "b", "product", "forward", "reverse", "cycle", "transitions")


def cycle_report_rows(reports: Iterable[CycleReport]) -> list[dict]:
    """One dict of :data:`REPORT_COLUMNS` per report."""
    return [{c: getattr(r, c) for c in REPORT_COLUMNS} for r in reports]


def write_cycle_reports_csv(reports: Iterable[CycleReport], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in cycle_report_rows(reports):
        writer.writerow(row.values())


def cycle_reports_json(reports: Iterable[CycleReport]) -> str:
    return json.dumps(cycle_report_rows(reports), indent=1, sort_keys=True) + "\n"
