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
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
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


# two names rather than a dict: hashing an Enum member runs Python code
_RTZ_CODES, _RTO_CODES = _codes(Protocol.RTZ), _codes(Protocol.RTO)


def drive(state: SimState, port: DualRailPort, bit: int | None, t: int | None = None) -> None:
    """Put the codeword of ``bit``, or the spacer for None, on ``port``'s rails."""
    codes = _RTZ_CODES if state.netlist.protocol is Protocol.RTZ else _RTO_CODES
    try:
        r1, r0 = codes[bit]
    except (KeyError, TypeError):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}") from None
    state.set_primary(port.rail1, r1, t)
    state.set_primary(port.rail0, r0, t)


def _port_watchers(netlist: Netlist) -> dict[int, list[tuple[int, int, int]]]:
    """Each rail net -> ``(port index, rail1, rail0)`` of every port it belongs to.

    Built once and kept on the netlist.
    """
    def build(nl: Netlist) -> dict[int, list[tuple[int, int, int]]]:
        watchers: dict[int, list[tuple[int, int, int]]] = {}
        for i, p in enumerate(nl.ports):
            for rail in (p.rail1, p.rail0):
                watchers.setdefault(rail, []).append((i, p.rail1, p.rail0))
        return watchers

    return netlist._derived("harness.port_watchers", build)


def scan_port_changes(
    netlist: Netlist,
    base_levels: Sequence[int],
    trace: Iterable[tuple],
) -> dict[str, list[tuple[int, DualRailValue]]]:
    """Decode every port's codeword timeline out of a trace.

    Returns, per port name, the list of (time, value) points where the
    decoded value changed.  The caller supplies the net levels the trace
    starts from (usually the reset levels).
    """
    table, watchers = netlist.decode_table, _port_watchers(netlist)
    rails = {net: base_levels[net] for net in watchers}
    ports = netlist.ports
    current = [table[2 * rails[p.rail1] + rails[p.rail0]] for p in ports]
    changes: dict[str, list[tuple[int, DualRailValue]]] = {p.name: [] for p in ports}
    if not isinstance(trace, list):
        trace = list(trace)
    on_rail = map(watchers.__contains__, map(itemgetter(1), trace))
    for t, net, level, _cause in compress(trace, on_rail):
        rails[net] = level
        for i, r1, r0 in watchers[net]:
            val = table[2 * rails[r1] + rails[r0]]
            if val is not current[i]:
                current[i] = val
                changes[ports[i].name].append((t, val))
    return changes


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
        self._phase = netlist.phase_net
        self._active = netlist.protocol.active_level
        self._spacer = netlist.protocol.spacer_level
        self._reset_levels = lv = netlist.reset_levels()
        self._decode = table = netlist.decode_table
        # the ILLEGAL screen: every port rail, the (rail1, rail0) pairs of
        # ports at SPACER in the reset state, and the rails of all others
        self._rails = frozenset(r for p in netlist.ports for r in (p.rail1, p.rail0))
        at_spacer = [table[2 * lv[p.rail1] + lv[p.rail0]] is DualRailValue.SPACER
                     for p in netlist.ports]
        self._spacer_pairs = [frozenset((p.rail1, p.rail0))
                              for p, sp in zip(netlist.ports, at_spacer) if sp]
        self._hot_rails = frozenset(r for p, sp in zip(netlist.ports, at_spacer) if not sp
                                    for r in (p.rail1, p.rail0))

    # -- phase primitives ----------------------------------------------------

    def _apply_operands(self, a: int, b: int, t: int) -> None:
        st = self.state
        for ports, value in ((self.a_ports, a), (self.b_ports, b)):
            for i, p in enumerate(ports):
                drive(st, p, (value >> i) & 1, t)
        st.set_primary(self._phase, self._active, t)

    def _apply_spacer(self, t: int) -> None:
        st = self.state
        for p in (*self.a_ports, *self.b_ports):
            drive(st, p, None, t)
        st.set_primary(self._phase, self._spacer, t)

    def _ack_edge(self, start: int, level: int, what: str) -> int:
        """Time of the first ``ack_out`` edge to ``level`` from edge ``start`` on."""
        for t, lv in islice(self.state.ack_edges, start, None):
            if lv == level:
                return t
        raise StuckPhaseError(f"completion never {what} (ack_out stayed put)")

    def _decode_product(self) -> int:
        levels, table = self.state.levels, self._decode
        value = 0
        for i, p in enumerate(self.out_ports):
            v = table[2 * levels[p.rail1] + levels[p.rail0]]
            bit = v.bit
            if bit is None:
                if v is DualRailValue.ILLEGAL:
                    raise IllegalOutputError(f"product port {p.name} decodes ILLEGAL")
                raise StuckPhaseError(f"product port {p.name} still at spacer after completion")
            value |= bit << i
        return value

    def _illegal_points(self, trace: Trace) -> list[tuple[int, str]]:
        """(time, port) of every ILLEGAL decode in ``trace``, port by port.

        Runs the full port scan only when the rails that moved could have
        formed ILLEGAL (see the module docstring); one moving rail cannot.
        """
        moved = self._rails.intersection(map(itemgetter(1), trace))
        if moved.isdisjoint(self._hot_rails) and not any(
                map(moved.issuperset, self._spacer_pairs)):
            return []
        changes = scan_port_changes(self.netlist, self._reset_levels, trace)
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
        levels, table = st.levels, self._decode
        for p in self.out_ports:
            if table[2 * levels[p.rail1] + levels[p.rail0]] is not DualRailValue.SPACER:
                raise StuckPhaseError(f"port {p.name} failed to return to spacer")
        if st.levels != self._reset_levels:
            raise StuckPhaseError("cycle ended away from the reset state")

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
        than raised.
        """
        st = self.state
        if not st.quiescent:
            raise StuckPhaseError("burst started with events still pending")
        reports: list[CycleReport] = []
        windows: list[tuple[int, int, int]] = []
        origin = len(st.trace)
        for a, b in pairs:
            t0 = st.clock if not reports else st.clock + gap
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
            tb = st.clock
            reports.append(
                CycleReport(
                    a=a, b=b, product=product,
                    forward=ta - t0, reverse=tb - t1, cycle=(ta - t0) + (tb - t1),
                    transitions=0,
                    data_start=t0, spacer_start=t1, end=tb,
                )
            )
            windows.append((t0, t1, tb))
        st.run_until_quiescent()
        trace = st.trace[origin:]
        illegal = sorted(self._illegal_points(trace))
        st.take_trace()
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
