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

Each phase is one :meth:`SimState.set_primaries` call.  Every environment
drives ports from one table per netlist, kept on it: each input port's
``(net, level)`` events for bit 0, bit 1 and the spacer (``_input_events``).
A stage's phases take their events from it, once per stage: every operand
port's two codeword event pairs, and the spacer phase's events with the
phase net.  The end-of-cycle checks decode the product through an int bit
table and compare the net levels with the reset state first, walking the
product ports only to name a failure.  A stage's ports are the ones its
metadata names, looked up once in ``Netlist.port_by_name``, the one
name-to-port map; ``validate`` refuses a name two ports share.

Observation costs what the caller needs.  The acknowledge edges come from
the engine's record of ``ack_out`` transitions (``SimState.ack_edges``).
The port rule (each port shows one data codeword, then the spacer) is
judged once per cycle from its record of port-rail transitions
(``SimState.port_events``).  After the end-of-cycle check every rail has
moved an even number of times, so a stage whose ports all start at SPACER,
each on two rails of its own, keeps the rule exactly when the events number
twice the rails that moved, those number the ports and no port moved both
rails.  Any other cycle or stage is scanned (:func:`scan_port_changes`):
an ILLEGAL decode raises, and any other break is the report's ``port_fault``.

A handshake is settled once per netlist and delay model.  A cycle that
starts from the reset state, with nothing pending and an empty trace, is a
pure function of the netlist, the delays and the operands, up to a shift
in time: the engine is deterministic and time-invariant (its ``seq``
counter only orders events within one time and net, and its record of each
input's last event time only refuses events before the clock).  So the
cycle record, kept on the netlist per :class:`DelayModel` (equal models
draw equal delays and share it), holds the first untraced report of each
operand pair that ran from that state and returned.  Every such cycle ends
in the reset state again.  An untraced :meth:`Harness.run_cycle` from that
state with a recorded pair simulates nothing: it moves the clock on by the
recorded cycle's length and returns the recorded report shifted to the
current time.  Traced cycles neither read nor write the record, and a cycle
that raised is never stored.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import compress, islice
from operator import itemgetter
from typing import IO, Iterable, Sequence

from .netlist import DualRailValue, Netlist, encode
from .sim import DelayModel, NonQuiescentError, SimState, Trace, reset


class IllegalOutputError(RuntimeError):
    """A dual-rail port exposed the forbidden rail combination."""

    code = "ILLEGAL_OUTPUT"


class StuckPhaseError(RuntimeError):
    """A handshake phase ended without the expected completion edge."""

    code = "STUCK_PHASE"


#: What a failed handshake raises: a stall, an ILLEGAL decode or no quiescence.
HANDSHAKE_ERRORS = (StuckPhaseError, IllegalOutputError, NonQuiescentError)


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
    #: How the cycle broke the port rule, or None (see the module docstring).
    #: Out of ``repr``, equality and hashing: ``tests/golden.py`` digests reprs.
    port_fault: str | None = field(default=None, repr=False, compare=False)


@dataclass
class BurstResult:
    """Outcome of an impatient multi-cycle run (race experiments)."""

    reports: list[CycleReport]
    trace: Trace
    illegal: list[tuple[int, str]] = field(default_factory=list)


#: One input port's ``(net, level)`` events for bit 0, bit 1 and the spacer.
_PortEvents = tuple[tuple[tuple[int, int], ...], ...]


def _input_events(netlist: Netlist) -> tuple[_PortEvents, ...]:
    """The environment's events on every input port, in ``netlist.input_ports`` order.

    Entry ``i`` holds the ``(net, level)`` events that put bit 0, bit 1 and
    the spacer on port ``i``, rail1 then rail0: ``entry[bit]`` drives a bit
    and ``entry[2]`` withdraws it, each in one :meth:`SimState.set_primaries`
    call.  Built once and kept on the netlist; every environment drives
    ports from it.
    """
    def build(nl: Netlist) -> tuple[_PortEvents, ...]:
        spacer = nl.protocol.spacer_level
        codes = (encode(0, nl.protocol), encode(1, nl.protocol), (spacer, spacer))
        return tuple(tuple(((p.rail1, r1), (p.rail0, r0)) for r1, r0 in codes)
                     for p in nl.input_ports)

    return netlist._derived("harness.input_events", build)


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


def _illegal_points(changes: dict[str, list[tuple[int, DualRailValue]]]) -> list[tuple[int, str]]:
    """(time, port) of every ILLEGAL decode in a port scan, port by port."""
    return [(t, name) for name, points in changes.items()
            for t, val in points if val is DualRailValue.ILLEGAL]


class _Stage:
    """How a stage is driven and judged, built once per netlist by :meth:`of`.

    The operand ``a``, operand ``b`` and product ports, LSB first, as the
    stage's port metadata names them; ``operand_events``, the environment's
    events per operand port and bit, the ``a`` ports then the ``b`` ports,
    so entry i drives bit i of ``a | b << n``; the spacer phase's events
    (each port's entries of :func:`_input_events`, the one table every
    environment drives ports from); and the tables of the end-of-cycle
    checks and the port rule.  Four users share it: the
    :class:`Harness`'s cycles, ``verify.check_stage_indication``'s serial
    loop, which withholds one operand port's events at a time, its
    settled-state lanes (``verify._first_failing_lane``), which build every
    scenario's lane words from the same events, and the timed lanes
    (``settle.run_cycles``), which build every pair's.  Nothing here is
    mutated after construction.
    """

    @classmethod
    def of(cls, netlist: Netlist) -> _Stage:
        """The one checked entry: stage ports, handshake nets, ``validate``, then the tables."""
        return netlist._derived("harness.stage", cls)

    def __init__(self, netlist: Netlist):
        meta = netlist.meta
        if "operands" not in meta or "products" not in meta:
            raise NotAStageError("not a multiplier stage: the netlist has no operand metadata")
        try:
            by_name = netlist.port_by_name
            self.a_ports = [by_name[nm] for nm in meta["operands"]["a"]]
            self.b_ports = [by_name[nm] for nm in meta["operands"]["b"]]
            self.out_ports = [by_name[nm] for nm in meta["products"]]
        except (KeyError, TypeError) as exc:
            raise NotAStageError(f"malformed stage port metadata: {exc!r}") from None
        if netlist.ack_out is None or netlist.ack_in is None or netlist.phase_net is None:
            raise ValueError("harness requires ack_out, ack_in and a phase net")
        netlist.require_valid()
        protocol = netlist.protocol
        events = dict(zip(netlist.input_ports, _input_events(netlist)))
        operands = (*self.a_ports, *self.b_ports)
        stray = next((p.name for p in operands if p not in events), None)
        if stray is not None:
            raise NotAStageError(f"malformed stage port metadata: {stray!r} is not an input port")
        self.operand_events = [events[p][:2] for p in operands]
        self.phase_active = (netlist.phase_net, protocol.active_level)
        self.spacer_events = [e for p in operands for e in events[p][2]]
        self.spacer_events.append((netlist.phase_net, protocol.spacer_level))

        self.reset_levels = lv = netlist.reset_levels()
        self.decode = table = netlist.decode_table
        self.bit_of = [v.bit for v in table]
        self.out_rails = [(p.rail1, p.rail0) for p in self.out_ports]
        # each rail's port for the port rule's count, or None (scan every
        # cycle) unless all ports start at SPACER on rails of their own
        rails = [r for p in netlist.ports for r in (p.rail1, p.rail0)]
        self.port_count = len(netlist.ports)
        self.port_of = {r: i // 2 for i, r in enumerate(rails)}
        if len(self.port_of) != len(rails) or any(
                table[2 * lv[p.rail1] + lv[p.rail0]] is not DualRailValue.SPACER
                for p in netlist.ports):
            self.port_of = None
        # the reset state passes the end-of-cycle port check
        self.outs_reset_spacer = all(table[2 * lv[r1] + lv[r0]] is DualRailValue.SPACER
                                     for r1, r0 in self.out_rails)

    def keeps_port_rule(self, events: Trace) -> bool:
        """Whether a cycle's port events, from the reset state back to it, keep the port rule.

        The count of the module docstring: exact where ``port_of`` is set, else False.
        """
        port_of = self.port_of
        if port_of is None:
            return False
        moved = set(map(itemgetter(1), events))
        return (len(events) == 2 * len(moved) == 2 * self.port_count
                and len(set(map(port_of.__getitem__, moved))) == self.port_count)


def _require_operands(n: int, pairs: Iterable[tuple[int, int]]) -> None:
    """Raise ``ValueError`` unless every entry is an ``(a, b)`` tuple or list
    and every operand an int (not a bool) of ``n`` bits."""
    limit = 1 << n
    for pair in pairs:
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise ValueError(f"operand pairs must be (a, b) pairs, got {pair!r}")
        for x in pair:
            if x.__class__ is not int or not 0 <= x < limit:
                raise ValueError(f"operands must be ints in [0, {limit}), got {x!r}")


class Harness:
    """Drives a generated multiplier stage through handshake cycles."""

    def __init__(self, netlist: Netlist, delay_model: DelayModel | None = None):
        self._stage = _Stage.of(netlist)
        self.netlist = netlist
        self.state: SimState = reset(netlist, delay_model)
        self.n = len(self._stage.a_ports)
        self._ack = netlist.ack_out
        self._active = netlist.protocol.active_level
        self._spacer = netlist.protocol.spacer_level
        #: the cycle record (module docstring): model -> (a, b) -> report
        self._records: dict[DelayModel, dict[tuple[int, int], CycleReport]] = (
            netlist._derived("harness.cycles", lambda _nl: {}))

    # -- phase primitives ----------------------------------------------------

    def _apply_operands(self, a: int, b: int, t: int) -> None:
        stage = self._stage
        word = a | b << self.n
        events: list[tuple[int, int]] = []
        for codewords in stage.operand_events:
            events += codewords[word & 1]
            word >>= 1
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
                p = stage.out_ports[i]
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
        for p, (r1, r0) in zip(stage.out_ports, stage.out_rails):
            if table[2 * levels[r1] + levels[r0]] is not DualRailValue.SPACER:
                raise StuckPhaseError(f"port {p.name} failed to return to spacer")
        if levels != stage.reset_levels:
            raise StuckPhaseError("cycle ended away from the reset state")

    def _port_fault(self, events: Trace) -> str | None:
        """How a cycle's port events break the port rule, or None if they keep it.

        Scans only what :meth:`_Stage.keeps_port_rule` cannot clear, and raises
        :class:`IllegalOutputError` for the first ILLEGAL decode, port by port.
        """
        stage = self._stage
        if stage.keeps_port_rule(events):
            return None
        changes = scan_port_changes(self.netlist, stage.reset_levels, events)
        illegal = _illegal_points(changes)
        if illegal:
            t, name = illegal[0]
            raise IllegalOutputError(f"port {name} decodes ILLEGAL at t={t}")
        for name, points in changes.items():
            if (len(points) != 2 or points[0][1].bit is None
                    or points[1][1] is not DualRailValue.SPACER):
                seq = ",".join(v.name for _, v in points) or "none"
                return f"port {name} codeword sequence [{seq}]"
        return None

    # -- cycles ----------------------------------------------------------------

    def run_cycle(self, a: int, b: int, want_trace: bool = False) -> CycleReport:
        """One complete data/spacer handshake; returns the measured cycle.

        Raises :class:`StuckPhaseError` if completion never asserts or
        releases, :class:`IllegalOutputError` if any port ever decodes to the
        forbidden rail pair, and propagates ``NonQuiescentError`` from the
        engine on oscillation (together, :data:`HANDSHAKE_ERRORS`).  Any
        other break of the port rule is the report's ``port_fault``.  An
        operand that is not an int (or is a bool), or does not fit in n bits,
        raises ``ValueError`` before anything is scheduled.  A pair the cycle
        record holds runs without the engine (module docstring).
        """
        _require_operands(self.n, ((a, b),))
        st = self.state
        if not st.quiescent:
            raise StuckPhaseError("cycle started with events still pending")

        t0 = st.clock
        record = None
        if not want_trace and not st.trace and st.levels == self._stage.reset_levels:
            record = self._records.setdefault(st.delay_model, {})
            settled = record.get((a, b))
            if settled is not None:
                shift = t0 - settled.data_start
                st.clock = settled.end + shift
                return replace(settled, data_start=t0, spacer_start=settled.spacer_start + shift,
                               end=st.clock)

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

        try:
            port_fault = self._port_fault(st.port_events)
        finally:
            trace = st.take_trace()
        forward = ta - t0
        reverse = tb - t1
        report = CycleReport(
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
            port_fault=port_fault,
        )
        if record is not None:
            record[a, b] = report
        return report

    def run_sequence(
        self, pairs: Iterable[tuple[int, int]], want_traces: bool = False
    ) -> list[CycleReport]:
        """Run consecutive cycles, threading circuit state between them.

        Every pair is checked as in :meth:`run_cycle` before the first cycle runs.
        """
        pairs = list(pairs)
        _require_operands(self.n, pairs)
        return [self.run_cycle(a, b, want_trace=want_traces) for a, b in pairs]

    def run_burst(self, pairs: Sequence[tuple[int, int]], gap: int = 1) -> BurstResult:
        """Impatient environment: switch phases right after the ack edge.

        A correct quasi-delay-insensitive stage tolerates this -- that is the
        entire point of the discipline.  Netlists with broken isochronic
        forks or unacknowledged transitions can be caught mid-flight here,
        which the fully patient :meth:`run_cycle` would mask by waiting for
        global quiescence.  Cycles overlap in time, so the burst's port
        events are scanned as one: ILLEGAL decodes are collected in
        ``BurstResult.illegal`` rather than raised, and every report's
        ``port_fault`` stays None.  A report's ``transitions`` counts the
        trace's events from its data start up to the next cycle's; the last
        cycle takes the rest, and the counts sum to the length of the
        returned trace.  Every pair's operands are checked as in
        :meth:`run_cycle`, and ``gap`` must be an int (not a bool) of at
        least 0; either fault raises ``ValueError`` before anything is
        scheduled.
        """
        pairs = list(pairs)
        _require_operands(self.n, pairs)
        if gap.__class__ is not int or gap < 0:
            raise ValueError(f"gap must be an int of at least 0, got {gap!r}")
        st = self.state
        if not st.quiescent:
            raise StuckPhaseError("burst started with events still pending")
        # (a, b, product, data start, ack edge, spacer start, end) per cycle
        cycles: list[tuple[int, ...]] = []
        origin, port_origin = len(st.trace), len(st.port_events)
        for a, b in pairs:
            t0 = st.clock + gap if cycles else st.clock
            self._apply_operands(a, b, t0)
            st.run_until_quiescent(until_ack=self._active)
            if st.levels[self._ack] != self._active:
                raise StuckPhaseError("completion never asserted during burst")
            ta = st.clock
            product = self._decode_product()
            t1 = ta + gap
            self._apply_spacer(t1)
            st.run_until_quiescent(until_ack=self._spacer)
            if st.levels[self._ack] != self._spacer:
                raise StuckPhaseError("completion never released during burst")
            cycles.append((a, b, product, t0, ta, t1, st.clock))
        st.run_until_quiescent()
        trace = st.trace[origin:]
        illegal = sorted(_illegal_points(scan_port_changes(
            self.netlist, self._stage.reset_levels, st.port_events[port_origin:])))
        st.take_trace()
        cuts = [bisect_left(trace, cycle[3], key=itemgetter(0)) for cycle in cycles]
        cuts.append(len(trace))
        reports = [
            CycleReport(
                a=a, b=b, product=product,
                forward=ta - t0, reverse=tb - t1, cycle=(ta - t0) + (tb - t1),
                transitions=cuts[k + 1] - cuts[k],
                data_start=t0, spacer_start=t1, end=tb,
            )
            for k, (a, b, product, t0, ta, t1, tb) in enumerate(cycles)
        ]
        return BurstResult(reports=reports, trace=trace, illegal=illegal)


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
