"""Event-driven gate-level simulator with per-gate transport delays.

Time is dimensionless: delays are positive integers and nothing in the model
ties a unit to nanoseconds.  Wires are instantaneous; every delay belongs to
a gate instance.  The engine processes pending events in (time, net id)
order, applies each level change, then re-evaluates the fanout gates of all
nets that changed at that timestamp.  Scheduling is suppressed when a gate's
computed output equals the level already heading for (or sitting on) its
output net, so every applied event is a real transition and the trace doubles
as a transition count.

The one piece of environment behaviour baked in: when the netlist declares
both ``ack_out`` and ``ack_in``, the simulator mirrors every ``ack_out``
change onto ``ack_in`` complemented at the same timestamp.  That models the
zero-delay acknowledge inverter the surrounding stage would provide, and it
keeps a closed handshake loop runnable without a cooperating testbench.

Netlists are immutable after construction, so everything the engine derives
from one is compiled once per netlist object: the first :func:`reset` of a
netlist validates it, builds its gate and fanout tables, checks that its
reset state is quiescent, and keeps that plan (plus one delay vector per
:class:`DelayModel` used) on the netlist.  Later resets only copy the reset
levels and allocate an empty event queue.  A netlist that fails validation
or the quiescence check is not compiled and fails the same way on every
reset.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import IO, Iterable, Mapping

from .netlist import (
    F_AND,
    F_C,
    F_OR,
    FAMILY,
    DualRailPort,
    DualRailValue,
    GateKind,
    Netlist,
    decode,
    eval_family,
)

#: Cause tag for environment-driven events (everything else is a gate id).
ENV = -1

DEFAULT_GUARD = 1_000_000


Trace = list  # list of (time, net, level, cause) tuples


class NotPrimaryError(ValueError):
    code = "NOT_PRIMARY"


class NonQuiescentError(RuntimeError):
    """The event queue refused to drain within the oscillation guard."""

    code = "NON_QUIESCENT"


class DelayMode(Enum):
    UNIT = "unit"
    FIXED_TABLE = "fixed_table"
    RANDOM_PER_GATE = "random_per_gate"


@dataclass(frozen=True)
class DelayModel:
    """Assignment of integer delays to gate instances.

    UNIT gives every gate delay 1.  FIXED_TABLE maps each :class:`GateKind`
    to a delay.  RANDOM_PER_GATE draws uniformly from [lo, hi]; the draw is a
    pure function of (seed, gate id), so two gates never share entropy and a
    netlist edit cannot silently reshuffle delays of untouched gates.
    """

    mode: DelayMode = DelayMode.UNIT
    table: tuple[tuple[GateKind, int], ...] = ()
    lo: int = 1
    hi: int = 20
    seed: int = 0

    @classmethod
    def unit(cls) -> "DelayModel":
        return cls(DelayMode.UNIT)

    @classmethod
    def fixed_table(cls, table: Mapping[GateKind, int]) -> "DelayModel":
        items = tuple(sorted(table.items(), key=lambda kv: kv[0].value))
        for kind, d in items:
            if not isinstance(d, int) or d < 1:
                raise ValueError(f"delay for {kind.value} must be a positive integer")
        return cls(DelayMode.FIXED_TABLE, table=items)

    @classmethod
    def random_per_gate(cls, lo: int = 1, hi: int = 20, seed: int = 0) -> "DelayModel":
        if lo < 1 or hi < lo:
            raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
        return cls(DelayMode.RANDOM_PER_GATE, lo=lo, hi=hi, seed=seed)

    def delay_of(self, gate_id: int, kind: GateKind) -> int:
        if self.mode is DelayMode.UNIT:
            return 1
        if self.mode is DelayMode.FIXED_TABLE:
            for k, d in self.table:
                if k is kind:
                    return d
            raise ValueError(f"delay table has no entry for gate kind {kind.value!r}")
        return random.Random(f"{self.seed}:{gate_id}").randint(self.lo, self.hi)

    def describe(self) -> dict:
        """JSON-safe summary embedded into result artifacts."""
        doc: dict = {"mode": self.mode.value}
        if self.mode is DelayMode.FIXED_TABLE:
            doc["table"] = {k.value: d for k, d in self.table}
        elif self.mode is DelayMode.RANDOM_PER_GATE:
            doc.update(lo=self.lo, hi=self.hi, seed=self.seed)
        return doc


class _Plan:
    """What the engine needs from one netlist, shared by its SimStates.

    Tables are indexed by gate id (``validate`` guarantees ids are exactly
    ``0..len(gates)-1``) and by net id; nothing here is mutated after
    construction.
    """

    def __init__(self, netlist: Netlist):
        netlist.require_valid()
        self._gates = sorted(netlist.gates, key=lambda g: g.id)
        self.family = [FAMILY[g.kind] for g in self._gates]
        self.inputs = [g.inputs for g in self._gates]
        self.output = [g.output for g in self._gates]
        fanout: list[list[int]] = [[] for _ in range(netlist.net_count)]
        for g in self._gates:
            for n in set(g.inputs):
                fanout[n].append(g.id)
        self.fanout = [tuple(f) for f in fanout]  # ascending: gates go in id order

        lv = netlist.reset_levels()
        for g, family in zip(self._gates, self.family):
            settled = eval_family(family, g.inputs, lv, lv[g.output])
            if settled != lv[g.output]:
                raise ValueError(
                    f"reset is not quiescent: gate {g.id} ({g.kind.value}) would "
                    f"drive {settled}, reset says {lv[g.output]}"
                )
        self.reset_levels = tuple(lv)
        self.ack_out = netlist.ack_out if netlist.ack_in is not None else None
        self.ack_in = netlist.ack_in
        self._delays: dict[DelayModel, list[int]] = {}

    def delays(self, model: DelayModel) -> list[int]:
        """Per-gate delays under ``model``, computed once per model."""
        vector = self._delays.get(model)
        if vector is None:
            vector = [model.delay_of(g.id, g.kind) for g in self._gates]
            self._delays[model] = vector
        return vector


class SimState:
    """Simulation instance: net levels, pending events, clock and trace.

    C-elements keep no shadow state; their memory *is* the current level of
    their output net, exactly as in the AO222-with-feedback realization.
    Construct via :func:`reset`.
    """

    def __init__(self, netlist: Netlist, delay_model: DelayModel):
        plan: _Plan = netlist._derived("sim.plan", _Plan)
        self.netlist = netlist
        self.delay_model = delay_model
        self.clock = 0
        self.trace: Trace = []
        self._seq = 0
        self._heap: list[tuple[int, int, int, int, int]] = []
        self._plan = plan
        self._gate_delay = plan.delays(delay_model)

        self.levels = list(plan.reset_levels)
        n_nets = len(self.levels)
        self._pending_count = [0] * n_nets
        self._pending_level = [0] * n_nets
        self._pending_time = [0] * n_nets

    # -- stimulus ----------------------------------------------------------

    @property
    def quiescent(self) -> bool:
        return not self._heap

    def set_primary(self, net: int, level: int, at_time: int | None = None) -> None:
        """Schedule an environment transition on a primary-input net.

        Setting the level the net is already heading for is a silent no-op,
        so callers may re-assert levels without polluting the trace.
        """
        if net not in self.netlist.primary_inputs:
            raise NotPrimaryError(f"net {net} is not a primary input")
        if level not in (0, 1):
            raise ValueError(f"level must be 0 or 1, got {level!r}")
        t = self.clock if at_time is None else at_time
        if t < self.clock:
            raise ValueError(f"cannot schedule at {t}, clock is already {self.clock}")
        if self._pending_count[net]:
            if t < self._pending_time[net]:
                raise ValueError(f"net {net} already has an event after t={t}")
            projected = self._pending_level[net]
        else:
            projected = self.levels[net]
        if level == projected:
            return
        self._push(t, net, level, ENV)

    def _push(self, t: int, net: int, level: int, cause: int) -> None:
        self._seq += 1
        heappush(self._heap, (t, net, self._seq, level, cause))
        self._pending_count[net] += 1
        self._pending_level[net] = level
        self._pending_time[net] = t

    # -- engine ------------------------------------------------------------

    def run_until_quiescent(
        self,
        max_time: int = DEFAULT_GUARD,
        stop_net: int | None = None,
        stop_level: int | None = None,
    ) -> int:
        """Drain the event queue; return elapsed time since the call began.

        ``max_time`` bounds the run relative to the current clock and trips
        :class:`NonQuiescentError` on oscillation.  When ``stop_net`` is
        given, the run returns early right after that net reaches
        ``stop_level`` (the surrounding timestamp batch still completes).
        """
        heap = self._heap
        levels = self.levels
        pend_cnt = self._pending_count
        pend_lvl = self._pending_level
        plan = self._plan
        fanout = plan.fanout
        fams = plan.family
        gins = plan.inputs
        gouts = plan.output
        gdelay = self._gate_delay
        trace = self.trace
        ack_out, ack_in = plan.ack_out, plan.ack_in
        push, pop = heappush, heappop
        seq = self._seq
        start = self.clock
        deadline = start + max_time

        # Each net has one driver and the heap orders by (time, net, seq), so
        # the order in which touched gates are evaluated only permutes seq
        # between distinct nets and cannot change the trace.
        touched: set[int] = set()
        try:
            while heap:
                t = heap[0][0]
                if t > deadline:
                    raise NonQuiescentError(
                        f"no quiescence within {max_time} units (next event at t={t})"
                    )
                touched.clear()
                stop_hit = False
                while heap and heap[0][0] == t:
                    _, net, _, level, cause = pop(heap)
                    pend_cnt[net] -= 1
                    if levels[net] == level:
                        continue
                    levels[net] = level
                    trace.append((t, net, level, cause))
                    touched.update(fanout[net])
                    if net == ack_out:
                        # environment acknowledge inverter, zero delay
                        v = 1 - level
                        proj = pend_lvl[ack_in] if pend_cnt[ack_in] else levels[ack_in]
                        if proj != v:
                            seq += 1
                            push(heap, (t, ack_in, seq, v, ENV))
                            pend_cnt[ack_in] += 1
                            pend_lvl[ack_in] = v
                            self._pending_time[ack_in] = t
                    if net == stop_net and level == stop_level:
                        stop_hit = True
                self.clock = t
                for gid in touched:
                    ins = gins[gid]
                    fam = fams[gid]
                    out = gouts[gid]
                    if fam == F_C:
                        v = levels[ins[0]]
                        for n in ins:
                            if levels[n] != v:
                                v = levels[out]
                                break
                    elif fam == F_AND:
                        v = 1
                        for n in ins:
                            if not levels[n]:
                                v = 0
                                break
                    elif fam == F_OR:
                        v = 0
                        for n in ins:
                            if levels[n]:
                                v = 1
                                break
                    else:
                        v = 1 - levels[ins[0]]
                    proj = pend_lvl[out] if pend_cnt[out] else levels[out]
                    if v != proj:
                        # _push inlined; gate outputs are never primary
                        # inputs, so their _pending_time is never read
                        seq += 1
                        push(heap, (t + gdelay[gid], out, seq, v, gid))
                        pend_cnt[out] += 1
                        pend_lvl[out] = v
                if stop_hit:
                    break
        finally:
            self._seq = seq
        return self.clock - start

    # -- observation -------------------------------------------------------

    def read_port(self, port: DualRailPort | str) -> DualRailValue:
        p = self._resolve_port(port)
        return decode(self.levels[p.rail1], self.levels[p.rail0], self.netlist.protocol)

    def _resolve_port(self, port: DualRailPort | str) -> DualRailPort:
        if isinstance(port, DualRailPort):
            return port
        for p in self.netlist.ports:
            if p.name == port:
                return p
        raise KeyError(f"no port named {port!r}")

    def take_trace(self) -> Trace:
        """Hand over and clear the accumulated trace (bulk runs stay lean)."""
        out, self.trace = self.trace, []
        return out


def reset(netlist: Netlist, delay_model: DelayModel | None = None) -> SimState:
    """Fresh simulation state: nets at reset levels, empty queue and trace."""
    return SimState(netlist, delay_model or DelayModel.unit())


def replay(netlist: Netlist, trace: Iterable[tuple]) -> list[int]:
    """Fold a trace over the reset state; returns the final net levels.

    Replay is pure bookkeeping (no re-simulation), so it verifies that a
    recorded trace is self-contained.
    """
    levels = netlist.reset_levels()
    for _t, net, level, _cause in trace:
        levels[net] = level
    return levels


# ---------------------------------------------------------------------------
# trace export


def write_trace_csv(trace: Iterable[tuple], stream: IO[str]) -> None:
    """CSV rows ``time,net,level,cause`` with 'env' for environment events."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["time", "net", "level", "cause"])
    for t, net, level, cause in trace:
        writer.writerow([t, net, level, "env" if cause == ENV else cause])


def write_trace_vcd(netlist: Netlist, trace: Iterable[tuple], stream: IO[str]) -> None:
    """Minimal VCD dump of a trace (one abstract time unit per VCD tick)."""
    names = {int(k): v for k, v in netlist.meta.get("net_names", {}).items()}
    for p in netlist.ports:
        names.setdefault(p.rail1, f"{p.name}.t")
        names.setdefault(p.rail0, f"{p.name}.f")
    stream.write("$comment abstract time units $end\n")
    stream.write("$timescale 1 ns $end\n")
    stream.write("$scope module circuit $end\n")
    for net in range(netlist.net_count):
        label = names.get(net, f"n{net}")
        stream.write(f"$var wire 1 n{net} {label} $end\n")
    stream.write("$upscope $end\n$enddefinitions $end\n")
    stream.write("$dumpvars\n")
    for net, level in enumerate(netlist.reset_levels()):
        stream.write(f"{level}n{net}\n")
    stream.write("$end\n")
    now = None
    for t, net, level, _cause in trace:
        if t != now:
            stream.write(f"#{t}\n")
            now = t
        stream.write(f"{level}n{net}\n")
