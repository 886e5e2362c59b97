"""Event-driven gate-level simulator with per-gate transport delays.

Time is dimensionless: delays are positive integers and nothing in the model
ties a unit to nanoseconds.  Wires are instantaneous; every delay belongs to
a gate instance.  The engine processes pending events in (time, net id)
order, applies each level change, then re-evaluates the fanout gates of all
nets that changed at that timestamp.

Pending events are kept in one of two queues, picked once per (netlist,
delay model) next to the delay vector: by the tick queue when every gate of
the netlist has the same delay d (always under ``unit``; under a table or a
random model when the delays the netlist's gates get are all equal), and by
the heap otherwise.

- The heap holds ``(time, net, seq, level, cause)``; ``seq`` counts
  scheduling calls, so events on one net at one time pop in call order.
  It is the reference, and the only queue for unequal delays.
- The tick queue holds ``(time, batch)`` pairs in time order.  A batch is
  a list of trace tuples ``(time, net, level, cause)`` in scheduling order,
  appended to the trace as they are.  Every event scheduled while
  processing tick t lands in the batch for t + d, so it is found without a
  per-event time lookup, usually at the tail.  A batch is stably sorted by
  net when its tick starts, which gives the heap's (net, seq) order: the
  batch receives events in seq order.  Environment events join the batch
  for their time, and the acknowledge inverter (below) inserts its event
  into the current tick where the heap would pop it: after every
  unprocessed event on a net up to ``ack_in``.

Both queues therefore apply the same events in the same order, so the
trace, :attr:`SimState.ack_edges`, the clock, the return value and the
``max_time`` error are the same; ``tests/test_tick_queue.py`` compares them
call by call.

Gates are evaluated by count: each gate keeps the number of its input pins
at level 1 (a net tied to two pins counts twice), and its output is the
entry for that count in a row of 0, 1 or HOLD (keep the current level).
AND, OR, NOT and C-elements are symmetric in their inputs, so the count
decides the output; each row is derived once per (family, arity) from
:func:`netlist.eval_family`, the one gate evaluator.  Every net also keeps
its projected level: the level of the last event scheduled on it, or its
current level when none is pending.  A net's events are scheduled in time
order (one driver with a fixed delay; :meth:`SimState.set_primary` refuses
an earlier environment event), so that is the level the net settles at.
Scheduling is suppressed when a gate's output equals its output net's
projected level, so every applied event is a real transition and the trace
doubles as a transition count.

The one piece of environment behaviour baked in: when the netlist declares
both ``ack_out`` and ``ack_in``, the simulator mirrors every ``ack_out``
change onto ``ack_in`` complemented at the same timestamp.  That models the
zero-delay acknowledge inverter the surrounding stage would provide, and it
keeps a closed handshake loop runnable without a cooperating testbench.
The same branch records each such ``ack_out`` transition as ``(time,
level)`` in :attr:`SimState.ack_edges`, so the harness finds its handshake
edges without searching the trace; :meth:`SimState.take_trace` clears both.

Netlists are immutable after construction, so everything the engine derives
from one is compiled once per netlist object: the first :func:`reset` of a
netlist validates it, builds its gate and fanout tables, checks that its
reset state is quiescent, and keeps that plan (plus one delay vector per
:class:`DelayModel` used) on the netlist.  Later resets only copy the reset
levels and input counts and allocate an empty event queue.  A netlist that
fails validation or the quiescence check is not compiled and fails the same
way on every reset.
"""

from __future__ import annotations

import csv
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cache
from heapq import heappop, heappush
from operator import itemgetter
from typing import IO, Iterable, Mapping

from .netlist import (
    FAMILY,
    DualRailPort,
    DualRailValue,
    GateKind,
    Netlist,
    eval_family,
)

#: Cause tag for environment-driven events (everything else is a gate id).
ENV = -1

DEFAULT_GUARD = 1_000_000

#: Gate-row entry for "the output keeps its current level" (C-element).
HOLD = -1


Trace = list  # list of (time, net, level, cause) tuples

# sort keys of trace tuples and of the tick queue's (time, batch) pairs
_NET = itemgetter(1)
_TIME = itemgetter(0)


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
    @cache
    def unit(cls) -> "DelayModel":
        """The unit model, one shared instance (models are immutable)."""
        return cls(DelayMode.UNIT)

    @classmethod
    def fixed_table(cls, table: Mapping[GateKind, int]) -> "DelayModel":
        items = tuple(sorted(table.items(), key=lambda kv: kv[0].value))
        for kind, d in items:
            if not isinstance(d, int) or isinstance(d, bool) or d < 1:
                raise ValueError(f"delay for {kind.value} must be a positive integer")
        return cls(DelayMode.FIXED_TABLE, table=items)

    @classmethod
    def random_per_gate(cls, lo: int = 1, hi: int = 20, seed: int = 0) -> "DelayModel":
        for what, v in (("lo", lo), ("hi", hi), ("seed", seed)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{what} must be an integer, got {v!r}")
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


@cache
def _gate_row(family: int, arity: int) -> tuple[int, ...]:
    """Output of a gate per count of inputs at 1: 0, 1 or :data:`HOLD`."""
    row = []
    for ones in range(arity + 1):
        levels = [1] * ones + [0] * (arity - ones)
        low, high = (eval_family(family, range(arity), levels, s) for s in (0, 1))
        row.append(low if low == high else HOLD)
    return tuple(row)


class _Plan:
    """What the engine needs from one netlist, shared by its SimStates.

    Tables are indexed by gate id (``validate`` guarantees ids are exactly
    ``0..len(gates)-1``) and by net id; nothing here is mutated after
    construction.  ``fanout`` lists a gate once per input pin it has on the
    net, so input counts stay exact for tied inputs.
    """

    def __init__(self, netlist: Netlist):
        netlist.require_valid()
        self._gates = sorted(netlist.gates, key=lambda g: g.id)
        families = [FAMILY[g.kind] for g in self._gates]
        self.row = [_gate_row(f, len(g.inputs)) for f, g in zip(families, self._gates)]
        self.output = [g.output for g in self._gates]
        fanout: list[list[int]] = [[] for _ in range(netlist.net_count)]
        for g in self._gates:
            for n in g.inputs:
                fanout[n].append(g.id)
        self.fanout = [tuple(f) for f in fanout]

        lv = netlist.reset_levels()
        self.reset_ones = [sum(map(lv.__getitem__, g.inputs)) for g in self._gates]
        for g, family in zip(self._gates, families):
            settled = eval_family(family, g.inputs, lv, lv[g.output])
            if settled != lv[g.output]:
                raise ValueError(
                    f"reset is not quiescent: gate {g.id} ({g.kind.value}) would "
                    f"drive {settled}, reset says {lv[g.output]}"
                )
        self.reset_levels = tuple(lv)
        self.ack_out = netlist.ack_out if netlist.ack_in is not None else None
        self.ack_in = netlist.ack_in
        self.decode = netlist.decode_table
        self.port_by_name: dict[str, DualRailPort] = {}
        for p in netlist.ports:  # the first of ports sharing a name wins
            self.port_by_name.setdefault(p.name, p)
        self._timing: dict[DelayModel, tuple[list[int], int | None]] = {}

    def timing(self, model: DelayModel) -> tuple[list[int], int | None]:
        """``(per-gate delays, step)`` under ``model``, computed once per model.

        ``step`` is the delay every gate shares, or None when delays differ;
        it selects the engine's queue discipline (see the module docstring).
        """
        timing = self._timing.get(model)
        if timing is None:
            if model.mode is DelayMode.UNIT:
                vector = [1] * len(self._gates)
            else:
                vector = [model.delay_of(g.id, g.kind) for g in self._gates]
            step = vector[0] if vector and vector.count(vector[0]) == len(vector) else None
            timing = self._timing[model] = (vector, step)
        return timing


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
        self._plan = plan
        # the queue discipline: the delay every gate shares, or None for the heap
        self._gate_delay, self._step = plan.timing(delay_model)
        # pending events: a heap of (time, net, seq, level, cause) when _step is
        # None, else (time, batch) pairs in time order, each batch a list of
        # (time, net, level, cause) trace tuples in scheduling order
        self._queue: list = []

        self.levels = list(plan.reset_levels)
        self._projected = list(plan.reset_levels)
        # time of the last environment event per primary input; absent means
        # none after t=0 (gate outputs are never primary inputs)
        self._pending_time: dict[int, int] = {}
        self._ones = list(plan.reset_ones)
        #: ``(time, level)`` of every ``ack_out`` transition in :attr:`trace`.
        self.ack_edges: list[tuple[int, int]] = []

    # -- stimulus ----------------------------------------------------------

    @property
    def quiescent(self) -> bool:
        return not self._queue

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
        # with nothing pending, the net's last event lies at or before the clock
        if t < self._pending_time.get(net, 0):
            raise ValueError(f"net {net} already has an event after t={t}")
        if level == self._projected[net]:
            return
        self._projected[net] = level
        self._pending_time[net] = t
        queue = self._queue
        if self._step is None:
            self._seq += 1
            heappush(queue, (t, net, self._seq, level, ENV))
        elif queue and queue[-1][0] == t:
            queue[-1][1].append((t, net, level, ENV))
        elif not queue or queue[-1][0] < t:
            queue.append((t, [(t, net, level, ENV)]))
        else:
            _file(queue, t, [(t, net, level, ENV)])

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
        queue = self._queue
        levels = self.levels
        projected = self._projected
        ones = self._ones
        plan = self._plan
        fanout = plan.fanout
        rows = plan.row
        gouts = plan.output
        trace = self.trace
        ack_edges = self.ack_edges
        ack_out, ack_in = plan.ack_out, plan.ack_in
        start = self.clock
        deadline = start + max_time
        step = self._step

        if step is not None:
            # Tick by tick: every event of one tick lands in the batch at
            # t + step.  Sorting a batch by net (stably, so events on one net
            # keep their scheduling order) gives the heap's (net, seq) order.
            append = trace.append
            while queue:
                t, batch = queue[0]
                if t > deadline:
                    raise NonQuiescentError(
                        f"no quiescence within {max_time} units (next event at t={t})"
                    )
                del queue[0]
                if len(batch) > 1:
                    batch.sort(key=_NET)
                touched: list[int] = []
                stop_hit = False
                for event in batch:  # the loop also visits events inserted ahead
                    _, net, level, _ = event
                    if levels[net] == level:
                        continue
                    levels[net] = level
                    append(event)
                    gates = fanout[net]
                    if level:
                        for gid in gates:
                            ones[gid] += 1
                    else:
                        for gid in gates:
                            ones[gid] -= 1
                    touched += gates
                    if net == ack_out:
                        ack_edges.append((t, level))
                        # environment acknowledge inverter, zero delay
                        v = 1 - level
                        if projected[ack_in] != v:
                            # where the heap pops it: after every unprocessed
                            # event of this tick on a net up to ack_in.  The
                            # environment may put several ack_out events in
                            # one tick, so find this one by identity among
                            # the batch's ack_out run.
                            after = bisect_left(batch, ack_out, key=_NET)
                            while batch[after] is not event:
                                after += 1
                            batch.insert(bisect_right(batch, ack_in, after + 1, key=_NET),
                                         (t, ack_in, v, ENV))
                            projected[ack_in] = v
                            self._pending_time[ack_in] = t
                    if net == stop_net and level == stop_level:
                        stop_hit = True
                self.clock = t
                at = t + step
                successors = []
                for gid in touched:
                    v = rows[gid][ones[gid]]
                    out = gouts[gid]
                    if v == HOLD:
                        v = levels[out]
                    if v != projected[out]:
                        successors.append((at, out, v, gid))
                        projected[out] = v
                if successors:
                    if not queue or queue[-1][0] < at:
                        queue.append((at, successors))
                    else:
                        _file(queue, at, successors)
                if stop_hit:
                    break
            return self.clock - start

        heap = queue
        gdelay = self._gate_delay
        push, pop = heappush, heappop
        seq = self._seq

        # Each net has one driver and the heap orders by (time, net, seq), so
        # the order in which touched gates are evaluated only permutes seq
        # between distinct nets and cannot change the trace.  A gate touched
        # twice in one timestep finds its output already projected the
        # second time and schedules nothing.
        try:
            while heap:
                t = heap[0][0]
                if t > deadline:
                    raise NonQuiescentError(
                        f"no quiescence within {max_time} units (next event at t={t})"
                    )
                touched = []
                stop_hit = False
                while heap and heap[0][0] == t:
                    _, net, _, level, cause = pop(heap)
                    if levels[net] == level:
                        continue
                    levels[net] = level
                    trace.append((t, net, level, cause))
                    gates = fanout[net]
                    if level:
                        for gid in gates:
                            ones[gid] += 1
                    else:
                        for gid in gates:
                            ones[gid] -= 1
                    touched += gates
                    if net == ack_out:
                        ack_edges.append((t, level))
                        # environment acknowledge inverter, zero delay
                        v = 1 - level
                        if projected[ack_in] != v:
                            seq += 1
                            push(heap, (t, ack_in, seq, v, ENV))
                            projected[ack_in] = v
                            self._pending_time[ack_in] = t
                    if net == stop_net and level == stop_level:
                        stop_hit = True
                self.clock = t
                for gid in touched:
                    v = rows[gid][ones[gid]]
                    out = gouts[gid]
                    if v == HOLD:
                        v = levels[out]
                    if v != projected[out]:
                        seq += 1
                        push(heap, (t + gdelay[gid], out, seq, v, gid))
                        projected[out] = v
                if stop_hit:
                    break
        finally:
            self._seq = seq
        return self.clock - start

    # -- observation -------------------------------------------------------

    def read_port(self, port: DualRailPort | str) -> DualRailValue:
        if not isinstance(port, DualRailPort):
            try:
                port = self._plan.port_by_name[port]
            except (KeyError, TypeError):
                raise KeyError(f"no port named {port!r}") from None
        levels = self.levels
        return self._plan.decode[2 * levels[port.rail1] + levels[port.rail0]]

    def take_trace(self) -> Trace:
        """Hand over and clear the accumulated trace and its ack edges."""
        out, self.trace = self.trace, []
        self.ack_edges = []
        return out


def _file(queue: list, t: int, events: list) -> None:
    """Add ``events``, all at time ``t``, to the batch for ``t`` in ``queue``."""
    i = bisect_left(queue, t, key=_TIME)
    if i < len(queue) and queue[i][0] == t:
        queue[i][1].extend(events)
    else:
        queue.insert(i, (t, events))


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
