"""Event-driven gate-level simulator with per-gate transport delays.

Time is dimensionless: delays are positive integers and nothing in the model
ties a unit to nanoseconds.  Wires are instantaneous; every delay belongs to
a gate instance.  The engine processes pending events in (time, net id)
order, applies each level change, then re-evaluates the fanout gates of all
nets that changed at that timestamp.

The engine contract is what the harness and the checkers use of a
:class:`SimState`: ``netlist``, ``delay_model``, ``clock``, ``levels``,
``trace``, ``ack_edges``, ``port_events``, ``quiescent``, ``set_primary``,
``set_primaries``, ``run_until_quiescent``, ``read_port`` and
``take_trace``.  Every queue discipline runs inside
:meth:`SimState.run_until_quiescent`, so wrapping that one method sees all
simulated work.  A handshake the harness's cycle record already holds
(:mod:`qdimul.harness`) is not simulated at all: it only moves the clock.

Pending events are kept under one of two disciplines, picked once per
:class:`SimState` from what the netlist's plan already knows:

- The heap holds ``(time, net, seq, level, cause)``; ``seq`` counts
  scheduling calls, so events on one net at one time pop in call order.
  It is the reference, and the path for stages of fewer than
  :data:`_BATCH_MIN_GATES` gates whose delays differ.
- Per-timestamp batches serve the rest: every gate of the netlist has the
  same delay d (always under ``unit``; under a table or a random model when
  the delays the netlist's gates get are all equal), or the stage has at
  least :data:`_BATCH_MIN_GATES` gates.  ``_batches`` maps each pending
  time to its batch and ``_queue`` is a heap of the pending times.  A batch
  is a list of trace tuples ``(time, net, level, cause)`` in scheduling
  order, appended to the trace as they are.  It is stably sorted by net
  when its timestamp starts, which gives the heap's (net, seq) order: the
  batch receives events in seq order.  With equal delays every successor
  of timestamp t goes into one list, filed at t + d with one dict
  operation; otherwise each successor is filed in the batch for
  ``t + delay(g)``.  Environment events join the batch for their time, and
  the acknowledge inverter (below) inserts its event into the current batch
  where the heap would pop it: after every unprocessed event on a net up to
  ``ack_in``.  Under unequal delays a heap push costs log(depth) tuple
  comparisons per event, a batch one dict lookup per event and one sort per
  timestamp, so batches win once timestamps hold several events each,
  which needs a large stage (the crossover, about 600 gates under
  ``random_per_gate(1, 20)``, is recorded in ROADMAP.md).

Both apply the same events in the same order, so the trace,
:attr:`SimState.ack_edges`, :attr:`SimState.port_events`, the clock, the
return value and the ``max_time`` error are the same;
``tests/test_queue_disciplines.py`` compares the batches, filed per gate and
as one list, with the heap call by call.

Gates are evaluated by count: each gate keeps the number of its input pins
at level 1 (a net tied to two pins counts twice), and its output is the
entry for that count in a row of 0, 1 or HOLD (keep the current level).
AND, OR, NOT and C-elements are symmetric in their inputs, so the count
decides the output; each row is derived once per (family, arity) from
:func:`netlist.eval_family`, the one gate evaluator.  Every net also keeps
its projected level: the level of the last event scheduled on it, or its
current level when none is pending.  A net's events are scheduled in time
order (one driver with a fixed delay; the environment's scheduling refuses
an earlier event), so that is the level the net settles at.

The environment schedules through one path: :meth:`SimState.set_primaries`
takes a sequence of ``(net, level)`` transitions at one time, and
:meth:`SimState.set_primary` is that call with one transition.  A batch
leaves exactly the state its transitions would leave one call at a time,
also when one of them is refused; a level must be the int 0 or 1.
Scheduling is suppressed when a gate's output equals its output net's
projected level, so every applied event is a real transition and the trace
doubles as a transition count.

The one piece of environment behaviour baked in: when the netlist declares
both ``ack_out`` and ``ack_in``, the simulator mirrors every ``ack_out``
change onto ``ack_in`` complemented at the same timestamp.  That models the
zero-delay acknowledge inverter the surrounding stage would provide, and it
keeps a closed handshake loop runnable without a cooperating testbench.
The same branch records each such ``ack_out`` transition as ``(time,
level)`` in :attr:`SimState.ack_edges`, and appends every transition on a
port rail (``ack_in`` included, when a port uses it) to
:attr:`SimState.port_events` as its trace tuple, so the harness finds its
handshake edges and judges its ports without searching the trace.  One
per-net flag, built once in the plan, selects that branch: 1 for a port
rail, 2 for ``ack_out``, 3 for both.  :meth:`SimState.take_trace` clears all
three lists.  The run's one early stop is tested in that branch too, so no
other event pays for it (``until_ack``, :meth:`SimState.run_until_quiescent`).

Netlists are immutable after construction, so everything the engine derives
from one is compiled once per netlist object: the first :func:`reset` of a
netlist validates it, builds its gate and fanout tables, checks that its
reset state is quiescent, and keeps that plan (plus one delay vector per
:class:`DelayModel` used) on the netlist.  Later resets only copy the reset
levels and input counts and allocate an empty event queue.  A netlist that
fails validation or the quiescence check is not compiled and fails the same
way on every reset.  A random delay model draws each gate id once and
shares the draws with every netlist simulated under that model object: a
netlist's vector is the first ``len(gates)`` of them, so designs of
different sizes under one model draw only the ids no earlier design had.
The draws are one stream per model: gate k gets the k-th value ``u`` of
``random.Random(str(seed)).random()`` as ``lo + int(u * (hi - lo + 1))``,
one cheap step of the generator per gate.
"""

from __future__ import annotations

import csv
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from heapq import heappop, heappush
from operator import attrgetter, itemgetter
from typing import IO, Iterable, Mapping

from .netlist import (
    ARITY,
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

#: Fewest gates for which unequal delays run on per-timestamp batches rather
#: than the heap (see the module docstring).
_BATCH_MIN_GATES = 600


Trace = list  # list of (time, net, level, cause) tuples

# sort key of trace tuples
_NET = itemgetter(1)


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
    to a delay.  RANDOM_PER_GATE draws uniformly from [lo, hi]: gate k gets
    ``lo + int(u * (hi - lo + 1))``, where ``u`` is the k-th value of
    ``random.Random(str(seed)).random()``.  The delay is a pure function of
    (seed, gate id), so it does not depend on netlist size or on the order
    in which netlists are simulated, and a netlist edit cannot reshuffle
    delays of untouched gates; the seed is hashed as a string, so ``-s``
    and ``s`` name different delays.  ``random()`` is the one sequence
    whose reproducibility Python documents across versions.  A random model
    draws each gate id once and shares the draws with every netlist
    simulated under that model object; the draws take no part in equality,
    hashing, ``repr`` or :meth:`describe`.
    """

    mode: DelayMode = DelayMode.UNIT
    table: tuple[tuple[GateKind, int], ...] = ()
    lo: int = 1
    hi: int = 20
    seed: int = 0
    # a random model's delays drawn so far, indexed by gate id, and the
    # generator whose stream they are (it has given exactly len(_drawn) values)
    _drawn: list[int] = field(default_factory=list, init=False, compare=False, repr=False)
    _stream: random.Random | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        """Refuse, with ``ValueError``, a model its mode cannot use.

        A table holds ``(GateKind, delay)`` pairs, each kind once, and is
        kept sorted by kind; a random model's ``lo``, ``hi`` and ``seed`` are
        ints (not bools) with ``1 <= lo <= hi``.  Delays are ints >= 1.
        """
        if not isinstance(self.mode, DelayMode):
            raise ValueError(f"mode must be a DelayMode, got {self.mode!r}")
        if self.mode is DelayMode.FIXED_TABLE:
            if not isinstance(self.table, (tuple, list)) or not all(
                    isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], GateKind)
                    for e in self.table):
                raise ValueError("a delay table holds (GateKind, delay) pairs")
            for kind, d in self.table:
                if not isinstance(d, int) or isinstance(d, bool) or d < 1:
                    raise ValueError(f"delay for {kind.value} must be a positive integer")
            if len({kind for kind, _ in self.table}) != len(self.table):
                raise ValueError("a delay table names each gate kind once")
            object.__setattr__(self, "table",
                               tuple(sorted(self.table, key=lambda kv: kv[0].value)))
        elif self.mode is DelayMode.RANDOM_PER_GATE:
            for what, v in (("lo", self.lo), ("hi", self.hi), ("seed", self.seed)):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"{what} must be an integer, got {v!r}")
            if self.lo < 1 or self.hi < self.lo:
                raise ValueError(f"need 1 <= lo <= hi, got [{self.lo}, {self.hi}]")
            # a str seed, because Random(int) seeds with abs(int)
            object.__setattr__(self, "_stream", random.Random(str(self.seed)))

    @classmethod
    @cache
    def unit(cls) -> "DelayModel":
        """The unit model, one shared instance (models are immutable)."""
        return cls(DelayMode.UNIT)

    @classmethod
    def fixed_table(cls, table: Mapping[GateKind, int]) -> "DelayModel":
        return cls(DelayMode.FIXED_TABLE, table=tuple(table.items()))

    @classmethod
    def random_per_gate(cls, lo: int = 1, hi: int = 20, seed: int = 0) -> "DelayModel":
        return cls(DelayMode.RANDOM_PER_GATE, lo=lo, hi=hi, seed=seed)

    def delay_of(self, gate_id: int, kind: GateKind) -> int:
        if self.mode is DelayMode.UNIT:
            return 1
        if self.mode is DelayMode.FIXED_TABLE:
            for k, d in self.table:
                if k is kind:
                    return d
            raise ValueError(f"delay table has no entry for gate kind {kind.value!r}")
        if gate_id < 0:
            raise ValueError(f"gate ids are non-negative, got {gate_id}")
        return self._draws(gate_id + 1)[gate_id]

    def _draws(self, count: int) -> list[int]:
        """The memo of random delays, extended to at least ``count`` gate ids.

        Gate k gets the k-th value ``u`` of one generator seeded with
        ``str(seed)``: ``lo + int(u * (hi - lo + 1))``.  The memo is extended
        by continuing that stream, so it holds the same list however it was
        grown.  Returned as is, not copied.
        """
        drawn = self._drawn
        if len(drawn) < count:
            u, lo, span = self._stream.random, self.lo, self.hi - self.lo + 1
            drawn += [lo + int(u() * span) for _ in range(count - len(drawn))]
        return drawn

    def _random_prefix(self, count: int) -> list[int]:
        """Delays of gate ids ``0..count-1``, drawing only the ids not drawn yet."""
        return self._draws(count)[:count]

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
        self._gates = gates = sorted(netlist.gates, key=attrgetter("id"))
        # validate guarantees each gate's arity, so a kind names its row
        row_of = {k: _gate_row(FAMILY[k], ARITY[k]) for k in GateKind}
        self.row = [row_of[g.kind] for g in gates]
        self.output = [g.output for g in gates]
        lv = netlist.reset_levels()
        # one pass over the input pins gives the fanout and each gate's count
        # of inputs at 1
        fanout: list[list[int]] = [[] for _ in range(netlist.net_count)]
        self.reset_ones = reset_ones = []
        for g in gates:
            gid, ones = g.id, 0
            for n in g.inputs:
                fanout[n].append(gid)
                ones += lv[n]
            reset_ones.append(ones)
        self.fanout = [tuple(f) for f in fanout]
        for g, row, ones in zip(gates, self.row, self.reset_ones):
            settled = row[ones]
            if settled != HOLD and settled != lv[g.output]:  # HOLD keeps the reset level
                raise ValueError(
                    f"reset is not quiescent: gate {g.id} ({g.kind.value}) would "
                    f"drive {settled}, reset says {lv[g.output]}"
                )
        self.reset_levels = tuple(lv)
        self.ack_out = netlist.ack_out if netlist.ack_in is not None else None
        self.ack_in = netlist.ack_in
        # per net: 1 for a port rail, 2 for the mirrored ack_out, 3 for both
        self.watch = [0] * netlist.net_count
        for p in netlist.ports:
            self.watch[p.rail1] = self.watch[p.rail0] = 1
        if self.ack_out is not None:
            self.watch[self.ack_out] |= 2
        self.decode = netlist.decode_table
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
            elif model.mode is DelayMode.RANDOM_PER_GATE:
                vector = model._random_prefix(len(self._gates))
            else:
                vector = [model.delay_of(g.id, g.kind) for g in self._gates]
            step = vector[0] if vector and vector.count(vector[0]) == len(vector) else None
            timing = self._timing[model] = (vector, step)
        return timing


class SimState:
    """Simulation instance: net levels, pending events, clock and trace.

    C-elements keep no shadow state; their memory *is* the current level of
    their output net, exactly as in the AO222-with-feedback realization.
    Construct via :func:`reset`.  A ``delay_model`` of None means unit
    delays; anything else that is not a :class:`DelayModel` raises
    ``ValueError`` before the netlist is compiled.
    """

    def __init__(self, netlist: Netlist, delay_model: DelayModel | None):
        if delay_model is None:
            delay_model = DelayModel.unit()
        elif not isinstance(delay_model, DelayModel):
            raise ValueError(f"delay_model must be a DelayModel or None, got {delay_model!r}")
        plan: _Plan = netlist._derived("sim.plan", _Plan)
        self.netlist = netlist
        self.delay_model = delay_model
        self.clock = 0
        self.trace: Trace = []
        self._seq = 0
        self._plan = plan
        # the queue discipline: per-timestamp batches when every gate shares
        # one delay (_step) or the stage is large, else the heap
        self._gate_delay, self._step = plan.timing(delay_model)
        self._batched = self._step is not None or len(plan.output) >= _BATCH_MIN_GATES
        # pending events: with _batched, a heap of the pending times, each time's
        # batch (a list of (time, net, level, cause) trace tuples in scheduling
        # order) in _batches; else a heap of (time, net, seq, level, cause)
        self._queue: list = []
        self._batches: dict[int, list] = {}

        self.levels = list(plan.reset_levels)
        self._projected = list(plan.reset_levels)
        # time of the last environment event per primary input; absent means
        # none after t=0 (gate outputs are never primary inputs)
        self._pending_time: dict[int, int] = {}
        self._ones = list(plan.reset_ones)
        #: ``(time, level)`` of every ``ack_out`` transition in :attr:`trace`.
        self.ack_edges: list[tuple[int, int]] = []
        #: The events of :attr:`trace` on port rails, in trace order.
        self.port_events: Trace = []

    # -- stimulus ----------------------------------------------------------

    @property
    def quiescent(self) -> bool:
        return not self._queue

    def set_primary(self, net: int, level: int, at_time: int | None = None) -> None:
        """Schedule an environment transition on a primary-input net.

        Setting the level the net is already heading for is a silent no-op,
        so callers may re-assert levels without polluting the trace.
        """
        self.set_primaries(((net, level),), at_time)

    def set_primaries(
        self, events: Iterable[tuple[int, int]], at_time: int | None = None
    ) -> None:
        """Schedule ``(net, level)`` environment transitions, in order, at one time.

        Leaves exactly the state that one :meth:`set_primary` call per event
        would leave, also when an event is refused: the events before it
        stay scheduled and the error is the one that call would raise.  A
        level must be the int 0 or 1, and ``at_time`` an int (not a bool) or
        None for the clock; a bad ``at_time`` schedules nothing.
        """
        clock = self.clock
        t = clock if at_time is None else at_time
        if t.__class__ is not int:
            raise ValueError(f"at_time must be an int or None, got {at_time!r}")
        primary = self.netlist.primary_inputs
        projected = self._projected
        pending = self._pending_time
        scheduled = []  # trace tuples, queued together once the loop ends
        try:
            for net, level in events:
                if net not in primary:
                    raise NotPrimaryError(f"net {net} is not a primary input")
                if level.__class__ is not int or level not in (0, 1):
                    raise ValueError(f"level must be 0 or 1, got {level!r}")
                if t < clock:
                    raise ValueError(f"cannot schedule at {t}, clock is already {clock}")
                # with nothing pending, the net's last event lies at or before the clock
                if t < pending.get(net, 0):
                    raise ValueError(f"net {net} already has an event after t={t}")
                if level == projected[net]:
                    continue
                projected[net] = level
                pending[net] = t
                scheduled.append((t, net, level, ENV))
        finally:
            # queued as one call per event would queue them
            if scheduled:
                queue = self._queue
                if self._batched:
                    batch = self._batches.get(t)
                    if batch is None:
                        self._batches[t] = scheduled
                        heappush(queue, t)
                    else:
                        batch.extend(scheduled)
                else:
                    seq = self._seq
                    for _, net, level, cause in scheduled:
                        seq += 1
                        heappush(queue, (t, net, seq, level, cause))
                    self._seq = seq

    # -- engine ------------------------------------------------------------

    def run_until_quiescent(
        self, max_time: int = DEFAULT_GUARD, until_ack: int | None = None
    ) -> int:
        """Drain the event queue; return elapsed time since the call began.

        ``max_time`` bounds the run relative to the current clock and trips
        :class:`NonQuiescentError` on oscillation.  ``until_ack`` 0 or 1
        returns after the timestep in which ``ack_out`` moves to that level;
        None drains the queue.  A ``max_time`` that is not an int >= 0, or an
        ``until_ack`` that is not None, 0 or 1 or can never fire (the netlist
        lacks ``ack_out`` or ``ack_in``), raises ``ValueError`` and runs nothing.
        """
        if max_time.__class__ is not int or max_time < 0:
            raise ValueError(f"max_time must be an int >= 0, got {max_time!r}")
        if until_ack is not None:
            if until_ack.__class__ is not int or until_ack not in (0, 1):
                raise ValueError(f"until_ack must be None, 0 or 1, got {until_ack!r}")
            if self._plan.ack_out is None:
                raise ValueError("until_ack needs a netlist with ack_out and ack_in")
        if not self._batched:
            return self._run_heap(max_time, until_ack)
        # Per-timestamp batches: _queue is a heap of the pending times and
        # _batches maps each of them to its batch.  Sorting a batch by net
        # (stably, so events on one net keep their scheduling order) gives
        # the heap's (net, seq) order.  With equal delays a timestamp's
        # successors form one list, filed at t + step; otherwise each one is
        # filed at t + delay(g).
        times = self._queue
        batches = self._batches
        levels = self.levels
        projected = self._projected
        ones = self._ones
        plan = self._plan
        fanout = plan.fanout
        rows = plan.row
        gouts = plan.output
        gdelay, step = self._gate_delay, self._step
        append = self.trace.append
        ack_edges = self.ack_edges
        port_events = self.port_events
        watch = plan.watch
        ack_out, ack_in = plan.ack_out, plan.ack_in
        start = self.clock
        deadline = start + max_time
        push, pop = heappush, heappop
        stop = False

        while times:
            t = pop(times)
            if t > deadline:
                push(times, t)  # the error leaves the pending events as they were
                raise NonQuiescentError(
                    f"no quiescence within {max_time} units (next event at t={t})"
                )
            batch = batches.pop(t)
            if len(batch) > 1:
                batch.sort(key=_NET)
            touched: list[int] = []
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
                if watch[net]:
                    if watch[net] & 1:
                        port_events.append(event)
                    if net == ack_out:
                        ack_edges.append((t, level))
                        if level == until_ack:
                            stop = True
                        # environment acknowledge inverter, zero delay
                        v = 1 - level
                        if projected[ack_in] != v:
                            # where the heap pops it: after every unprocessed
                            # event of this batch on a net up to ack_in.  The
                            # environment may put several ack_out events in one
                            # batch, so find this one by identity among the
                            # batch's ack_out run.
                            after = bisect_left(batch, ack_out, key=_NET)
                            while batch[after] is not event:
                                after += 1
                            batch.insert(bisect_right(batch, ack_in, after + 1, key=_NET),
                                         (t, ack_in, v, ENV))
                            projected[ack_in] = v
                            self._pending_time[ack_in] = t
            self.clock = t
            if step is None:
                for gid in touched:
                    v = rows[gid][ones[gid]]
                    out = gouts[gid]
                    if v == HOLD:
                        v = levels[out]
                    if v != projected[out]:
                        at = t + gdelay[gid]
                        later = batches.get(at)
                        if later is None:
                            batches[at] = [(at, out, v, gid)]
                            push(times, at)
                        else:
                            later.append((at, out, v, gid))
                        projected[out] = v
            else:
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
                    later = batches.setdefault(at, successors)
                    if later is successors:
                        push(times, at)
                    else:
                        later.extend(successors)
            if stop:
                break
        return self.clock - start

    def _run_heap(self, max_time: int, until_ack: int | None) -> int:
        """:meth:`run_until_quiescent` on the heap of events, the reference."""
        levels = self.levels
        projected = self._projected
        ones = self._ones
        plan = self._plan
        fanout = plan.fanout
        rows = plan.row
        gouts = plan.output
        trace = self.trace
        ack_edges = self.ack_edges
        port_events = self.port_events
        watch = plan.watch
        ack_out, ack_in = plan.ack_out, plan.ack_in
        start = self.clock
        deadline = start + max_time
        heap = self._queue
        gdelay = self._gate_delay
        push, pop = heappush, heappop
        seq = self._seq
        stop = False

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
                    if watch[net]:
                        if watch[net] & 1:
                            port_events.append(trace[-1])
                        if net == ack_out:
                            ack_edges.append((t, level))
                            if level == until_ack:
                                stop = True
                            # environment acknowledge inverter, zero delay
                            v = 1 - level
                            if projected[ack_in] != v:
                                seq += 1
                                push(heap, (t, ack_in, seq, v, ENV))
                                projected[ack_in] = v
                                self._pending_time[ack_in] = t
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
                if stop:
                    break
        finally:
            self._seq = seq
        return self.clock - start

    # -- observation -------------------------------------------------------

    def read_port(self, port: DualRailPort | str) -> DualRailValue:
        if not isinstance(port, DualRailPort):
            try:
                port = self.netlist.port_by_name[port]
            except (KeyError, TypeError):
                raise KeyError(f"no port named {port!r}") from None
        levels = self.levels
        return self._plan.decode[2 * levels[port.rail1] + levels[port.rail0]]

    def take_trace(self) -> Trace:
        """Hand over and clear the accumulated trace, its ack edges and port events."""
        out, self.trace = self.trace, []
        self.ack_edges = []
        self.port_events = []
        return out


def reset(netlist: Netlist, delay_model: DelayModel | None = None) -> SimState:
    """Fresh simulation state: nets at reset levels, empty queue and trace."""
    return SimState(netlist, delay_model)


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
    net_names = netlist.meta.get("net_names", {})
    if not isinstance(net_names, dict):
        raise ValueError(f"meta.net_names must be an object, got {type(net_names).__name__}")
    names = {}
    for key, name in net_names.items():
        try:
            names[int(key)] = name
        except (TypeError, ValueError):
            raise ValueError(f"meta.net_names key {key!r} is not a net id") from None
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
