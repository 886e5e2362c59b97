"""Settled states: one zero-delay pass per phase window, every scenario at once.

The argument.  Every gate of a generated stage is an AND, an OR or a
C-element, and all three are positive unate: raising an input never lowers
the output.  In a window of a patient handshake every environment event
moves toward one level: toward the active level in the data window (every
operand rail and the phase net start at the spacer level), toward the
spacer level in the spacer window.  So within a window every net moves at
most once, in the window's direction, whatever the gate delays, and the
window ends in the state that zero-delay evaluation reaches from its start
state.  On an acyclic gate graph that is one pass in topological order: an
AND takes the AND of its inputs, an OR the OR, and a C-element goes to the
level all its inputs share, else keeps its start level.

The caveat is ``ack_in``, the one net that moves against the window: the
engine flips it the instant ``ack_out`` moves.  A gate that reads it
otherwise reads only primary inputs and constant nets, so under unit delays
its output lands no later than ``ack_out`` can move (``ack_out`` is a gate
output, one delay after the inputs at the earliest).  The settled state is
then the engine's exactly when flipping ``ack_in`` there moves no reader,
which :meth:`LanePlan.flip` checks lane by lane.  Under other delays that
needs ``ack_out`` to wait for every reader, an indication property, which
only an indication check decides.

The limits.  A settled state holds only for the patient environment, which
waits for quiescence before the next phase; the impatient one of
``Harness.run_burst`` overlaps windows and is outside the argument.

Lanes.  Each net's level is one Python int, a lane word whose bit k is the
net's level in scenario k, so one pass settles every scenario (as in
parallel-pattern simulation, Waicukauski et al., 1985): AND is ``&``, OR
is ``|`` and a C-element is ``all | (out & any)``.

Timed lanes.  :func:`run_cycles` gives every operand pair's
``CycleReport`` without the engine.  Since a net moves at most once per
window, in the window's direction, a gate that moves does so its
transport delay after the instant its inputs decide the new level.  A
C-element, an AND in a rising window and an OR in a falling one decide at
their latest input; an AND falling and an OR rising at their earliest
input that moved.  So one pass in topological
order gives every net's time in a window (max-plus algebra: Baccelli et
al., *Synchronization and Linearity*, 1992).  Where the merge rule holds,
an AND falling or an OR rising has exactly one input that moved, so its
earliest is that input's time.  A net that did not move keeps time 0,
the time of the environment's events.  The forward or reverse latency is
``ack_out``'s time, and a window ends at its last net's time; every net
whose reader moves is earlier than that reader, so the last is among the
nets none of whose readers moves.  Transitions are twice the nets that
move in the data window, ``ack_in`` included: each moves back in the
spacer window.

Each pair is one field of a word (SWAR: Fisher & Dietz, 1998), so one
big-int operation serves every pair.  The levels are words of the same
layout, each field all ones or all zeros, so the settle gives each window's
moved words as masks of the times.  A field takes the bits of the gate
count times the largest delay (no time can exceed it) or of the net count
(the transitions), and one clear top bit: ``(a | top) - b`` then keeps the
top bit exactly where ``a >= b``, with no borrow between fields, which
gives the per-field maximum.  Pairs go in chunks of :data:`CHUNK`, so the
words stay bounded.

A pair whose cycle leaves the argument makes :func:`run_cycles` raise
:class:`NotSettleableError`, never a wrong report.  It refuses a stage
whose ports do not all start at the spacer on rails of their own
(``PORT``), or with an AND or OR that reads ``ack_in`` on two pins
(``MERGE``).  Then, chunk by chunk, it refuses for the first of these
rules that a pair breaks, naming the chunk's lowest such pair:

- ``COMPLETION``: ``ack_out`` moves to the active level in the data
  window and back in the spacer window;
- ``MERGE``: no AND or OR gate gets two firing inputs in one window;
- ``PRODUCT``: every product port completes, and they decode to ``a * b``;
- ``ACK_IN_FLIP``: the ``ack_in`` flip moves no reader;
- ``PORT``: each window moves exactly one rail of each port;
- ``RESET``: the cycle ends in the reset state;
- ``ACK_IN_LATE``: under each model, no ``ack_in`` reader moves after
  ``ack_out`` in a window (the engine would see the flip first);
- ``GUARD``: under each model, no phase outlasts the engine's
  ``DEFAULT_GUARD``.

The order.  :func:`gate_order` is qdimul's one topological sort of the
gate graph (Kahn, 1962): :class:`LanePlan` settles in it and
``multiplier.critical_path`` walks it.  Its one refusal is a gate cycle,
which ``validate`` allows through a C-element: reason ``CYCLE`` below.

A netlist outside the precondition gets :class:`NotSettleableError`, whose
``reason`` names the rule it breaks:

- ``GATE_KIND``: every gate is an AND, an OR or a C-element;
- ``CYCLE``: the gate graph is acyclic;
- ``HANDSHAKE``: ``ack_out``, ``ack_in`` and the phase net are declared;
- ``INPUT_RESET``: every input-port rail and the phase net is a net of its
  own that resets at the spacer level;
- ``ACK_IN_READER``: every gate that reads ``ack_in`` otherwise reads only
  primary inputs and constant nets.

:func:`run_cycles` adds ``OPERANDS`` (a pair ``Harness.run_cycle``
refuses) and the reasons of "Timed lanes" above.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress
from operator import and_, invert, xor
from typing import Iterable, Sequence

from .harness import CycleReport, _require_operands, _Stage
from .netlist import F_AND, F_C, F_OR, FAMILY, Netlist
from .sim import DEFAULT_GUARD, DelayModel, _Plan


class NotSettleableError(ValueError):
    """The netlist breaks the settled-state precondition named by ``reason``."""

    code = "NOT_SETTLEABLE"

    def __init__(self, reason: str, message: str):
        super().__init__(f"{reason}: {message}")
        self.reason = reason


def _pass(gates: list[tuple[int, int, int, int, tuple[int, ...]]], words: list[int]) -> int:
    """Evaluate ``gates`` in order over lane words, in place; the lanes where an output moved."""
    moved = 0
    for family, out, x, y, rest in gates:
        a, b = words[x], words[y]
        if family == F_C:
            every, some = a & b, a | b
            for n in rest:
                w = words[n]
                every &= w
                some |= w
            level = every | (words[out] & some)
        elif family == F_OR:
            level = a | b
            for n in rest:
                level |= words[n]
        else:
            level = a & b
            for n in rest:
                level &= words[n]
        moved |= level ^ words[out]
        words[out] = level
    return moved


def gate_order(netlist: Netlist) -> list[int]:
    """Gate ids, each after every gate that drives one of its inputs; a fresh list.

    Raises what building the engine's plan raises (``InvalidNetlistError``,
    a reset that is not quiescent), then :class:`NotSettleableError` ``CYCLE``.
    """
    # Kahn's algorithm: a gate is ready once every input pin driven by a gate
    # has been ordered (fanout lists a gate once per pin)
    plan: _Plan = netlist._derived("sim.plan", _Plan)
    output, fanout = plan.output, plan.fanout
    pins = Counter(chain.from_iterable(map(fanout.__getitem__, output)))
    waiting = [pins[gid] for gid in range(len(output))]
    order = [gid for gid, w in enumerate(waiting) if not w]
    for gid in order:  # grows while it is walked
        for h in fanout[output[gid]]:
            waiting[h] -= 1
            if not waiting[h]:
                order.append(h)
    if len(order) < len(output):
        stuck = next(gid for gid, w in enumerate(waiting) if w)
        raise NotSettleableError(
            "CYCLE", f"gate {stuck} is on a cycle of the gate graph or fed by one")
    return order


class LanePlan:
    """A netlist's gates in topological order and its ``ack_in`` readers.

    Built from the engine's plan (``sim._Plan``); raises
    :class:`NotSettleableError` for a netlist outside the precondition of
    the module docstring.  Nothing here is mutated after construction.
    """

    def __init__(self, netlist: Netlist):
        plan: _Plan = netlist._derived("sim.plan", _Plan)
        gates, fanout = plan._gates, plan.fanout
        for g in gates:
            if FAMILY[g.kind] not in (F_AND, F_OR, F_C):
                raise NotSettleableError(
                    "GATE_KIND", f"gate {g.id} ({g.kind.value}) is not an AND, OR or C-element")
        order = gate_order(netlist)

        ack_out, ack_in, phase = netlist.ack_out, netlist.ack_in, netlist.phase_net
        for what, net in (("ack_out", ack_out), ("ack_in", ack_in), ("a phase net", phase)):
            if net is None:
                raise NotSettleableError("HANDSHAKE", f"the netlist declares no {what}")

        # validate leaves every primary input at the spacer level but ack_in,
        # and keeps input-port rails off each other, the phase net and ack_in,
        # so a phase net on ack_in is the way to break this
        spacer, levels = netlist.protocol.spacer_level, plan.reset_levels
        inputs = [r for p in netlist.input_ports for r in (p.rail1, p.rail0)] + [phase]
        seen = {ack_in}
        for net in inputs:
            if net in seen or levels[net] != spacer:
                raise NotSettleableError(
                    "INPUT_RESET", f"input net {net} does not reset at the spacer level on "
                    "a net of its own")
            seen.add(net)

        steady = netlist.primary_inputs | {n for n, _ in netlist.const_nets}
        readers = list(dict.fromkeys(fanout[ack_in]))
        for gid in readers:
            other = next((n for n in gates[gid].inputs if n not in steady), None)
            if other is not None:
                raise NotSettleableError(
                    "ACK_IN_READER", f"gate {gid} reads ack_in and net {other}, which is "
                    "neither a primary input nor a constant")

        def table(ids: list[int]) -> list[tuple[int, int, int, int, tuple[int, ...]]]:
            # every kind left has two inputs or more
            return [(FAMILY[g.kind], g.output, *g.inputs[:2], g.inputs[2:])
                    for g in map(gates.__getitem__, ids)]

        self.ack_out, self.ack_in = ack_out, ack_in
        self._ids = order
        self._order = table(order)
        self._readers = table(readers)

    def settle(self, words: list[int]) -> None:
        """Bring every net's lane word to its zero-delay fixpoint, in place.

        ``words[net]`` is the net's lane word at the start of a window, with
        the window's environment events applied.
        """
        _pass(self._order, words)

    def flip(self, words: list[int], full: int) -> int:
        """Make ``ack_in`` the complement of ``ack_out``; the lanes where a reader moves.

        ``full`` has one bit set per lane.  A settled state that the flip
        leaves in place is the engine's (module docstring).  Readers that
        move are updated, but their fanout is not.
        """
        words[self.ack_in] = words[self.ack_out] ^ full
        return _pass(self._readers, words)


def lane_plan(netlist: Netlist) -> LanePlan:
    """The netlist's :class:`LanePlan`, built once and kept on the netlist.

    A refusal is not kept: it is raised again, freshly built, on every call.
    """
    return netlist._derived("settle.plan", LanePlan)


#: Most operand pairs settled at once; a chunk's words hold one field per pair.
CHUNK = 1024

#: What a lane that breaks each rule does, by the reason :func:`run_cycles` raises.
_BROKEN = {
    "COMPLETION": "ack_out does not assert in the data window and release in the spacer window",
    "MERGE": "an AND or OR gate gets two firing inputs in one window",
    "PRODUCT": "the product ports do not decode to the product",
    "ACK_IN_FLIP": "the ack_in flip moves a reader",
    "PORT": "a port does not move exactly one rail",
    "RESET": "the cycle ends away from the reset state",
}


def _lanes(bits: Sequence[int], size: int) -> int:
    """A word of ``size``-byte fields, field k all ones where ``bits[k]`` is 1, else 0."""
    raw = bytearray(len(bits) * size)
    raw[::size] = bytes(bits)
    return int.from_bytes(raw, "little") * ((1 << 8 * size) - 1)


def _fields(word: int, lanes: int, size: int) -> list[int]:
    """The ``lanes`` fields of ``size`` bytes of ``word``, field 0 first."""
    raw = word.to_bytes(lanes * size, "little")
    return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


def _refusal(reason: str, k: int, chunk: list, first: int, what: str) -> NotSettleableError:
    """:class:`NotSettleableError` ``reason`` for lane ``k`` of the chunk from pair ``first``."""
    return NotSettleableError(reason, f"pair {first + k} {tuple(chunk[k])}: {what}")


def _lowest(word: int, size: int) -> int:
    """The lowest lane with a bit set in ``word``, of fields of ``size`` bytes."""
    return ((word & -word).bit_length() - 1) // (8 * size)


def _window(plan: LanePlan, words: list[int], start: list[int],
            family: int) -> tuple[list[int], list[int], int]:
    """Settle one window in place: each net's moved word, the last movers, two firings.

    A gate of ``family`` fires on every input that moves in this window.
    The last movers are the nets that move in a lane where no reader of
    theirs moves, so the window ends at one of their times.
    """
    plan.settle(words)
    moved = list(map(xor, words, start))
    fed = [0] * len(moved)
    two = 0
    for fam, out, x, y, rest in plan._order:
        m = moved[out]
        if m:
            fed[x] |= m
            fed[y] |= m
            for n in rest:
                fed[n] |= m
        if fam == family:
            seen = moved[x]
            two |= seen & moved[y]
            seen |= moved[y]
            for n in rest:
                two |= seen & moved[n]
                seen |= moved[n]
    last = list(compress(range(len(moved)), map(and_, moved, map(invert, fed))))
    return moved, last, two


def _settle(netlist: Netlist, plan: LanePlan, stage: _Stage, chunk: list, ones: int,
            size: int, families: tuple[int, int], first: int):
    """Both windows of a chunk's cycles: per window its moved words and last
    movers, and per lane the cycle's transitions.  Raises for a lane that
    breaks a rule of :data:`_BROKEN`."""
    full = ones * ((1 << 8 * size) - 1)
    reset = [full if level else 0 for level in stage.reset_levels]
    words = reset.copy()
    n = len(stage.a_ports)
    operands = [a | b << n for a, b in chunk]
    for i, (zero, one) in enumerate(stage.operand_events):
        bits = _lanes([word >> i & 1 for word in operands], size)
        for (net, level0), (_, level1) in zip(zero, one):
            words[net] = (full if level0 else 0) ^ (bits if level0 != level1 else 0)
    net, active = stage.phase_active
    asserted = full if active else 0
    words[net] = asserted
    ack, ack_in = plan.ack_out, plan.ack_in

    data, data_last, two = _window(plan, words, reset, families[0])
    failed = {"COMPLETION": (words[ack] ^ asserted) | (data[ack] ^ full), "MERGE": two}
    products = [a * b for a, b in chunk]
    wrong = _lanes([p >> len(stage.out_rails) != 0 for p in products], size)
    for i, (r1, r0) in enumerate(stage.out_rails):
        wrong |= words[r1] ^ words[r0] ^ full  # incomplete
        # a codeword's true rail is off spacer exactly for bit 1
        wrong |= words[r1] ^ asserted ^ full ^ _lanes([p >> i & 1 for p in products], size)
    failed["PRODUCT"] = wrong
    failed["ACK_IN_FLIP"] = plan.flip(words, full)
    data[ack_in] = words[ack_in] ^ reset[ack_in]
    port = 0
    for p in netlist.ports:
        port |= data[p.rail1] ^ data[p.rail0] ^ full
    failed["PORT"] = port

    start = words.copy()
    for net, level in stage.spacer_events:
        words[net] = full if level else 0
    spacer, spacer_last, two = _window(plan, words, start, families[1])
    failed["COMPLETION"] |= (words[ack] ^ asserted ^ full) | (spacer[ack] ^ full)
    failed["MERGE"] |= two
    failed["ACK_IN_FLIP"] |= plan.flip(words, full)
    back = 0
    for word, level in zip(words, reset):
        back |= word ^ level
    failed["RESET"] = back
    for reason, word in failed.items():
        if word:
            raise _refusal(reason, _lowest(word, size), chunk, first, _BROKEN[reason])
    # every net that moved in the data window moves back in the spacer window
    counts = _fields(sum(m & ones for m in data), len(chunk), size)
    return [(data, data_last), (spacer, spacer_last)], [2 * c for c in counts]


def _times(order: list, adds: list[int], moved: list[int], last: list[int], family: int,
           high: int, shift: int) -> tuple[list[int], int]:
    """Each net's time in one window, per field, and the window's end.

    A gate of ``family`` takes its one moved input's time, any other gate
    the latest of its inputs; a net that did not move keeps 0.  ``high``
    holds each field's top bit (bit ``shift``), which no time reaches, so
    ``(a | high) - b`` borrows from no other field and keeps that bit
    exactly where ``a >= b``.
    """
    times = [0] * len(moved)
    for (fam, out, x, y, rest), add in zip(order, adds):
        m = moved[out]
        if not m:
            continue
        if fam == family:
            t = times[x] | times[y]
            for n in rest:
                t |= times[n]
        else:
            t, a = times[x], times[y]
            g = ((a | high) - t) & high
            t ^= (a ^ t) & (g - (g >> shift))
            for n in rest:
                a = times[n]
                g = ((a | high) - t) & high
                t ^= (a ^ t) & (g - (g >> shift))
        times[out] = (t + add) & m
    end = 0
    for out in last:
        a = times[out]
        g = ((a | high) - end) & high
        end ^= (a ^ end) & (g - (g >> shift))
    return times, end


def run_cycles(netlist: Netlist, pairs: Iterable[tuple[int, int]],
               models: Iterable[DelayModel]) -> list[list[CycleReport]]:
    """``Harness(netlist, model).run_sequence(pairs)`` from reset, per model, on lanes.

    One report list per model, equal field for field to the engine's, with
    ``trace`` and ``port_fault`` None (module docstring, "Timed lanes").
    Raises what ``Harness`` raises for a netlist that is not a stage, what
    :func:`lane_plan` raises, ``ValueError`` for a model that is not a
    :class:`DelayModel`, and :class:`NotSettleableError` for an operand pair
    that ``run_cycle`` refuses (reason ``OPERANDS``, then ``run_cycle``'s
    text) and for a pair outside the argument (the reason names the rule).
    """
    stage = _Stage.of(netlist)
    pairs = list(pairs)
    try:
        _require_operands(len(stage.a_ports), pairs)
    except ValueError as exc:
        raise NotSettleableError("OPERANDS", str(exc)) from None
    models = list(models)
    for model in models:
        if not isinstance(model, DelayModel):
            raise ValueError(f"models must hold DelayModels, got {model!r}")
    plan = lane_plan(netlist)
    if stage.port_of is None:
        raise NotSettleableError(
            "PORT", "the stage's ports do not all start at the spacer on rails of their own")
    if any(fam != F_C and (x, y, *rest).count(plan.ack_in) > 1
           for fam, _out, x, y, rest in plan._readers):
        raise NotSettleableError("MERGE", "an AND or OR gate reads ack_in on two pins")
    vectors = [netlist._derived("sim.plan", _Plan).timing(m)[0] for m in models]
    # no time exceeds the gate count times the largest delay, no count the nets
    bound = max([len(v) * max(v, default=1) for v in vectors] + [netlist.net_count])
    size = (bound.bit_length() + 8) // 8  # the bound's bits and a clear top bit
    shift = 8 * size - 1
    # the gates that take their one moved input's time, in the data and spacer windows
    families = (F_OR, F_AND) if stage.phase_active[1] else (F_AND, F_OR)

    reports: list[list[CycleReport]] = [[] for _ in models]
    for first in range(0, len(pairs), CHUNK):
        chunk = pairs[first:first + CHUNK]
        lanes = len(chunk)
        ones = int.from_bytes(b"\x01".ljust(size, b"\0") * lanes, "little")
        high = ones << shift
        windows, counts = _settle(netlist, plan, stage, chunk, ones, size, families, first)
        for model, vector, out in zip(models, vectors, reports):
            adds = {d: d * ones for d in set(vector)}
            adds = [adds[vector[gid]] for gid in plan._ids]
            spans = []
            for (moved, last), family in zip(windows, families):
                times, end = _times(plan._order, adds, moved, last, family, high, shift)
                ack, late = times[plan.ack_out], 0
                for _fam, reader, *_ in plan._readers:
                    late |= ((times[reader] | high) - ack - ones) & high
                if late:
                    raise _refusal("ACK_IN_LATE", _lowest(late, size), chunk, first,
                                   f"an ack_in reader lands after ack_out under "
                                   f"{model.describe()}")
                spans += [_fields(ack, lanes, size), _fields(end, lanes, size)]
            clock = out[-1].end if out else 0
            for k, (forward, data_end, reverse, spacer_end) in enumerate(zip(*spans)):
                # the engine stops a phase that runs past DEFAULT_GUARD from the
                # clock it started at: t0 for data, the data window's end for spacer
                if data_end > DEFAULT_GUARD or spacer_end >= DEFAULT_GUARD:
                    raise _refusal("GUARD", k, chunk, first,
                                   f"a phase outlasts DEFAULT_GUARD under {model.describe()}")
                a, b = chunk[k]
                spacer_start = clock + data_end + 1
                out.append(CycleReport(a, b, a * b, forward, reverse, forward + reverse,
                                       counts[k], clock, spacer_start, spacer_start + spacer_end))
                clock = spacer_start + spacer_end
    return reports
