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

The limits.  A settled state says nothing about time: no latency, no cycle
time, no order of arrival.  And it holds only for the patient environment,
which waits for quiescence before the next phase; the impatient one of
``Harness.run_burst`` overlaps windows and is outside the argument.

Lanes.  Each net's level is one Python int, a lane word whose bit k is the
net's level in scenario k, so one pass settles every scenario (as in
parallel-pattern simulation, Waicukauski et al., 1985): AND is ``&``, OR
is ``|`` and a C-element is ``all | (out & any)``.

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
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from .netlist import F_AND, F_C, F_OR, FAMILY, Netlist
from .sim import _Plan


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
