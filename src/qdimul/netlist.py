"""Gate-level netlist representation for dual-rail handshake circuits.

A netlist is a flat bag of gates wired through integer net ids.  Every value
that travels between circuit stages is a dual-rail pair (rail1, rail0); the
two supported signalling disciplines differ only in which level means "empty":

* RTZ (return to zero):  DATA1 = (1,0), DATA0 = (0,1), SPACER = (0,0).
* RTO (return to one):   DATA1 = (0,1), DATA0 = (1,0), SPACER = (1,1).

The remaining rail combination is ILLEGAL and must never appear on a port of
a well-formed circuit.  RTZ and RTO netlists are exact structural duals of
each other: swapping AND and OR gates of equal arity and complementing every
reset level converts one into the other (see :func:`dualize`).

Gates are either plain Boolean primitives (AND/OR/NOT) or Muller C-elements,
which drive their output to the common input level when all inputs agree and
hold it otherwise.  C-element feedback is the only state in the model, so a
netlist plus per-gate reset levels fully determines behaviour.

A :class:`Netlist` is immutable.  Building one computes only its primary
inputs and ``net_count``; who drives each net and who listens
(:meth:`Netlist.net`, ``Netlist.gate_by_id``), each port by its name
(``Netlist.port_by_name``), the validation verdict and the simulator's plan
are computed on first use and kept on the object.
:func:`serialize` and :func:`deserialize` write and read the one JSON form.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

_T = TypeVar("_T")


def _require_count(what: str, value: int, least: int | None) -> None:
    """Refuse, with ``ValueError``, a ``value`` that is not an int (or is a
    bool), or that is below ``least`` unless that is None."""
    if value.__class__ is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")


def _require_type(what: str, value: object, kind: type) -> None:
    """Refuse, with ``ValueError``, a ``value`` that is not a ``kind``."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {value!r}")


class Protocol(Enum):
    """Four-phase handshake discipline of a netlist."""

    RTZ = "rtz"
    RTO = "rto"

    @property
    def spacer_level(self) -> int:
        """Rail level that encodes "no data" (0 for RTZ, 1 for RTO)."""
        return 0 if self is Protocol.RTZ else 1

    @property
    def active_level(self) -> int:
        """Rail level a codeword drives onto exactly one rail."""
        return 1 - self.spacer_level

    @property
    def flipped(self) -> "Protocol":
        return Protocol.RTO if self is Protocol.RTZ else Protocol.RTZ


class DualRailValue(Enum):
    SPACER = "spacer"
    DATA0 = "data0"
    DATA1 = "data1"
    ILLEGAL = "illegal"

    @property
    def bit(self) -> int | None:
        """0 or 1 for data codewords, None for SPACER and ILLEGAL."""
        if self is DualRailValue.DATA0:
            return 0
        if self is DualRailValue.DATA1:
            return 1
        return None


def encode(bit: int, protocol: Protocol) -> tuple[int, int]:
    """Return the (rail1, rail0) levels that encode ``bit`` under ``protocol``."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    active, spacer = protocol.active_level, protocol.spacer_level
    return (active, spacer) if bit else (spacer, active)


def decode(rail1: int, rail0: int, protocol: Protocol) -> DualRailValue:
    """Classify a (rail1, rail0) level pair under ``protocol``."""
    spacer = protocol.spacer_level
    if rail1 == spacer and rail0 == spacer:
        return DualRailValue.SPACER
    if rail1 != spacer and rail0 != spacer:
        return DualRailValue.ILLEGAL
    return DualRailValue.DATA1 if rail1 != spacer else DualRailValue.DATA0


def _decode_table(netlist: "Netlist") -> tuple[DualRailValue, ...]:
    return tuple(decode(r1, r0, netlist.protocol) for r1 in (0, 1) for r0 in (0, 1))


class GateKind(Enum):
    # Members are singletons compared by identity, so hash them by identity
    # too: C speed, where Enum's own __hash__ runs Python code per lookup.
    __hash__ = object.__hash__

    AND2 = "and2"
    AND3 = "and3"
    AND4 = "and4"
    OR2 = "or2"
    OR3 = "or3"
    OR4 = "or4"
    NOT = "not"
    C2 = "c2"
    C3 = "c3"


#: Gate families as evaluated: AND, OR, NOT and C-element of any arity.
F_AND, F_OR, F_NOT, F_C = 0, 1, 2, 3

#: Each kind's (family, arity); every per-kind map below derives from it.
_SHAPE: dict[GateKind, tuple[int, int]] = {
    GateKind.AND2: (F_AND, 2),
    GateKind.AND3: (F_AND, 3),
    GateKind.AND4: (F_AND, 4),
    GateKind.OR2: (F_OR, 2),
    GateKind.OR3: (F_OR, 3),
    GateKind.OR4: (F_OR, 4),
    GateKind.NOT: (F_NOT, 1),
    GateKind.C2: (F_C, 2),
    GateKind.C3: (F_C, 3),
}

FAMILY: dict[GateKind, int] = {k: f for k, (f, _) in _SHAPE.items()}
ARITY: dict[GateKind, int] = {k: a for k, (_, a) in _SHAPE.items()}
STATEFUL: frozenset[GateKind] = frozenset(k for k, f in FAMILY.items() if f == F_C)

_DUAL_FAMILY = {F_AND: F_OR, F_OR: F_AND, F_NOT: F_NOT, F_C: F_C}
_KIND_OF_SHAPE = {shape: k for k, shape in _SHAPE.items()}
#: AND <-> OR of equal arity; NOT and C-elements are self-dual.
DUAL_KIND: dict[GateKind, GateKind] = {
    k: _KIND_OF_SHAPE[_DUAL_FAMILY[f], a] for k, (f, a) in _SHAPE.items()}


def eval_family(
    family: int, nets: Sequence[int], levels: Sequence[int] | Mapping[int, int], state: int
) -> int:
    """Output level of a gate of ``family`` whose inputs read ``nets`` in ``levels``.

    ``state`` is the gate's current output level; it only matters for
    C-elements, whose output holds whenever the inputs disagree.  The
    simulator derives its per-input-count gate rows from it.
    """
    if family == F_C:
        first = levels[nets[0]]
        for n in nets:
            if levels[n] != first:
                return state
        return first
    if family == F_AND:
        return int(all(levels[n] for n in nets))
    if family == F_OR:
        return int(any(levels[n] for n in nets))
    return 1 - levels[nets[0]]


@dataclass(frozen=True, slots=True)
class Gate:
    id: int
    kind: GateKind
    inputs: tuple[int, ...]
    output: int
    reset: int

    def __init__(self, id: int, kind: GateKind, inputs: tuple[int, ...], output: int,
                 reset: int) -> None:
        # Each slot's own setter: a frozen dataclass's generated __init__ calls
        # object.__setattr__ per field, which costs almost twice as much, and
        # filling an instance __dict__ instead would add 128 bytes per gate.
        _SET_ID(self, id)
        _SET_KIND(self, kind)
        _SET_INPUTS(self, inputs)
        _SET_OUTPUT(self, output)
        _SET_RESET(self, reset)


_SET_ID, _SET_KIND, _SET_INPUTS, _SET_OUTPUT, _SET_RESET = (
    Gate.__dict__[f].__set__ for f in ("id", "kind", "inputs", "output", "reset"))


@dataclass(frozen=True)
class DualRailPort:
    """A named dual-rail bit at the circuit boundary."""

    name: str
    rail1: int
    rail0: int
    direction: str  # "in" | "out"


@dataclass(frozen=True)
class Net:
    """Derived per-net view: who drives it and who listens."""

    id: int
    source: str  # "gate" | "input" | "const"
    driver_gate: int | None
    const_level: int | None
    fanout: tuple[tuple[int, int], ...]  # (gate id, input slot)


class DiagnosticCode(Enum):
    UNCONNECTED_INPUT = "UNCONNECTED_INPUT"
    MULTIPLE_DRIVERS = "MULTIPLE_DRIVERS"
    ARITY_MISMATCH = "ARITY_MISMATCH"
    COMBINATIONAL_LOOP = "COMBINATIONAL_LOOP"
    DUPLICATE_GATE_ID = "DUPLICATE_GATE_ID"
    GATE_ID_OUT_OF_RANGE = "GATE_ID_OUT_OF_RANGE"
    NEGATIVE_NET_ID = "NEGATIVE_NET_ID"
    NET_ID_TOO_LARGE = "NET_ID_TOO_LARGE"
    ALIASED_RAILS = "ALIASED_RAILS"
    ALIASED_ACK = "ALIASED_ACK"
    BAD_GATE_FIELD = "BAD_GATE_FIELD"
    BAD_NET_FIELD = "BAD_NET_FIELD"
    DUPLICATE_PORT_NAME = "DUPLICATE_PORT_NAME"


@dataclass(frozen=True)
class Diagnostic:
    code: DiagnosticCode
    message: str
    subjects: tuple[int, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.code.value}: {self.message}"


class ParseError(ValueError):
    """Raised when netlist JSON is malformed; names the offending field."""

    code = "PARSE_ERROR"

    def __init__(self, message: str, path: str = "", line: int | None = None):
        where = f" at {path}" if path else ""
        where += f" (line {line})" if line is not None else ""
        super().__init__(message + where)
        self.path = path
        self.line = line


class InvalidNetlistError(ValueError):
    """Raised when an operation requires a netlist that failed validation."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class Netlist:
    """Immutable gate-level circuit.

    Instances are built through :class:`NetlistBuilder`, :func:`deserialize`
    or :func:`dualize`.  Construction computes only ``primary_inputs`` and
    ``net_count``; the per-net views (:meth:`net`, ``gate_by_id``),
    ``port_by_name``, the validation verdict and the simulator's plan are
    built on first use and kept on the object (see :meth:`_derived`), so
    nothing may be changed after construction.
    """

    def __init__(
        self,
        protocol: Protocol,
        gates: Iterable[Gate],
        input_ports: Iterable[DualRailPort] = (),
        output_ports: Iterable[DualRailPort] = (),
        ack_out: int | None = None,
        ack_in: int | None = None,
        const_nets: Iterable[tuple[int, int]] = (),
        phase_net: int | None = None,
        extra_inputs: Iterable[int] = (),
        meta: Mapping | None = None,
    ):
        self.protocol = protocol
        self.gates = tuple(gates)
        self.input_ports = tuple(input_ports)
        self.output_ports = tuple(output_ports)
        self.ack_out = ack_out
        self.ack_in = ack_in
        self.const_nets = tuple((n, v) for n, v in const_nets)
        self.phase_net = phase_net
        self.extra_inputs = tuple(extra_inputs)
        self.meta = dict(meta or {})
        self._memo: dict[str, object] = {}
        inputs = [p.rail1 for p in self.input_ports]
        inputs += [p.rail0 for p in self.input_ports]
        inputs += self.extra_inputs
        inputs += [n for n in (ack_in, phase_net) if n is not None]
        gates = self.gates
        try:
            self.primary_inputs = frozenset(inputs)
            self.net_count = 1 + max(
                chain(
                    self.primary_inputs,
                    map(itemgetter(0), self.const_nets),
                    map(attrgetter("output"), gates),
                    chain.from_iterable(map(attrgetter("inputs"), gates)),
                    map(attrgetter("rail1"), self.output_ports),
                    map(attrgetter("rail0"), self.output_ports),
                ),
                default=-1,
            )
        except TypeError:
            self.primary_inputs, self.net_count = _int_nets(self, inputs)

    @property
    def ports(self) -> tuple[DualRailPort, ...]:
        return self.input_ports + self.output_ports

    # -- derived views, built on first use -----------------------------------

    @property
    def gate_by_id(self) -> dict[int, Gate]:
        return self._derived("gate_by_id", lambda nl: {g.id: g for g in nl.gates})

    @property
    def port_by_name(self) -> dict[str, DualRailPort]:
        """Each port by its name; :func:`validate` refuses a name two ports share."""
        return self._derived("port_by_name", lambda nl: {p.name: p for p in nl.ports})

    @property
    def decode_table(self) -> tuple[DualRailValue, ...]:
        """``decode_table[2 * rail1 + rail0]`` is :func:`decode` of the pair."""
        return self._derived("decode_table", _decode_table)

    def net(self, net_id: int) -> Net:
        sources, fanout = self._derived("net_index", _net_index)
        src = sources.get(net_id, [])
        kind, driver, level = "none", None, None
        if len(src) == 1:
            entry = src[0]
            kind = entry[0]
            if kind == "gate":
                driver = entry[1]
            elif kind == "const":
                level = entry[1]
        return Net(net_id, kind, driver, level, tuple(fanout.get(net_id, ())))

    def gate_census(self) -> dict[GateKind, int]:
        census: dict[GateKind, int] = {}
        for g in self.gates:
            census[g.kind] = census.get(g.kind, 0) + 1
        return census

    def reset_levels(self) -> list[int]:
        """Net levels of the quiescent spacer state the circuit resets into."""
        spacer = self.protocol.spacer_level
        levels = [spacer] * self.net_count
        for n, lvl in self.const_nets:
            levels[n] = lvl
        for g in self.gates:
            levels[g.output] = g.reset
        if self.ack_in is not None:
            if self.ack_out is not None:
                levels[self.ack_in] = 1 - levels[self.ack_out]
            else:
                levels[self.ack_in] = 1 - spacer
        return levels

    def _derived(self, key: str, build: Callable[["Netlist"], _T]) -> _T:
        """``build(self)``, computed on the first call for ``key`` and kept.

        For qdimul's own per-netlist tables; the result is shared by every
        caller, so it must be treated as read-only, with one exception:
        ``"harness.cycles"``, the harness's cycle record, is a dict the
        harness fills as it runs.  A build that raises keeps nothing and
        raises again on the next call.
        """
        try:
            return self._memo[key]  # type: ignore[return-value]
        except KeyError:
            value = self._memo[key] = build(self)
            return value

    def validate(self) -> list[Diagnostic]:
        """:func:`validate`, computed once; every call returns a fresh list."""
        return list(self._derived("validate", validate))

    def require_valid(self) -> None:
        diags = self.validate()
        if diags:
            raise InvalidNetlistError(diags)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same circuit, free-form meta notes ignored."""
        if not isinstance(other, Netlist):
            return NotImplemented
        return (
            self.protocol == other.protocol
            and self.gates == other.gates
            and self.input_ports == other.input_ports
            and self.output_ports == other.output_ports
            and self.ack_out == other.ack_out
            and self.ack_in == other.ack_in
            and self.const_nets == other.const_nets
            and self.phase_net == other.phase_net
            and self.extra_inputs == other.extra_inputs
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Netlist({self.protocol.value}, {len(self.gates)} gates, "
            f"{len(self.input_ports)}+{len(self.output_ports)} ports)"
        )


def _net_index(netlist: Netlist) -> tuple[dict[int, list[tuple]], dict[int, list[tuple]]]:
    """Per-net sources (input, const or gate entries) and fanout (gate id, slot)."""
    sources: dict[int, list[tuple]] = {}
    fanout: dict[int, list[tuple[int, int]]] = {}
    for n in netlist.primary_inputs:
        sources.setdefault(n, []).append(("input",))
    for n, lvl in netlist.const_nets:
        sources.setdefault(n, []).append(("const", lvl))
    for g in netlist.gates:
        sources.setdefault(g.output, []).append(("gate", g.id))
        for slot, n in enumerate(g.inputs):
            fanout.setdefault(n, []).append((g.id, slot))
    return sources, fanout


# ---------------------------------------------------------------------------
# validation


#: Net ids may leave gaps, but the simulator allocates tables over
#: ``net_count``, so ids must stay below this many per driven net (+1).
NET_IDS_PER_DRIVEN_NET = 16


def _int_nets(netlist: Netlist, inputs: list) -> tuple[frozenset, int]:
    """``(primary_inputs, net_count)`` of ``netlist`` over its int net ids alone.

    For a netlist with a net id of another type, which may fail to hash or to
    compare, or with gate inputs that do not iterate; :func:`validate` names
    each such field.
    """
    nets = [*inputs, *map(itemgetter(0), netlist.const_nets)]
    for g in netlist.gates:
        nets.append(g.output)
        if isinstance(g.inputs, Iterable):
            nets += g.inputs
    nets += [r for p in netlist.output_ports for r in (p.rail1, p.rail0)]
    return (frozenset(n for n in inputs if n.__class__ is int),
            1 + max((n for n in nets if n.__class__ is int), default=-1))


def validate(netlist: Netlist) -> list[Diagnostic]:
    """Structural checks; an empty result means the simulator accepts it.

    First checks the fields: each gate's inputs are a sequence, its id, input
    and output nets are ints (not bools), its kind is a :class:`GateKind` and
    its reset is 0 or 1, every port name is a str, and every port rail,
    ``ack_out``, ``ack_in``, ``phase_net``, extra input and constant net is
    an int and every constant level is the int 0 or 1 (``Netlist`` keeps
    the constant pairs as given).
    A netlist with a bad field gets only those diagnostics
    (``BAD_GATE_FIELD``, whose subject is the gate's position in
    ``netlist.gates``, and ``BAD_NET_FIELD``, which names the field), since
    the other checks compare and index by these fields.
    Then checks that gate ids are exactly ``0..len(gates)-1`` and net ids are
    non-negative and below :data:`NET_IDS_PER_DRIVEN_NET` times the count of
    driven nets (the simulator indexes its tables by them), single
    drivership, gate arity, port connectivity with two distinct rails per
    port and no input-port rail shared with another input port, the phase
    net or ``ack_in`` (a phase net on ``ack_in`` is legal), port names
    no two ports share (``DUPLICATE_PORT_NAME``), a driven
    ``ack_out`` on a net other than ``ack_in`` (the acknowledge would
    otherwise feed itself back at the same instant), and the absence of
    combinational cycles.  A cycle is legal only if it passes through a
    C-element, which is the one place feedback is allowed to hold state.

    Each rule is first decided by one test over the whole netlist; only a
    rule whose test fails walks its gates, nets or ports to build its
    diagnostics.
    """
    gates, ports = netlist.gates, netlist.ports
    ids = [g.id for g in gates]
    outputs = [g.output for g in gates]
    resets = [g.reset for g in gates]
    rails = [r for p in ports for r in (p.rail1, p.rail0)]
    ack_out, ack_in = netlist.ack_out, netlist.ack_in
    named = [n for n in (ack_out, ack_in, netlist.phase_net) if n is not None]
    consts = [n for n, _ in netlist.const_nets]
    const_levels = [v for _, v in netlist.const_nets]
    try:
        # a kind that is not a GateKind fails the lookup (GateKind hashes by
        # identity), and inputs that are not a sequence fail to iterate
        arities = [ARITY[g.kind] for g in gates]
        pins = list(chain.from_iterable([g.inputs for g in gates]))
    except (KeyError, TypeError):
        return _check_fields(netlist)
    # Checked by type: a bool, or a float equal to an int, passes every
    # comparison the other checks make.
    names = [p.name for p in ports]
    if not ({*map(type, ids), *map(type, outputs), *map(type, pins), *map(type, resets),
             *map(type, rails), *map(type, named), *map(type, netlist.extra_inputs),
             *map(type, consts), *map(type, const_levels)} <= {int}
            and {*resets, *const_levels} <= {0, 1} and {*map(type, names)} <= {str}):
        return _check_fields(netlist)

    diags: list[Diagnostic] = []
    n_gates = len(gates)
    if sorted(ids) != [*range(n_gates)]:
        for gid, count in sorted(Counter(ids).items()):
            if not 0 <= gid < n_gates:
                diags.append(Diagnostic(DiagnosticCode.GATE_ID_OUT_OF_RANGE,
                                        f"gate id {gid} is outside 0..{n_gates - 1}", (gid,)))
            if count > 1:
                diags.append(Diagnostic(DiagnosticCode.DUPLICATE_GATE_ID,
                                        f"gate id {gid} is used by {count} gates", (gid,)))

    nets = (pins, outputs, rails, consts, named, netlist.extra_inputs)
    if min(chain(*nets), default=0) < 0:
        for n in sorted({n for n in chain(*nets) if n < 0}):
            diags.append(Diagnostic(DiagnosticCode.NEGATIVE_NET_ID, f"net id {n} is negative",
                                    (n,)))

    drivers = [*netlist.primary_inputs, *consts, *outputs]
    bound = NET_IDS_PER_DRIVEN_NET * (len(drivers) + 1)
    if netlist.net_count > bound:
        top = netlist.net_count - 1
        diags.append(Diagnostic(
            DiagnosticCode.NET_ID_TOO_LARGE,
            f"net id {top} is past {bound - 1}, the bound for {len(drivers)} driven nets",
            (top,)))

    claimed = set(drivers)
    if len(claimed) != len(drivers):
        for n, count in sorted(Counter(drivers).items()):
            if count > 1:
                diags.append(Diagnostic(DiagnosticCode.MULTIPLE_DRIVERS,
                                        f"net {n} has {count} drivers", (n,)))

    arities_match = [len(g.inputs) for g in gates] == arities
    if not (arities_match and claimed.issuperset(pins)):
        for g, want in zip(gates, arities):
            if len(g.inputs) != want:
                diags.append(Diagnostic(
                    DiagnosticCode.ARITY_MISMATCH,
                    f"gate {g.id} ({g.kind.value}) has {len(g.inputs)} inputs, expects {want}",
                    (g.id,)))
            for slot, n in enumerate(g.inputs):
                if n not in claimed:
                    diags.append(Diagnostic(DiagnosticCode.UNCONNECTED_INPUT,
                                            f"gate {g.id} input {slot} reads undriven net {n}",
                                            (g.id, n)))

    in_rails = 2 * len(netlist.input_ports)  # the first rails are the input ports'
    if (any(p.rail1 == p.rail0 for p in ports) or not claimed.issuperset(rails)
            or len(set(rails[:in_rails])) != in_rails
            or not {netlist.phase_net, ack_in}.isdisjoint(rails[:in_rails])):
        first: dict[int, int] = {}  # each input rail -> the first input port on it
        handshake = (("the phase net", netlist.phase_net), ("ack_in", ack_in))
        for i, p in enumerate(ports):
            if p.rail1 == p.rail0:
                diags.append(Diagnostic(DiagnosticCode.ALIASED_RAILS,
                                        f"port {p.name!r} uses net {p.rail1} for both rails",
                                        (p.rail1,)))
            for n in dict.fromkeys((p.rail1, p.rail0)) if 2 * i < in_rails else ():
                if first.setdefault(n, i) != i:
                    diags.append(Diagnostic(DiagnosticCode.ALIASED_RAILS,
                                            f"input ports {ports[first[n]].name!r} and "
                                            f"{p.name!r} share net {n}", (n,)))
                diags += [Diagnostic(DiagnosticCode.ALIASED_RAILS,
                                     f"input port {p.name!r} shares net {n} with {what}", (n,))
                          for what, net in handshake if n == net]
            for rail_name, n in (("rail1", p.rail1), ("rail0", p.rail0)):
                if n not in claimed:
                    diags.append(Diagnostic(
                        DiagnosticCode.UNCONNECTED_INPUT,
                        f"port {p.name!r} {rail_name} dangles on undriven net {n}", (n,)))

    if len(set(names)) != len(names):
        for name, count in Counter(names).items():
            if count > 1:
                diags.append(Diagnostic(DiagnosticCode.DUPLICATE_PORT_NAME,
                                        f"port name {name!r} is used by {count} ports"))

    if ack_out is not None and ack_out not in claimed:
        diags.append(Diagnostic(DiagnosticCode.UNCONNECTED_INPUT,
                                f"ack_out dangles on undriven net {ack_out}", (ack_out,)))
    if ack_out is not None and ack_out == ack_in:
        diags.append(Diagnostic(DiagnosticCode.ALIASED_ACK,
                                f"ack_out and ack_in share net {ack_out}", (ack_out,)))

    # No cycle when net ids rise along every Boolean path, as they do in
    # every netlist NetlistBuilder makes; matching arities keep max() off
    # empty inputs.
    if arities_match:
        for g in gates:
            if g.kind not in STATEFUL and max(g.inputs) >= g.output:
                break
        else:
            return diags
    diags.extend(_find_combinational_loop(netlist))
    return diags


def _check_fields(netlist: Netlist) -> list[Diagnostic]:
    """One diagnostic per gate or net field of a type :func:`validate` refuses."""
    diags: list[Diagnostic] = []
    for i, g in enumerate(netlist.gates):
        fields = [("id", g.id, g.id.__class__ is int, "an int"),
                  ("kind", g.kind, g.kind.__class__ is GateKind, "a GateKind")]
        if isinstance(g.inputs, Iterable):
            fields += [(f"inputs[{slot}]", n, n.__class__ is int, "an int")
                       for slot, n in enumerate(g.inputs)]
        else:
            fields.append(("inputs", g.inputs, False, "a sequence of ints"))
        fields += [("output", g.output, g.output.__class__ is int, "an int"),
                   ("reset", g.reset, g.reset.__class__ is int and g.reset in (0, 1), "0 or 1")]
        for name, value, ok, want in fields:
            if not ok:
                diags.append(Diagnostic(DiagnosticCode.BAD_GATE_FIELD,
                                        f"gates[{i}].{name} is {value!r}, expected {want}", (i,)))
    nets = [(f"ports[{i}].{rail}", n) for i, p in enumerate(netlist.ports)
            for rail, n in (("rail1", p.rail1), ("rail0", p.rail0))]
    nets += [(name, n) for name, n in (("ack_out", netlist.ack_out), ("ack_in", netlist.ack_in),
                                       ("phase_net", netlist.phase_net)) if n is not None]
    nets += [(f"extra_inputs[{i}]", n) for i, n in enumerate(netlist.extra_inputs)]
    nets += [(f"const_nets[{i}][0]", n) for i, (n, _) in enumerate(netlist.const_nets)]
    fields = [(f"ports[{i}].name", p.name, p.name.__class__ is str, "a str")
              for i, p in enumerate(netlist.ports)]
    fields += [(name, n, n.__class__ is int, "an int") for name, n in nets]
    fields += [(f"const_nets[{i}]", pair, pair[1].__class__ is int and pair[1] in (0, 1),
                "a level of 0 or 1") for i, pair in enumerate(netlist.const_nets)]
    for name, value, ok, want in fields:
        if not ok:
            diags.append(Diagnostic(DiagnosticCode.BAD_NET_FIELD,
                                    f"{name} is {value!r}, expected {want}"))
    return diags


def _find_combinational_loop(netlist: Netlist) -> list[Diagnostic]:
    gates = netlist.gates
    driver_of = {g.output: i for i, g in enumerate(gates)}
    # Edges between plain Boolean gates only, keyed by gate position (ids may
    # repeat); C-elements break the path.
    succ: dict[int, list[int]] = {}
    for i, g in enumerate(gates):
        if g.kind in STATEFUL:
            continue
        for n in g.inputs:
            d = driver_of.get(n)
            if d is not None and gates[d].kind not in STATEFUL:
                succ.setdefault(d, []).append(i)

    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    for start in sorted(succ, key=lambda i: (gates[i].id, i)):
        if color.get(start, WHITE) != WHITE:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        path = [start]
        color[start] = GREY
        while stack:
            node, idx = stack[-1]
            nexts = succ.get(node, ())
            if idx < len(nexts):
                stack[-1] = (node, idx + 1)
                child = nexts[idx]
                c = color.get(child, WHITE)
                if c == GREY:
                    cycle = [gates[i].id for i in path[path.index(child):] + [child]]
                    return [
                        Diagnostic(
                            DiagnosticCode.COMBINATIONAL_LOOP,
                            "combinational cycle without a C-element: "
                            + " -> ".join(str(x) for x in cycle),
                            tuple(cycle[:-1]),
                        )
                    ]
                if c == WHITE:
                    color[child] = GREY
                    stack.append((child, 0))
                    path.append(child)
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return []


# ---------------------------------------------------------------------------
# dualization


def dualize(netlist: Netlist) -> Netlist:
    """Map a netlist onto its opposite-protocol twin.

    AND-kind gates become the OR-kind of equal arity and vice versa, every
    stored reset level and constant is complemented, and the protocol tag is
    flipped.  Ports, net ids and wiring are untouched, so the function is an
    involution: ``dualize(dualize(n)) == n``.
    """
    netlist.require_valid()
    gates = tuple(
        Gate(g.id, DUAL_KIND[g.kind], g.inputs, g.output, 1 - g.reset)
        for g in netlist.gates
    )
    meta = dict(netlist.meta)
    if "protocol" in meta:
        meta["protocol"] = netlist.protocol.flipped.value
    twin = Netlist(
        protocol=netlist.protocol.flipped,
        gates=gates,
        input_ports=netlist.input_ports,
        output_ports=netlist.output_ports,
        ack_out=netlist.ack_out,
        ack_in=netlist.ack_in,
        const_nets=tuple((n, 1 - v) for n, v in netlist.const_nets),
        phase_net=netlist.phase_net,
        extra_inputs=netlist.extra_inputs,
        meta=meta,
    )
    # Ids, wiring, arity, field types and the set of stateful gates are
    # unchanged and resets and constant levels stay 0 or 1, and validation
    # reads nothing else, so the twin inherits the verdict.
    twin._memo["validate"] = netlist._derived("validate", validate)
    return twin


# ---------------------------------------------------------------------------
# builder


@dataclass
class NetlistBuilder:
    """Mutable accumulator that yields an immutable :class:`Netlist`.

    Net ids are dense and assigned in creation order, which keeps generated
    netlists diffable across runs.  Gate reset levels are computed from the
    quiescent spacer state: Boolean gates get the value they would settle to,
    C-elements default to the spacer level (their inputs disagree at reset in
    registering positions, so the level must be chosen, and the spacer level
    is the one every handshake circuit here resets into).
    """

    protocol: Protocol
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._gates: list[Gate] = []
        self._next_net = 0
        self._reset: dict[int, int] = {}
        self._inputs: list[int] = []
        self._consts: list[tuple[int, int]] = []
        self._in_ports: list[DualRailPort] = []
        self._out_ports: list[DualRailPort] = []
        self.net_names: dict[int, str] = {}

    @property
    def gate_count(self) -> int:
        return len(self._gates)

    def _new_net(self, name: str | None = None) -> int:
        nid = self._next_net
        self._next_net += 1
        if name:
            self.net_names[nid] = name
        return nid

    def input_net(self, name: str | None = None, reset: int | None = None) -> int:
        nid = self._new_net(name)
        self._inputs.append(nid)
        self._reset[nid] = self.protocol.spacer_level if reset is None else reset
        return nid

    def const_net(self, level: int, name: str | None = None) -> int:
        nid = self._new_net(name)
        self._consts.append((nid, level))
        self._reset[nid] = level
        return nid

    def gate(
        self,
        kind: GateKind,
        inputs: Iterable[int],
        reset: int | None = None,
        name: str | None = None,
    ) -> int:
        ins = tuple(inputs)
        if len(ins) != ARITY[kind]:
            raise ValueError(f"{kind.value} expects {ARITY[kind]} inputs, got {len(ins)}")
        out = self._new_net(name)
        if kind in STATEFUL:
            if reset is None:
                reset = self.protocol.spacer_level
            settled = eval_family(FAMILY[kind], ins, self._reset, reset)
            if settled != reset:
                raise ValueError(
                    f"gate {len(self._gates)} ({kind.value}) cannot rest at {reset} "
                    f"with input resets {[self._reset[n] for n in ins]}"
                )
        else:
            computed = eval_family(FAMILY[kind], ins, self._reset, 0)
            if reset is not None and reset != computed:
                raise ValueError(
                    f"{kind.value} reset {reset} contradicts input resets "
                    f"{[self._reset[n] for n in ins]}"
                )
            reset = computed
        self._reset[out] = reset
        self._gates.append(Gate(len(self._gates), kind, ins, out, reset))
        return out

    def dual_rail_input(self, name: str) -> DualRailPort:
        r1 = self.input_net(f"{name}.t")
        r0 = self.input_net(f"{name}.f")
        port = DualRailPort(name, r1, r0, "in")
        self._in_ports.append(port)
        return port

    def mark_output(self, name: str, rail1: int, rail0: int) -> DualRailPort:
        port = DualRailPort(name, rail1, rail0, "out")
        self._out_ports.append(port)
        self.net_names.setdefault(rail1, f"{name}.t")
        self.net_names.setdefault(rail0, f"{name}.f")
        return port

    def build(
        self,
        ack_out: int | None = None,
        ack_in: int | None = None,
        phase_net: int | None = None,
        extra_inputs: Iterable[int] = (),
    ) -> Netlist:
        meta = dict(self.meta)
        if self.net_names:
            meta.setdefault("net_names", {str(k): v for k, v in sorted(self.net_names.items())})
        covered = {p.rail1 for p in self._in_ports}
        covered |= {p.rail0 for p in self._in_ports}
        covered |= {ack_in, phase_net}
        extra = [n for n in self._inputs if n not in covered]
        for n in extra_inputs:
            if n not in covered and n not in extra:
                extra.append(n)
        return Netlist(
            protocol=self.protocol,
            gates=tuple(self._gates),
            input_ports=tuple(self._in_ports),
            output_ports=tuple(self._out_ports),
            ack_out=ack_out,
            ack_in=ack_in,
            const_nets=tuple(self._consts),
            phase_net=phase_net,
            extra_inputs=tuple(extra),
            meta=meta,
        )


# ---------------------------------------------------------------------------
# JSON serialization

_TOP_FIELDS = frozenset({"protocol", "gates", "ports", "ack_out", "ack_in", "meta"})
_GATE_FIELDS = frozenset({"id", "kind", "inputs", "output", "reset"})
_PORT_FIELDS = frozenset({"name", "dir", "rail1", "rail0"})

#: Keys inside ``meta`` that carry structural information the flat gate list
#: cannot express: constant rails, the constant-source phase line and any
#: primary-input nets that are not port rails.
_META_CONST = "const_nets"
_META_PHASE = "phase_net"
_META_EXTRA = "extra_inputs"

_KIND_BY_VALUE: dict[str, GateKind] = {k.value: k for k in GateKind}
_KIND_TEXT: dict[str, str] = {k.value: json.dumps(k.value) for k in GateKind}
_INT = frozenset({int})


def _gate_text(g: Gate) -> str:
    """One gate as ``json.dumps(..., indent=1)`` renders it inside the gate list."""
    kind = _KIND_TEXT.get(g.kind.value)
    if kind is not None and _INT.issuperset(map(type, (g.id, g.output, g.reset, *g.inputs))):
        ins = "[\n    " + ",\n    ".join(map(str, g.inputs)) + "\n   ]" if g.inputs else "[]"
        return (f'  {{\n   "id": {g.id},\n   "inputs": {ins},\n   "kind": {kind},\n'
                f'   "output": {g.output},\n   "reset": {g.reset}\n  }}')
    raw = {"id": g.id, "kind": g.kind.value, "inputs": list(g.inputs),
           "output": g.output, "reset": g.reset}
    return "  " + json.dumps(raw, indent=1, sort_keys=True).replace("\n", "\n  ")


def serialize(netlist: Netlist) -> str:
    """Render a netlist as deterministic JSON (stable key order and layout).

    The text is ``json.dumps(doc, indent=1, sort_keys=True)`` plus a newline.
    Gates are rendered from a template (:func:`_gate_text`) and spliced in
    at the top-level ``"gates"`` key; the rest goes through ``json``.
    """
    meta = dict(netlist.meta)
    if netlist.const_nets:
        meta[_META_CONST] = [[n, v] for n, v in netlist.const_nets]
    if netlist.phase_net is not None:
        meta[_META_PHASE] = netlist.phase_net
    if netlist.extra_inputs:
        meta[_META_EXTRA] = list(netlist.extra_inputs)
    doc = {
        "protocol": netlist.protocol.value,
        "gates": [],
        "ports": [
            {"name": p.name, "dir": p.direction, "rail1": p.rail1, "rail0": p.rail0}
            for p in netlist.ports
        ],
        "ack_out": netlist.ack_out,
        "ack_in": netlist.ack_in,
        "meta": meta,
    }
    text = json.dumps(doc, indent=1, sort_keys=True)
    if netlist.gates:
        # Only a top-level key starts a line with exactly one space of indent.
        head, _, tail = text.partition('\n "gates": []')
        gates = ",\n".join(map(_gate_text, netlist.gates))
        text = f'{head}\n "gates": [\n{gates}\n ]{tail}'
    return text + "\n"


def _expect(value, types, path: str):
    if not isinstance(value, types) or isinstance(value, bool):
        names = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
        raise ParseError(f"expected {names}, got {type(value).__name__}", path)
    return value


def _expect_bit(value, path: str) -> int:
    v = _expect(value, int, path)
    if v not in (0, 1):
        raise ParseError(f"expected 0 or 1, got {v}", path)
    return v


def _expect_fields(raw, fields: frozenset[str], path: str) -> None:
    """Raise on the first unknown field of ``raw``, then on the first missing one."""
    _expect(raw, dict, path)
    unknown = raw.keys() - fields
    if unknown:
        raise ParseError(f"unknown field {min(unknown)!r}", path)
    missing = fields - raw.keys()
    if missing:
        raise ParseError(f"missing field {min(missing)!r}", path)


def _parse_gate(raw, path: str) -> Gate:
    """A gate checked field by field; the error names the first bad field."""
    _expect_fields(raw, _GATE_FIELDS, path)
    kind_raw = _expect(raw["kind"], str, f"{path}.kind")
    try:
        kind = GateKind(kind_raw)
    except ValueError:
        raise ParseError(f"unknown gate kind {kind_raw!r}", f"{path}.kind") from None
    inputs = tuple(
        _expect(n, int, f"{path}.inputs[{j}]")
        for j, n in enumerate(_expect(raw["inputs"], list, f"{path}.inputs"))
    )
    return Gate(
        id=_expect(raw["id"], int, f"{path}.id"),
        kind=kind,
        inputs=inputs,
        output=_expect(raw["output"], int, f"{path}.output"),
        reset=_expect_bit(raw["reset"], f"{path}.reset"),
    )


def deserialize(text: str) -> Netlist:
    """Parse netlist JSON produced by :func:`serialize`.

    Strict by design: unknown fields anywhere outside ``meta`` are rejected
    and the error names the first offending field (unknown fields first,
    then missing ones, each in sorted order), so generated files cannot
    silently drift from the schema.  A gate that passes one combined check
    is accepted at once; any other goes through :func:`_parse_gate`, which
    finds the error.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except ValueError as exc:  # an integer literal past int's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None

    _expect_fields(doc, _TOP_FIELDS, "$")
    proto_raw = _expect(doc["protocol"], str, "protocol")
    try:
        protocol = Protocol(proto_raw)
    except ValueError:
        raise ParseError(f"unknown protocol {proto_raw!r}", "protocol") from None

    gates: list[Gate] = []
    for i, raw in enumerate(_expect(doc["gates"], list, "gates")):
        # JSON gives no int subclass but bool, so `type(x) is int` rejects bools.
        if type(raw) is dict and raw.keys() == _GATE_FIELDS:
            kind, inputs, reset = raw["kind"], raw["inputs"], raw["reset"]
            if (
                type(kind) is str
                and kind in _KIND_BY_VALUE
                and type(inputs) is list
                and _INT.issuperset(map(type, inputs))
                and type(raw["id"]) is int
                and type(raw["output"]) is int
                and type(reset) is int
                and (reset == 0 or reset == 1)
            ):
                gates.append(Gate(raw["id"], _KIND_BY_VALUE[kind], tuple(inputs),
                                  raw["output"], reset))
                continue
        gates.append(_parse_gate(raw, f"gates[{i}]"))

    in_ports: list[DualRailPort] = []
    out_ports: list[DualRailPort] = []
    for i, raw in enumerate(_expect(doc["ports"], list, "ports")):
        path = f"ports[{i}]"
        _expect_fields(raw, _PORT_FIELDS, path)
        direction = _expect(raw["dir"], str, f"{path}.dir")
        if direction not in ("in", "out"):
            raise ParseError(f"dir must be 'in' or 'out', got {direction!r}", f"{path}.dir")
        port = DualRailPort(
            name=_expect(raw["name"], str, f"{path}.name"),
            rail1=_expect(raw["rail1"], int, f"{path}.rail1"),
            rail0=_expect(raw["rail0"], int, f"{path}.rail0"),
            direction=direction,
        )
        (in_ports if direction == "in" else out_ports).append(port)

    ack_out = doc["ack_out"]
    if ack_out is not None:
        ack_out = _expect(ack_out, int, "ack_out")
    ack_in = doc["ack_in"]
    if ack_in is not None:
        ack_in = _expect(ack_in, int, "ack_in")

    meta = dict(_expect(doc["meta"], dict, "meta"))
    const_nets = []
    for i, pair in enumerate(_expect(meta.pop(_META_CONST, []), list, f"meta.{_META_CONST}")):
        path = f"meta.{_META_CONST}[{i}]"
        if len(_expect(pair, list, path)) != 2:
            raise ParseError(f"expected a [net, level] pair, got {len(pair)} items", path)
        const_nets.append((_expect(pair[0], int, f"{path}[0]"), _expect_bit(pair[1], f"{path}[1]")))
    phase_net = meta.pop(_META_PHASE, None)
    if phase_net is not None:
        phase_net = _expect(phase_net, int, f"meta.{_META_PHASE}")
    extra_inputs = tuple(
        _expect(n, int, f"meta.{_META_EXTRA}[{i}]")
        for i, n in enumerate(_expect(meta.pop(_META_EXTRA, []), list, f"meta.{_META_EXTRA}"))
    )

    return Netlist(
        protocol=protocol,
        gates=gates,
        input_ports=in_ports,
        output_ports=out_ports,
        ack_out=ack_out,
        ack_in=ack_in,
        const_nets=const_nets,
        phase_net=phase_net,
        extra_inputs=extra_inputs,
        meta=meta,
    )
