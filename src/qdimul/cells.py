"""Dual-rail cell library with explicit indication properties.

Every cell here is *indicating*: its outputs only move once the inputs they
claim to acknowledge have moved, for both data and spacer phases.  Two
degrees are distinguished:

* strong indication: no output rail leaves spacer (or returns to it) until
  every input codeword has arrived (or withdrawn);
* weak indication: individual outputs may complete early, but the last
  output always waits for the last input.

Cells are constructed in RTZ form and mapped to RTO by :func:`~.netlist.dualize`,
which keeps the two protocol families structurally identical gate for gate.

Each constructor returns a :class:`CellHandle`, a standalone netlist fragment
with named ports that can be simulated and checked on its own.  The private
``emit_*`` helpers write the same structures into a shared builder and are
what the multiplier generator composes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product

from .netlist import (
    DualRailPort,
    GateKind,
    Netlist,
    NetlistBuilder,
    Protocol,
    _require_count,
    _require_type,
    dualize,
)


class FullAdderKind(Enum):
    """Selectable full-adder internals.

    DIMS_STRONG builds both sum and carry from the eight 3-input C-element
    minterms, so every output waits for every input.  WEAK_DISJOINT reuses
    the minterm core for the sum but lets the carry complete from two inputs
    whenever they already determine it; its carry cover is disjoint, so each
    OR sees at most one active term per phase.  MAJORITY_CONTROL is a
    deliberately broken variant kept as a hazard demonstration: its carry
    cover overlaps, which produces unacknowledged transitions the
    monotonicity checker must flag.  It is excluded from benchmarks.
    """

    DIMS_STRONG = "dims"
    WEAK_DISJOINT = "weak"
    MAJORITY_CONTROL = "majority_control"


@dataclass(frozen=True)
class CellHandle:
    """A cell packaged as a self-contained netlist fragment."""

    netlist: Netlist

    @property
    def ports(self) -> dict[str, DualRailPort]:
        """Each port by its name: the netlist's ``port_by_name``."""
        return self.netlist.port_by_name


# ---------------------------------------------------------------------------
# emit helpers (RTZ wiring, composable into a larger builder)


def emit_c3(b: NetlistBuilder, x: int, y: int, z: int, as_tree: bool = False) -> int:
    """3-input C-element, either a primitive or a two-level C2 tree."""
    if as_tree:
        return b.gate(GateKind.C2, (b.gate(GateKind.C2, (x, y)), z))
    return b.gate(GateKind.C3, (x, y, z))


def emit_or4(b: NetlistBuilder, w: int, x: int, y: int, z: int, as_tree: bool = False) -> int:
    """4-input OR, either a primitive or a two-level OR2 tree."""
    if as_tree:
        return b.gate(GateKind.OR2, (b.gate(GateKind.OR2, (w, x)), b.gate(GateKind.OR2, (y, z))))
    return b.gate(GateKind.OR4, (w, x, y, z))


def emit_and2(b: NetlistBuilder, a1: int, a0: int, b1: int, b0: int) -> tuple[int, int]:
    """Strongly indicating dual-rail AND.

    One C-element per input minterm: the (1,1) minterm is the Z1 rail
    directly, the other three merge into Z0 through an OR3.  Exactly one
    minterm fires per data phase, so the OR never sees two active inputs.
    """
    m11 = b.gate(GateKind.C2, (a1, b1))
    m10 = b.gate(GateKind.C2, (a1, b0))
    m01 = b.gate(GateKind.C2, (a0, b1))
    m00 = b.gate(GateKind.C2, (a0, b0))
    z0 = b.gate(GateKind.OR3, (m10, m01, m00))
    return m11, z0


def _minterms(
    b: NetlistBuilder,
    a1: int, a0: int,
    b1: int, b0: int,
    c1: int, c0: int,
    c3_as_tree: bool,
) -> dict[tuple[int, int, int], int]:
    a_by, b_by, c_by = (a0, a1), (b0, b1), (c0, c1)
    return {
        (av, bv, cv): emit_c3(b, a_by[av], b_by[bv], c_by[cv], c3_as_tree)
        for av, bv, cv in product((0, 1), repeat=3)
    }


def _sum_rails(
    b: NetlistBuilder,
    m: dict[tuple[int, int, int], int],
    or4_as_tree: bool,
) -> tuple[int, int]:
    s1 = emit_or4(b, m[0, 0, 1], m[0, 1, 0], m[1, 0, 0], m[1, 1, 1], or4_as_tree)
    s0 = emit_or4(b, m[0, 0, 0], m[0, 1, 1], m[1, 0, 1], m[1, 1, 0], or4_as_tree)
    return s1, s0


def emit_fa_dims(
    b: NetlistBuilder,
    a1: int, a0: int,
    b1: int, b0: int,
    c1: int, c0: int,
    c3_as_tree: bool = False,
    or4_as_tree: bool = False,
) -> tuple[int, int, int, int]:
    """Strongly indicating full adder.

    All eight input minterms are built as 3-input C-elements and shared
    between the sum and carry output networks, so both outputs wait for all
    three input codewords in both phases.
    """
    m = _minterms(b, a1, a0, b1, b0, c1, c0, c3_as_tree)
    s1, s0 = _sum_rails(b, m, or4_as_tree)
    co1 = emit_or4(b, m[0, 1, 1], m[1, 0, 1], m[1, 1, 0], m[1, 1, 1], or4_as_tree)
    co0 = emit_or4(b, m[0, 0, 0], m[0, 0, 1], m[0, 1, 0], m[1, 0, 0], or4_as_tree)
    return s1, s0, co1, co0


def emit_fa_weak(
    b: NetlistBuilder,
    a1: int, a0: int,
    b1: int, b0: int,
    c1: int, c0: int,
    c3_as_tree: bool = False,
    or4_as_tree: bool = False,
) -> tuple[int, int, int, int]:
    """Weakly indicating full adder with a disjoint early-carry cover.

    The sum keeps the full minterm core and therefore indicates all three
    inputs.  The carry adds one C2 per rail for the two-addend cases: when
    the addends agree the carry is already determined and may complete
    before the carry-in arrives.  The three terms per carry rail are
    mutually exclusive, so the merging OR3 still sees at most one active
    input per phase.
    """
    m = _minterms(b, a1, a0, b1, b0, c1, c0, c3_as_tree)
    s1, s0 = _sum_rails(b, m, or4_as_tree)
    co1 = b.gate(
        GateKind.OR3,
        (b.gate(GateKind.C2, (a1, b1)), m[0, 1, 1], m[1, 0, 1]),
    )
    co0 = b.gate(
        GateKind.OR3,
        (b.gate(GateKind.C2, (a0, b0)), m[1, 0, 0], m[0, 1, 0]),
    )
    return s1, s0, co1, co0


def emit_fa_majority(
    b: NetlistBuilder,
    a1: int, a0: int,
    b1: int, b0: int,
    c1: int, c0: int,
    c3_as_tree: bool = False,
    or4_as_tree: bool = False,
) -> tuple[int, int, int, int]:
    """Full adder with a non-disjoint majority carry -- hazard demonstration.

    Functionally correct, but with all three inputs equal, all three carry
    terms fire and two of the OR3 input transitions go unacknowledged.
    """
    m = _minterms(b, a1, a0, b1, b0, c1, c0, c3_as_tree)
    s1, s0 = _sum_rails(b, m, or4_as_tree)
    co1 = b.gate(
        GateKind.OR3,
        (
            b.gate(GateKind.C2, (a1, b1)),
            b.gate(GateKind.C2, (a1, c1)),
            b.gate(GateKind.C2, (b1, c1)),
        ),
    )
    co0 = b.gate(
        GateKind.OR3,
        (
            b.gate(GateKind.C2, (a0, b0)),
            b.gate(GateKind.C2, (a0, c0)),
            b.gate(GateKind.C2, (b0, c0)),
        ),
    )
    return s1, s0, co1, co0


_FA_EMITTERS = {
    FullAdderKind.DIMS_STRONG: emit_fa_dims,
    FullAdderKind.WEAK_DISJOINT: emit_fa_weak,
    FullAdderKind.MAJORITY_CONTROL: emit_fa_majority,
}


def emit_completion(b: NetlistBuilder, ports: list[tuple[int, int]]) -> int:
    """Completion detector over dual-rail (rail1, rail0) pairs.

    Per port an OR2 reports "this port holds data"; a balanced C2 tree merges
    the reports so the root only asserts when *all* ports hold data and only
    releases when all are back at spacer.
    """
    if not ports:
        raise ValueError("completion detector needs at least one port")
    layer = [b.gate(GateKind.OR2, (r1, r0)) for r1, r0 in ports]
    while len(layer) > 1:
        nxt = [
            b.gate(GateKind.C2, (layer[i], layer[i + 1]))
            for i in range(0, len(layer) - 1, 2)
        ]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def emit_register(b: NetlistBuilder, rail: int, ack: int) -> int:
    """Half of an input latch: a C2 joining one rail with the acknowledge.

    With the acknowledge at its ready level, an incoming transition passes;
    once acknowledged, the rail is held until the opposite phase arrives.
    """
    return b.gate(GateKind.C2, (rail, ack))


def emit_constant(b: NetlistBuilder, bit: int, phase: int) -> tuple[int, int]:
    """Dual-rail constant that still handshakes.

    The active rail is wired to the environment phase line (which swings
    data/spacer exactly like an operand rail), the other rail is tied at the
    spacer level.  Statically tying both rails would freeze completion
    detection: downstream C-elements could never return to spacer.
    """
    silent = b.const_net(b.protocol.spacer_level)
    return (phase, silent) if bit else (silent, phase)


# ---------------------------------------------------------------------------
# standalone cell constructors


def _cell_builder(cell: str, protocol: Protocol, **meta) -> NetlistBuilder:
    """The RTZ builder of a cell that :func:`_finish` maps to ``protocol``.

    A ``protocol`` that is not a :class:`Protocol` raises ``ValueError``.
    """
    _require_type("protocol", protocol, Protocol)
    return NetlistBuilder(Protocol.RTZ, meta={"cell": cell, "protocol": protocol.value, **meta})


def _finish(b: NetlistBuilder, protocol: Protocol, **build_kwargs) -> CellHandle:
    net = b.build(**build_kwargs)
    return CellHandle(dualize(net) if protocol is Protocol.RTO else net)


def make_and2_strong(protocol: Protocol = Protocol.RTZ) -> CellHandle:
    """Strong-indication dual-rail AND cell with ports a, b -> z."""
    b = _cell_builder("and2_strong", protocol)
    pa, pb = b.dual_rail_input("a"), b.dual_rail_input("b")
    z1, z0 = emit_and2(b, pa.rail1, pa.rail0, pb.rail1, pb.rail0)
    b.mark_output("z", z1, z0)
    return _finish(b, protocol)


def make_full_adder(
    kind: FullAdderKind,
    protocol: Protocol = Protocol.RTZ,
    c3_as_tree: bool = False,
    or4_as_tree: bool = False,
) -> CellHandle:
    """Full adder cell with ports a, b, cin -> sum, cout.

    The arguments are typed as :class:`~qdimul.multiplier.MultiplierSpec`'s
    fields are; one of another type raises ``ValueError``.
    """
    _require_type("kind", kind, FullAdderKind)
    b = _cell_builder(f"full_adder_{kind.value}", protocol, fa_kind=kind.value)
    for name, flag in (("c3_as_tree", c3_as_tree), ("or4_as_tree", or4_as_tree)):
        _require_type(name, flag, bool)
    pa, pb, pc = b.dual_rail_input("a"), b.dual_rail_input("b"), b.dual_rail_input("cin")
    s1, s0, co1, co0 = _FA_EMITTERS[kind](
        b,
        pa.rail1, pa.rail0,
        pb.rail1, pb.rail0,
        pc.rail1, pc.rail0,
        c3_as_tree=c3_as_tree,
        or4_as_tree=or4_as_tree,
    )
    b.mark_output("sum", s1, s0)
    b.mark_output("cout", co1, co0)
    return _finish(b, protocol)


def make_completion_detector(n_ports: int, protocol: Protocol = Protocol.RTZ) -> CellHandle:
    """Completion detector cell over ``n_ports`` dual-rail inputs.

    The root net is exposed as ``ack_out``: it asserts when every port holds
    data (RTZ: rises; RTO: falls) and returns once every port is at spacer.
    """
    _require_count("n_ports", n_ports, 1)
    b = _cell_builder("completion_detector", protocol, n_ports=n_ports)
    pairs = []
    for i in range(n_ports):
        p = b.dual_rail_input(f"x{i}")
        pairs.append((p.rail1, p.rail0))
    root = emit_completion(b, pairs)
    return _finish(b, protocol, ack_out=root)


def make_register_bank(n_ports: int, protocol: Protocol = Protocol.RTZ) -> CellHandle:
    """Input latch bank: per dual-rail port two C2s gated by ``ack_in``."""
    _require_count("n_ports", n_ports, 1)
    b = _cell_builder("register_bank", protocol, n_ports=n_ports)
    ack = b.input_net("ack_in", reset=1)
    for i in range(n_ports):
        p = b.dual_rail_input(f"x{i}")
        y1 = emit_register(b, p.rail1, ack)
        y0 = emit_register(b, p.rail0, ack)
        b.mark_output(f"y{i}", y1, y0)
    return _finish(b, protocol, ack_in=ack)


def make_constant_source(bit: int, protocol: Protocol = Protocol.RTZ) -> CellHandle:
    """Constant dual-rail source synchronized to a phase input.

    Drive the ``phase`` net together with the data phase (RTZ: 1 during
    data, back to 0 for spacer; RTO dual) and port ``z`` emits the codeword
    for ``bit`` during data phases and SPACER in between.
    """
    if bit.__class__ is not int or bit not in (0, 1):
        raise ValueError(f"bit must be the int 0 or 1, got {bit!r}")
    b = _cell_builder("constant_source", protocol, bit=bit)
    phase = b.input_net("phase")
    z1, z0 = emit_constant(b, bit, phase)
    b.mark_output("z", z1, z0)
    return _finish(b, protocol, phase_net=phase)
