"""Generator for self-timed unsigned array multipliers.

An N x N multiplier is assembled from the indicating cell library: N^2
dual-rail AND cells form the partial products, which N*(N-1) full adders
reduce in N-1 addition rows followed by a ripple row.  Exactly N adder
carry inputs have no upstream signal; they are tied to constant-0 sources
that still swing between data and spacer with the environment's phase line,
so completion detection never deadlocks on a frozen rail.

The generated netlist is a complete handshake stage: operand rails pass
through a C2 input latch bank gated by ``ack_in``, and a completion detector
over all 2N product bits drives ``ack_out``.  RTZ is built directly; the RTO
variant is the exact structural dual.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import (
    _FA_EMITTERS,
    FullAdderKind,
    emit_and2,
    emit_completion,
    emit_constant,
    emit_register,
)
from .netlist import GateKind, Netlist, NetlistBuilder, Protocol, dualize
from .settle import gate_order

GENERATOR_TAG = "array_multiplier"
#: The cell counts the generator records in ``meta["counts"]``.
_COUNTS = ("and_cells", "full_adders", "constant_carries")


class NotAGeneratedMultiplierError(ValueError):
    code = "NOT_A_GENERATED_MULTIPLIER"


@dataclass(frozen=True)
class MultiplierSpec:
    """Parameters of one multiplier design point."""

    n: int
    fa_kind: FullAdderKind = FullAdderKind.DIMS_STRONG
    protocol: Protocol = Protocol.RTZ
    c3_as_tree: bool = False
    or4_as_tree: bool = False

    def __post_init__(self) -> None:
        if self.n.__class__ is not int or self.n < 2:
            raise ValueError(f"multiplier width must be an int >= 2, got {self.n!r}")
        for name, kind in (("fa_kind", FullAdderKind), ("protocol", Protocol)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        for name in ("c3_as_tree", "or4_as_tree"):
            if getattr(self, name).__class__ is not bool:
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class StructureStats:
    and_cells: int
    full_adders: int
    constant_carries: int
    c_element_count: int
    gate_count: int
    product_width: int


def generate(spec: MultiplierSpec) -> Netlist:
    """Build the multiplier netlist for ``spec``.

    Port conventions: operand bits ``a0..a{N-1}`` and ``b0..b{N-1}`` (LSB
    first), product bits ``P0..P{2N-1}``.  The ``phase`` primary input feeds
    the constant carry sources and must be driven together with the operand
    rails (the handshake harness does this automatically).
    """
    n = spec.n
    b = NetlistBuilder(Protocol.RTZ)
    fa_emit = _FA_EMITTERS[spec.fa_kind]

    a_ports = [b.dual_rail_input(f"a{j}") for j in range(n)]
    b_ports = [b.dual_rail_input(f"b{i}") for i in range(n)]
    ack_in = b.input_net("ack_in", reset=1)
    phase = b.input_net("phase")

    register_gates: list[int] = []

    def latch(rail: int) -> int:
        register_gates.append(b.gate_count)
        return emit_register(b, rail, ack_in)

    ra = [(latch(p.rail1), latch(p.rail0)) for p in a_ports]
    rb = [(latch(p.rail1), latch(p.rail0)) for p in b_ports]

    # partial products: pp[i][j] = a_j AND b_i, dual-rail (rail1, rail0)
    pp = [
        [emit_and2(b, ra[j][0], ra[j][1], rb[i][0], rb[i][1]) for j in range(n)]
        for i in range(n)
    ]

    def fa(x, y, z):
        return fa_emit(
            b,
            x[0], x[1], y[0], y[1], z[0], z[1],
            c3_as_tree=spec.c3_as_tree,
            or4_as_tree=spec.or4_as_tree,
        )

    products: list[tuple[int, int] | None] = [None] * (2 * n)
    products[0] = pp[0][0]

    # Addition rows.  Row i adds partial-product row i onto the running
    # carry-save form; each row is N-1 adders wide and exports its k=0 sum
    # as product bit i.  Row 1 absorbs the N-1 constant carries of the
    # carry-save section.
    sums: dict[tuple[int, int], tuple[int, int]] = {}
    carries: dict[tuple[int, int], tuple[int, int]] = {}
    for k in range(n - 1):
        res = fa(pp[0][k + 1], pp[1][k], emit_constant(b, 0, phase))
        sums[1, k] = (res[0], res[1])
        carries[1, k] = (res[2], res[3])
    products[1] = sums[1, 0]
    for i in range(2, n):
        for k in range(n - 1):
            left = sums[i - 1, k + 1] if k < n - 2 else pp[i - 1][n - 1]
            res = fa(left, pp[i][k], carries[i - 1, k])
            sums[i, k] = (res[0], res[1])
            carries[i, k] = (res[2], res[3])
        products[i] = sums[i, 0]

    # Ripple row: folds the last row's carries into the high product bits.
    # Its lowest carry-in is the Nth constant.
    ripple: tuple[int, int] | None = None
    for k in range(n - 1):
        left = sums[n - 1, k + 1] if k < n - 2 else pp[n - 1][n - 1]
        cin = emit_constant(b, 0, phase) if k == 0 else ripple
        res = fa(left, carries[n - 1, k], cin)
        products[n + k] = (res[0], res[1])
        ripple = (res[2], res[3])
    products[2 * n - 1] = ripple

    out_ports = [
        b.mark_output(f"P{w}", rails[0], rails[1])
        for w, rails in enumerate(products)
    ]
    ack_out = emit_completion(b, [(p.rail1, p.rail0) for p in out_ports])

    b.meta.update(
        generator=GENERATOR_TAG,
        n=n,
        fa_kind=spec.fa_kind.value,
        protocol=Protocol.RTZ.value,
        c3_as_tree=spec.c3_as_tree,
        or4_as_tree=spec.or4_as_tree,
        counts={
            "and_cells": n * n,
            "full_adders": n * (n - 1),
            "constant_carries": n,
        },
        operands={
            "a": [p.name for p in a_ports],
            "b": [p.name for p in b_ports],
        },
        products=[p.name for p in out_ports],
        register_gates=register_gates,
    )
    netlist = b.build(ack_out=ack_out, ack_in=ack_in, phase_net=phase)
    if spec.protocol is Protocol.RTO:
        netlist = dualize(netlist)
    return netlist


def _generated(netlist: Netlist) -> dict:
    """``netlist.meta``, checked to hold what :func:`generate` writes and this module reads."""
    meta = netlist.meta
    if meta.get("generator") != GENERATOR_TAG:
        raise NotAGeneratedMultiplierError(
            "netlist carries no array-multiplier generator metadata"
        )
    counts, starts = meta.get("counts"), meta.get("register_gates")
    if not isinstance(counts, dict) or any(
            counts.get(k).__class__ is not int for k in _COUNTS):
        raise NotAGeneratedMultiplierError(
            f"generator metadata 'counts' is not a table of int {', '.join(_COUNTS)}")
    if not isinstance(starts, list) or any(g.__class__ is not int for g in starts):
        raise NotAGeneratedMultiplierError(
            "generator metadata 'register_gates' is not a list of gate ids")
    return meta


def structure_stats(netlist: Netlist) -> StructureStats:
    """Structural summary of a generated multiplier.

    Cell counts come from the generator metadata; C-element and gate totals
    are recomputed from the actual gate list so tree-expansion flags are
    reflected honestly.
    """
    counts = _generated(netlist)["counts"]
    census = netlist.gate_census()
    return StructureStats(
        **{k: counts[k] for k in _COUNTS},
        c_element_count=census.get(GateKind.C2, 0) + census.get(GateKind.C3, 0),
        gate_count=len(netlist.gates),
        product_width=len(netlist.output_ports),
    )


@dataclass(frozen=True)
class CriticalPath:
    """Longest latch-to-completion path, one delay unit per gate."""

    length: int
    gates: tuple[int, ...]


def critical_path(netlist: Netlist) -> CriticalPath:
    """Longest static path from an input latch to the completion root.

    Gate count along the path equals the latency that chain would exhibit
    under unit delays.  Ties between equally long predecessor paths break
    toward the lowest gate id, so the reported path is deterministic.

    Walks :func:`~qdimul.settle.gate_order`.  Raises
    :class:`NotAGeneratedMultiplierError`, then what ``gate_order`` raises (a
    gate cycle is reason ``CYCLE``), then ``ValueError`` if no latch reaches
    ``ack_out``.
    """
    starts = set(_generated(netlist)["register_gates"])
    order, gates = gate_order(netlist), netlist.gate_by_id
    reach: dict[int, tuple[int, int]] = {}  # output net -> (longest path, its gate)
    back: dict[int, int | None] = {}
    for gid in order:
        g = gates[gid]
        length, pred = max((reach[n] for n in g.inputs if n in reach),
                           key=lambda r: (r[0], -r[1]), default=(0, None))
        if length or gid in starts:
            reach[g.output] = (length + 1, gid)
            back[gid] = pred
    if netlist.ack_out not in reach:
        raise ValueError("completion root is unreachable from the input latches")
    length, target = reach[netlist.ack_out]
    path = [target]
    while back[path[-1]] is not None:
        path.append(back[path[-1]])
    path.reverse()
    return CriticalPath(length=length, gates=tuple(path))
