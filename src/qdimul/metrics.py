"""Area, latency, switching and combined cost metrics for stages.

All figures are abstract: area is summed per-gate unit cost, time is in
simulator ticks, and the switching proxy is the mean number of net
transitions per handshake cycle (every transition costs one unit of
charge, so transition count tracks dynamic energy).  The combined figure
``pctp`` multiplies the switching proxy by the mean cycle time; comparisons
normalize it within a group of same-size, same-protocol designs so the
worst design in the group reads 1.0.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from statistics import fmean
from typing import Mapping, Sequence

from .harness import CycleReport, measure_latencies
from .netlist import GateKind, Netlist

DEFAULT_AREA_UNITS: Mapping[GateKind, int] = {
    GateKind.NOT: 2,
    GateKind.AND2: 6,
    GateKind.OR2: 6,
    GateKind.AND3: 8,
    GateKind.OR3: 8,
    GateKind.AND4: 10,
    GateKind.OR4: 10,
    GateKind.C2: 12,
    GateKind.C3: 16,
}


class MissingAreaEntryError(KeyError):
    code = "MISSING_AREA_ENTRY"


class GroupMismatchError(ValueError):
    code = "GROUP_MISMATCH"


class EmptyComparisonError(ValueError):
    code = "EMPTY"


@dataclass(frozen=True)
class AreaTable:
    """Per-gate-kind unit costs; dual gate kinds cost the same by default."""

    units: tuple[tuple[GateKind, int], ...]

    @classmethod
    def default(cls) -> "AreaTable":
        return cls(tuple(sorted(DEFAULT_AREA_UNITS.items(), key=lambda kv: kv[0].value)))

    @classmethod
    def from_mapping(cls, mapping: Mapping[GateKind, int]) -> "AreaTable":
        merged = dict(DEFAULT_AREA_UNITS)
        merged.update(mapping)
        return cls(tuple(sorted(merged.items(), key=lambda kv: kv[0].value)))

    def of(self, kind: GateKind) -> int:
        for k, units in self.units:
            if k is kind:
                return units
        raise MissingAreaEntryError(f"no area entry for gate kind {kind.value}")


def area(netlist: Netlist, table: AreaTable | None = None) -> int:
    """Total unit area of a netlist under the given cost table."""
    table = table or AreaTable.default()
    total = 0
    for kind, count in netlist.gate_census().items():
        total += table.of(kind) * count
    return total


def power_proxy(reports: Sequence[CycleReport]) -> float:
    """Mean net transitions per handshake cycle (dynamic energy proxy)."""
    if not reports:
        raise EmptyComparisonError("no cycle reports")
    return fmean(r.transitions for r in reports)


@dataclass(frozen=True)
class StageMetrics:
    """One design's measured cost/speed figures, ready for comparison."""

    design: str
    protocol: str
    n: int
    fa_kind: str
    area: int
    gate_count: int
    cycles: int
    forward_mean: float
    reverse_mean: float
    cycle_mean: float
    cycle_min: int
    cycle_max: int
    power_proxy: float
    pctp: float
    pctp_normalized: float | None = None


def design_label(netlist: Netlist) -> str:
    meta = netlist.meta
    if "fa_kind" in meta and "n" in meta:
        label = f"{meta['fa_kind']}-{netlist.protocol.value}-{meta['n']}x{meta['n']}"
    else:
        label = str(meta.get("cell", "netlist"))
    if "mutation" in meta:
        label += f"+{meta['mutation']}"
    return label


def measure(
    netlist: Netlist,
    reports: Sequence[CycleReport],
    table: AreaTable | None = None,
) -> StageMetrics:
    """Condense a batch of handshake cycles into one metrics row."""
    lat = measure_latencies(reports)
    proxy = power_proxy(reports)
    return StageMetrics(
        design=design_label(netlist),
        protocol=netlist.protocol.value,
        n=int(netlist.meta.get("n", 0)),
        fa_kind=str(netlist.meta.get("fa_kind", "")),
        area=area(netlist, table),
        gate_count=len(netlist.gates),
        cycles=lat.cycles,
        forward_mean=lat.forward_mean,
        reverse_mean=lat.reverse_mean,
        cycle_mean=lat.cycle_mean,
        cycle_min=lat.cycle_min,
        cycle_max=lat.cycle_max,
        power_proxy=proxy,
        pctp=proxy * lat.cycle_mean,
    )


def normalize_pctp(rows: Sequence[StageMetrics]) -> list[StageMetrics]:
    """Scale pctp within each (size, protocol) group so the group max is 1.0."""
    if not rows:
        raise EmptyComparisonError("nothing to normalize")
    peak: dict[tuple[int, str], float] = {}
    for r in rows:
        key = (r.n, r.protocol)
        peak[key] = max(peak.get(key, 0.0), r.pctp)
    out = []
    for r in rows:
        top = peak[(r.n, r.protocol)]
        out.append(replace(r, pctp_normalized=(r.pctp / top) if top else 0.0))
    return out


def compare(rows: Sequence[StageMetrics]) -> list[StageMetrics]:
    """Rank same-group designs: fastest cycle first, pctp breaks ties.

    All rows must share operand size and protocol; comparing across groups
    raises :class:`GroupMismatchError`.
    """
    if not rows:
        raise EmptyComparisonError("nothing to compare")
    groups = {(r.n, r.protocol) for r in rows}
    if len(groups) > 1:
        raise GroupMismatchError(
            "cannot rank designs across groups: " + ", ".join(
                f"{n}x{n}/{p}" for n, p in sorted(groups))
        )
    ranked = normalize_pctp(rows)
    ranked.sort(key=lambda r: (r.cycle_mean, r.pctp, r.design))
    return ranked


def render_rows(rows: Sequence[StageMetrics]) -> str:
    """Fixed-width text table of metrics rows."""
    headers = ["design", "area", "fwd", "rev", "cycle", "power", "pctp", "pctp_norm"]
    body = []
    for r in rows:
        norm = f"{r.pctp_normalized:.3f}" if r.pctp_normalized is not None else "-"
        body.append([
            r.design,
            str(r.area),
            f"{r.forward_mean:.1f}",
            f"{r.reverse_mean:.1f}",
            f"{r.cycle_mean:.1f}",
            f"{r.power_proxy:.1f}",
            f"{r.pctp:.1f}",
            norm,
        ])
    widths = [max(len(headers[i]), *(len(row[i]) for row in body)) if body else len(headers[i])
              for i in range(len(headers))]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))).rstrip(),
    ]
    for row in body:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))).rstrip())
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[StageMetrics]) -> str:
    return json.dumps([asdict(r) for r in rows], indent=1, sort_keys=True) + "\n"
