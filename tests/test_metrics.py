"""Cost metrics: the area table, switching proxy, combined figure, comparisons."""

from dataclasses import asdict, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import golden
from qdimul.cells import FullAdderKind, make_and2_strong, make_full_adder
from qdimul.harness import Harness
from qdimul.metrics import (
    DEFAULT_AREA_UNITS,
    EmptyComparisonError,
    GroupMismatchError,
    StageMetrics,
    area,
    compare,
    design_label,
    measure,
    normalize_pctp,
    power_proxy,
    render_rows,
)
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import GateKind, dualize

FROZEN_AREA_UNITS = {
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


def row(design="d", n=2, protocol="rtz", cycle_mean=10.0, pctp=100.0, **kw):
    base = dict(design=design, protocol=protocol, n=n, fa_kind="dims", area=100,
                gate_count=10, cycles=4, forward_mean=5.0, reverse_mean=5.0,
                cycle_mean=cycle_mean, cycle_min=int(cycle_mean),
                cycle_max=int(cycle_mean), power_proxy=pctp / cycle_mean, pctp=pctp)
    base.update(kw)
    return StageMetrics(**base)


def test_default_area_table_is_frozen():
    assert dict(DEFAULT_AREA_UNITS) == FROZEN_AREA_UNITS
    assert set(DEFAULT_AREA_UNITS) == set(GateKind)


def test_dual_kinds_cost_the_same():
    units = DEFAULT_AREA_UNITS
    assert units[GateKind.AND2] == units[GateKind.OR2]
    assert units[GateKind.AND3] == units[GateKind.OR3]
    assert units[GateKind.AND4] == units[GateKind.OR4]


def test_and_cell_area_by_hand():
    # 4 C-elements at 12 plus one three-input OR at 8
    cell = make_and2_strong()
    assert area(cell.netlist) == 4 * 12 + 8 == 56


def test_full_adder_area_by_hand():
    # strongly indicating adder: 8 three-input C-elements, 4 four-input ORs
    cell = make_full_adder(FullAdderKind.DIMS_STRONG)
    assert area(cell.netlist) == 8 * 16 + 4 * 10


def test_area_is_dualization_invariant():
    for spec in (MultiplierSpec(n=2), MultiplierSpec(n=3, fa_kind=FullAdderKind.WEAK_DISJOINT)):
        nl = generate(spec)
        assert area(nl) == area(dualize(nl))


def test_power_proxy_is_mean_transitions():
    nl = generate(MultiplierSpec(n=2))
    reports = Harness(nl).run_sequence([(1, 1), (3, 3), (2, 3)])
    assert power_proxy(reports) == pytest.approx(
        sum(r.transitions for r in reports) / len(reports))
    with pytest.raises(EmptyComparisonError):
        power_proxy([])


def test_measure_integration():
    nl = generate(MultiplierSpec(n=2))
    reports = Harness(nl).run_sequence([(a, b) for a in range(4) for b in range(4)])
    m = measure(nl, reports)
    assert m.design == "dims-rtz-2x2"
    assert m.n == 2 and m.protocol == "rtz" and m.fa_kind == "dims"
    assert m.area == area(nl)
    assert m.gate_count == len(nl.gates)
    assert m.cycles == 16
    assert m.cycle_min <= m.cycle_mean <= m.cycle_max
    assert m.forward_mean == m.reverse_mean  # every 2x2 cycle under unit delays
    assert m.cycle_mean == pytest.approx(m.forward_mean + m.reverse_mean)
    assert m.pctp == pytest.approx(m.power_proxy * m.cycle_mean)
    assert m.pctp_normalized is None
    assert set(asdict(m)) >= {"design", "area", "pctp", "pctp_normalized"}


def test_measure_refuses_no_reports():
    with pytest.raises(EmptyComparisonError, match="^no cycle reports$") as exc:
        measure(generate(MultiplierSpec(n=2)), [])
    assert exc.value.code == "EMPTY"


def test_golden_metrics_hash():
    # digest and inputs live in tests/golden.py, shared with tests/smoke.py
    assert golden.metrics_digest() == golden.GOLDEN_METRICS_SHA256


def test_design_label_variants():
    nl = generate(MultiplierSpec(n=2))
    assert design_label(nl) == "dims-rtz-2x2"
    cell = make_and2_strong()
    assert design_label(cell.netlist) == "and2_strong"


def test_normalize_assigns_one_to_single_worst():
    rows = [row("a", pctp=50.0), row("b", pctp=100.0), row("c", pctp=25.0)]
    normed = normalize_pctp(rows)
    tops = [r for r in normed if r.pctp_normalized == 1.0]
    assert [r.design for r in tops] == ["b"]
    assert {r.design: r.pctp_normalized for r in normed}["a"] == pytest.approx(0.5)


def test_normalize_marks_all_tied_maxima():
    rows = [row("a", pctp=80.0), row("b", pctp=80.0), row("c", pctp=40.0)]
    normed = normalize_pctp(rows)
    assert sum(1 for r in normed if r.pctp_normalized == 1.0) == 2


@given(st.floats(min_value=0.1, max_value=1e6, allow_nan=False),
       st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=6))
def test_normalize_is_scale_invariant(scale, pctps):
    rows = [row(f"d{i}", pctp=p) for i, p in enumerate(pctps)]
    scaled = [replace(r, pctp=r.pctp * scale) for r in rows]
    a = [r.pctp_normalized for r in normalize_pctp(rows)]
    b = [r.pctp_normalized for r in normalize_pctp(scaled)]
    assert a == pytest.approx(b)


def test_compare_sorts_by_cycle_then_pctp():
    rows = [row("slow", cycle_mean=20.0, pctp=300.0),
            row("fast", cycle_mean=10.0, pctp=200.0),
            row("mid", cycle_mean=15.0, pctp=100.0)]
    ranked = compare(rows)
    assert [r.design for r in ranked] == ["fast", "mid", "slow"]
    assert all(r.pctp_normalized is not None for r in ranked)


def test_compare_rejects_mixed_groups():
    with pytest.raises(GroupMismatchError):
        compare([row("a", n=2), row("b", n=4)])
    with pytest.raises(GroupMismatchError):
        compare([row("a", protocol="rtz"), row("b", protocol="rto")])
    with pytest.raises(EmptyComparisonError):
        compare([])


def test_render_rows_table_shape():
    text = render_rows(compare([row("a", pctp=50.0), row("b", pctp=100.0)]))
    lines = text.splitlines()
    assert "design" in lines[0] and "pctp_norm" in lines[0]
    assert len(lines) == 4
    assert any(line.startswith("a") for line in lines)
