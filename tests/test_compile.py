"""Compiling a design: ``validate``, the engine plan and ``dualize`` against oracles.

Each is compared with a frozen copy of the code it replaced, kept here:
``validate`` with the item-by-item checks that ran every rule's walk on
every netlist (their loop search keys gates by position, as ``validate``'s
does, so repeated ids make no false cycle), the engine plan's tables with
the per-gate ``_Plan`` tables, and ``dualize`` with its one-gate-at-a-time
build.  Every comparison covers what a call returns and what it raises.
"""

import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import golden
from qdimul import cells
from qdimul.cells import FullAdderKind
from qdimul.multiplier import MultiplierSpec, generate
from qdimul.netlist import (
    ARITY,
    DUAL_KIND,
    FAMILY,
    NET_IDS_PER_DRIVEN_NET,
    STATEFUL,
    Diagnostic,
    DiagnosticCode,
    DualRailPort,
    Gate,
    GateKind,
    Netlist,
    Protocol,
    deserialize,
    dualize,
    validate,
)
from qdimul.sim import HOLD, _gate_row, _Plan
from qdimul.verify import narrow_completion, swap_port_rails


def outcome(fn):
    """``fn()``, or the type and message of what it raised.

    A ``TypeError`` (a gate field of the wrong type reaching arithmetic) is
    recorded by type alone: its message names the operator the code used.
    """
    try:
        return fn()
    except TypeError:
        return "TypeError"
    except Exception as exc:  # the comparison names whatever was raised
        return type(exc).__name__, str(exc)


def reference_validate(nl):
    """``validate`` as every rule's walk over every item: the checks as they were."""
    diags = _reference_gate_fields(nl)
    if diags:
        return diags
    diags = _reference_ids(nl)

    claimed: dict[int, int] = {}
    for n in nl.primary_inputs:
        claimed[n] = claimed.get(n, 0) + 1
    for n, _ in nl.const_nets:
        claimed[n] = claimed.get(n, 0) + 1
    for g in nl.gates:
        claimed[g.output] = claimed.get(g.output, 0) + 1
    for n, count in sorted(claimed.items()):
        if count > 1:
            diags.append(Diagnostic(DiagnosticCode.MULTIPLE_DRIVERS,
                                    f"net {n} has {count} drivers", (n,)))

    for g in nl.gates:
        want = ARITY[g.kind]
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

    for p in nl.ports:
        if p.rail1 == p.rail0:
            diags.append(Diagnostic(DiagnosticCode.ALIASED_RAILS,
                                    f"port {p.name!r} uses net {p.rail1} for both rails",
                                    (p.rail1,)))
        for rail_name, n in (("rail1", p.rail1), ("rail0", p.rail0)):
            if n not in claimed:
                diags.append(Diagnostic(
                    DiagnosticCode.UNCONNECTED_INPUT,
                    f"port {p.name!r} {rail_name} dangles on undriven net {n}", (n,)))

    if nl.ack_out is not None and nl.ack_out not in claimed:
        diags.append(Diagnostic(DiagnosticCode.UNCONNECTED_INPUT,
                                f"ack_out dangles on undriven net {nl.ack_out}", (nl.ack_out,)))
    if nl.ack_out is not None and nl.ack_out == nl.ack_in:
        diags.append(Diagnostic(DiagnosticCode.ALIASED_ACK,
                                f"ack_out and ack_in share net {nl.ack_out}", (nl.ack_out,)))

    diags.extend(_reference_loop(nl))
    return diags


def _reference_gate_fields(nl):
    diags = []
    for i, g in enumerate(nl.gates):
        fields = [("id", g.id, g.id.__class__ is int, "an int"),
                  ("kind", g.kind, g.kind.__class__ is GateKind, "a GateKind")]
        if hasattr(g.inputs, "__iter__"):
            fields += [(f"inputs[{slot}]", n, n.__class__ is int, "an int")
                       for slot, n in enumerate(g.inputs)]
        else:
            fields.append(("inputs", g.inputs, False, "a sequence of ints"))
        fields += [("output", g.output, g.output.__class__ is int, "an int"),
                   ("reset", g.reset, g.reset.__class__ is int and g.reset in (0, 1), "0 or 1")]
        for name, value, ok, want in fields:
            if not ok:
                diags.append(Diagnostic(DiagnosticCode.BAD_GATE_FIELD,
                                        f"gates[{i}].{name} is {value!r}, expected {want}",
                                        (i,)))
    return diags


def _reference_ids(nl):
    diags = []
    n_gates = len(nl.gates)
    seen: dict[int, int] = {}
    for g in nl.gates:
        seen[g.id] = seen.get(g.id, 0) + 1
    for gid, count in sorted(seen.items()):
        if not 0 <= gid < n_gates:
            diags.append(Diagnostic(DiagnosticCode.GATE_ID_OUT_OF_RANGE,
                                    f"gate id {gid} is outside 0..{n_gates - 1}", (gid,)))
        if count > 1:
            diags.append(Diagnostic(DiagnosticCode.DUPLICATE_GATE_ID,
                                    f"gate id {gid} is used by {count} gates", (gid,)))

    nets = [n for g in nl.gates for n in (*g.inputs, g.output)]
    nets += [n for p in nl.ports for n in (p.rail1, p.rail0)]
    nets += [n for n, _ in nl.const_nets]
    nets += [n for n in (nl.ack_out, nl.ack_in, nl.phase_net) if n is not None]
    nets += nl.extra_inputs
    for n in sorted({n for n in nets if n < 0}):
        diags.append(Diagnostic(DiagnosticCode.NEGATIVE_NET_ID, f"net id {n} is negative", (n,)))
    driven = len(nl.primary_inputs) + len(nl.const_nets) + n_gates
    bound = NET_IDS_PER_DRIVEN_NET * (driven + 1)
    if nl.net_count > bound:
        top = nl.net_count - 1
        diags.append(Diagnostic(
            DiagnosticCode.NET_ID_TOO_LARGE,
            f"net id {top} is past {bound - 1}, the bound for {driven} driven nets", (top,)))
    return diags


def _reference_loop(nl):
    """The loop search, its graph keyed by gate position so repeated ids make no cycle."""
    gates = nl.gates
    driver_of = {g.output: i for i, g in enumerate(gates)}
    # Edges between plain Boolean gates only; C-elements break the path.
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
                    return [Diagnostic(DiagnosticCode.COMBINATIONAL_LOOP,
                                       "combinational cycle without a C-element: "
                                       + " -> ".join(str(x) for x in cycle),
                                       tuple(cycle[:-1]))]
                if c == WHITE:
                    color[child] = GREY
                    stack.append((child, 0))
                    path.append(child)
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return []


def reference_plan(nl):
    """The plan's tables as the per-gate ``_Plan.__init__`` built them."""
    nl.require_valid()
    gates = sorted(nl.gates, key=lambda g: g.id)
    row_of = {k: _gate_row(FAMILY[k], ARITY[k]) for k in {g.kind for g in gates}}
    row = [row_of[g.kind] for g in gates]
    fanout = [[] for _ in range(nl.net_count)]
    for g in gates:
        for n in g.inputs:
            fanout[n].append(g.id)
    lv = nl.reset_levels()
    reset_ones = [sum(map(lv.__getitem__, g.inputs)) for g in gates]
    for g, r, ones in zip(gates, row, reset_ones):
        settled = r[ones]
        if settled != HOLD and settled != lv[g.output]:
            raise ValueError(
                f"reset is not quiescent: gate {g.id} ({g.kind.value}) would "
                f"drive {settled}, reset says {lv[g.output]}"
            )
    port_by_name = {}
    for p in nl.ports:
        port_by_name.setdefault(p.name, p)
    return {"_gates": gates, "row": row, "output": [g.output for g in gates],
            "fanout": [tuple(f) for f in fanout], "reset_ones": reset_ones,
            "reset_levels": tuple(lv), "ack_out": nl.ack_out if nl.ack_in is not None else None,
            "ack_in": nl.ack_in, "decode": nl.decode_table, "port_by_name": port_by_name}


PLAN_TABLES = ("_gates", "row", "output", "fanout", "reset_ones", "reset_levels", "ack_out",
               "ack_in", "decode", "port_by_name")


def plan_tables(nl):
    plan = _Plan(nl)
    return {key: getattr(plan, key) for key in PLAN_TABLES}


def reference_dualize(nl):
    """``dualize`` as it built the twin's gates one generator step at a time."""
    nl.require_valid()
    gates = tuple(Gate(g.id, DUAL_KIND[g.kind], g.inputs, g.output, 1 - g.reset)
                  for g in nl.gates)
    meta = dict(nl.meta)
    if "protocol" in meta:
        meta["protocol"] = nl.protocol.flipped.value
    twin = Netlist(nl.protocol.flipped, gates, nl.input_ports, nl.output_ports, nl.ack_out,
                   nl.ack_in, tuple((n, 1 - v) for n, v in nl.const_nets), nl.phase_net,
                   nl.extra_inputs, meta)
    twin._memo["validate"] = nl._derived("validate", validate)
    return twin


def fresh(nl):
    """An equal netlist with nothing derived yet."""
    return Netlist(nl.protocol, nl.gates, nl.input_ports, nl.output_ports, nl.ack_out,
                   nl.ack_in, nl.const_nets, nl.phase_net, nl.extra_inputs, nl.meta)


def dual_view(twin):
    return twin, twin.gates, twin.meta, twin._memo.get("validate")


def assert_compiles_as_the_oracles(nl):
    assert outcome(lambda: validate(fresh(nl))) == outcome(lambda: reference_validate(fresh(nl)))
    assert outcome(lambda: plan_tables(fresh(nl))) == outcome(lambda: reference_plan(fresh(nl)))
    got = outcome(lambda: dual_view(dualize(fresh(nl))))
    assert got == outcome(lambda: dual_view(reference_dualize(fresh(nl))))


STAGES = list(itertools.product((2, 4, 8), FullAdderKind, Protocol))


@pytest.mark.parametrize("n, kind, protocol", STAGES,
                         ids=[f"{n}-{k.value}-{p.value}" for n, k, p in STAGES])
def test_generated_designs_compile_as_the_oracles(n, kind, protocol):
    assert_compiles_as_the_oracles(generate(MultiplierSpec(n, kind, protocol)))


def _cells():
    for p in Protocol:
        yield cells.make_and2_strong(p).netlist
        for kind in FullAdderKind:
            yield cells.make_full_adder(kind, p).netlist
        yield cells.make_completion_detector(3, p).netlist
        yield cells.make_register_bank(2, p).netlist
        for bit in (0, 1):
            yield cells.make_constant_source(bit, p).netlist


def test_cells_compile_as_the_oracles():
    for nl in _cells():
        assert_compiles_as_the_oracles(nl)


@pytest.mark.parametrize("n", [2, 4])
def test_mutants_compile_as_the_oracles(n):
    for kind, protocol in itertools.product(FullAdderKind, Protocol):
        stage = generate(MultiplierSpec(n, kind, protocol))
        assert_compiles_as_the_oracles(swap_port_rails(stage))
        assert_compiles_as_the_oracles(narrow_completion(stage))
        assert_compiles_as_the_oracles(golden.fork_skewed(stage))  # inject_fork_skew


def _corrupted_netlists():
    """The parse-error corpus's corruptions, applied to gates built directly.

    Only corruptions that set gate fields can make a ``Gate``; a kind that
    names a ``GateKind`` becomes it, any other value is kept as it is.
    """
    stage = deserialize(golden.STAGE_TEXT)
    raw_gates = json.loads(golden.STAGE_TEXT)["gates"]
    for name, (index, fields) in golden._CORRUPTIONS.items():
        if set(fields) - {"id", "kind", "inputs", "output", "reset"} or golden.DELETE in (
                fields.values()):
            continue
        raw = {**raw_gates[index], **fields}
        kind = raw["kind"]
        if isinstance(kind, str) and kind in {k.value for k in GateKind}:
            kind = GateKind(kind)
        inputs = tuple(raw["inputs"]) if isinstance(raw["inputs"], list) else raw["inputs"]
        gates = list(stage.gates)
        gates[index] = Gate(raw["id"], kind, inputs, raw["output"], raw["reset"])
        yield name, lambda gates=gates: Netlist(
            stage.protocol, gates, stage.input_ports, stage.output_ports, stage.ack_out,
            stage.ack_in, stage.const_nets, stage.phase_net, stage.extra_inputs, stage.meta)


CORRUPTED = dict(_corrupted_netlists())


def test_most_corruptions_make_a_netlist():
    assert len(CORRUPTED) >= 30
    assert sum(isinstance(outcome(build), Netlist) for build in CORRUPTED.values()) >= 20


def test_no_corruption_makes_validate_raise():
    for name, build in CORRUPTED.items():
        assert validate(build()), name
        assert reference_validate(build()), name


@pytest.mark.parametrize("name", list(CORRUPTED))
def test_corrupted_gates_compile_as_the_oracles(name):
    build = CORRUPTED[name]
    for run, oracle in ((validate, reference_validate), (plan_tables, reference_plan),
                        (lambda nl: dual_view(dualize(nl)),
                         lambda nl: dual_view(reference_dualize(nl)))):
        assert outcome(lambda: run(build())) == outcome(lambda: oracle(build()))


# Netlists of any shape: cycles, gaps, shared, undriven, negative and far-off nets.
NETS = st.integers(-1, 9) | st.just(300)
RANDOM_GATES = st.lists(st.tuples(st.sampled_from(list(GateKind)), st.lists(NETS, max_size=4),
                                  NETS, st.integers(0, 1)), max_size=8)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(RANDOM_GATES, st.lists(st.tuples(NETS, NETS), max_size=2),
       st.lists(st.tuples(NETS, NETS), max_size=2), st.none() | NETS, st.none() | NETS,
       st.lists(st.tuples(NETS, st.integers(0, 1)), max_size=2), st.none() | NETS,
       st.lists(NETS, max_size=2), st.sampled_from(list(Protocol)), st.booleans())
def test_random_netlists_compile_as_the_oracles(gates, ins, outs, ack_out, ack_in, consts,
                                                phase_net, extra_inputs, protocol, shuffle):
    built = [Gate(i, kind, tuple(inputs), out, reset)
             for i, (kind, inputs, out, reset) in enumerate(gates)]
    if shuffle:
        built.reverse()
    nl = Netlist(protocol, built,
                 [DualRailPort(f"i{k}", a, b, "in") for k, (a, b) in enumerate(ins)],
                 [DualRailPort(f"o{k}", a, b, "out") for k, (a, b) in enumerate(outs)],
                 ack_out=ack_out, ack_in=ack_in, const_nets=consts, phase_net=phase_net,
                 extra_inputs=extra_inputs)
    assert_compiles_as_the_oracles(nl)


@st.composite
def nearly_valid_netlists(draw):
    """A builder-ordered netlist (each gate reads nets made before it), then
    at most one edit that can break exactly one of the checks."""
    n_inputs = draw(st.integers(2, 4))
    gates, net = [], n_inputs
    for gid in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(list(GateKind)))
        ins = tuple(draw(st.lists(st.integers(0, net - 1), min_size=ARITY[kind],
                                  max_size=ARITY[kind])))
        gates.append(Gate(gid, kind, ins, net, draw(st.integers(0, 1))))
        net += 1
    ports = [DualRailPort("x", 0, 1, "in"), DualRailPort("y", net - 1, net - 2, "out")]
    fields = dict(extra_inputs=tuple(range(2, n_inputs)), ack_out=net - 1, ack_in=None)
    edit = draw(st.sampled_from(["none", "input", "output", "rail", "alias", "ack_dangles",
                                 "ack_aliased", "ack_in", "negative", "id", "far", "arity"]))
    g = draw(st.integers(0, len(gates) - 1))
    old = gates[g]
    any_net = st.integers(-1, net + 1)
    if edit == "input":  # undriven, negative, or a later gate's output: maybe a cycle
        ins = list(old.inputs)
        ins[draw(st.integers(0, len(ins) - 1))] = draw(any_net)
        gates[g] = Gate(old.id, old.kind, tuple(ins), old.output, old.reset)
    elif edit == "output":  # a second driver, a negative or an undriven gap
        gates[g] = Gate(old.id, old.kind, old.inputs, draw(any_net), old.reset)
    elif edit == "rail":
        ports[1] = DualRailPort("y", draw(any_net), ports[1].rail0, "out")
    elif edit == "alias":
        ports[1] = DualRailPort("y", ports[1].rail0, ports[1].rail0, "out")
    elif edit == "ack_dangles":
        fields.update(ack_out=net)
    elif edit == "ack_aliased":  # ack_in is a primary input, so the net is driven
        fields.update(ack_out=net, ack_in=net)
    elif edit == "ack_in":
        fields.update(ack_in=draw(any_net))
    elif edit == "negative":  # driven, read by nothing
        fields.update(extra_inputs=fields["extra_inputs"] + (-1,))
    elif edit == "id":
        gates[g] = Gate(draw(st.integers(-1, len(gates))), old.kind, old.inputs, old.output,
                        old.reset)
    elif edit == "far":
        gates[g] = Gate(old.id, old.kind, old.inputs, 16 * (len(gates) + n_inputs + 2),
                        old.reset)
    elif edit == "arity":
        gates[g] = Gate(old.id, old.kind, old.inputs + (0,), old.output, old.reset)
    return Netlist(draw(st.sampled_from(list(Protocol))), gates, ports[:1], ports[1:],
                   **fields)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nearly_valid_netlists())
def test_nearly_valid_netlists_compile_as_the_oracles(nl):
    assert_compiles_as_the_oracles(nl)
