"""Pinned behaviour shared by the tier-1 tests and the stdlib-only smoke run.

Each digest or table here was computed on an earlier commit and must not
change: a change to the engine, the writer or the reader that moves one of
them changes observable behaviour.  The netlists and oracles that more than
one test module uses live here too.  Nothing here imports pytest or
hypothesis, so ``python tests/smoke.py`` can check them on an interpreter
without either.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout

from qdimul import cells, verify
from qdimul.cells import FullAdderKind
from qdimul.cli import main
from qdimul.harness import Harness, scan_port_changes
from qdimul.multiplier import MultiplierSpec, critical_path, generate
from qdimul.netlist import DualRailValue, GateKind, ParseError, Protocol, deserialize, serialize
from qdimul.sim import DelayModel
from qdimul.verify import default_pairs, inject_fork_skew, narrow_completion, swap_port_rails

# -- engine traces -------------------------------------------------------------


@contextmanager
def legacy_draws():
    """Random delay models draw as they did before one seeded stream per model.

    Inside, gate k of a ``random_per_gate(lo, hi, seed)`` model gets
    ``random.Random(f"{seed}:{k}").randint(lo, hi)``, and the model's memo is
    neither read nor grown.  A netlist keeps the delay vector of its first
    reset under each model, so only netlists first simulated inside see
    these delays.  With them the digests below reproduce their
    ``LEGACY_DRAW_*`` values, which shows that a change of draws alone moved
    them, not a change of the engine.
    """

    def draws(model, count):
        return [random.Random(f"{model.seed}:{gid}").randint(model.lo, model.hi)
                for gid in range(count)]

    saved = DelayModel._draws
    DelayModel._draws = draws
    try:
        yield
    finally:
        DelayModel._draws = saved


# Pinned on the engine before the compiled plan: a sha256 over the repr of
# traced run_sequence reports and of run_burst (reports, trace, illegal).
# Re-pinned once when burst reports began to count their transitions; with
# those counts set to 0 it is the earlier digest.  Re-pinned again when a
# random model began to draw from one seeded stream; under legacy_draws()
# it is LEGACY_DRAW_TRACE_SHA256, the digest before that change.
GOLDEN_TRACE_SHA256 = "26d5826681cab9ea920db0fc5cfd34dceec864285d6f6bf0a76720f59668ad3c"
LEGACY_DRAW_TRACE_SHA256 = "4e3bf40d62c6064e854707475e7ac4f7f2f0996bff9a772130a3747f4e1b9732"

#: Every gate kind at delay 3: a constant delay other than 1.
TABLE_3 = DelayModel.fixed_table({kind: 3 for kind in GateKind})

# Pinned on the heap-only engine, before constant-delay runs stepped tick by
# tick: trace_digest's runs under TABLE_3 alone.  Re-pinned with
# GOLDEN_TRACE_SHA256, for the same reason alone.
GOLDEN_TRACE_TABLE_SHA256 = "7265c17f88940411771ef9bf9bcd1f98a373a1b4929ddc3b927387a21e5acca8"


def trace_digest(models=(DelayModel.unit(), DelayModel.random_per_gate(1, 20, seed=5))) -> str:
    """Traced sequences and bursts at n = 2, 4: every adder, protocol and delay model."""
    h = hashlib.sha256()
    for n in (2, 4):
        pairs = default_pairs(n)[::3]
        for kind in FullAdderKind:
            for protocol in Protocol:
                nl = generate(MultiplierSpec(n, kind, protocol))
                for dm in models:
                    reports = Harness(nl, dm).run_sequence(pairs, want_traces=True)
                    h.update(repr(reports).encode())
                    burst = Harness(nl, dm).run_burst(pairs[:8], gap=1)
                    h.update(repr((burst.reports, burst.trace, burst.illegal)).encode())
    return h.hexdigest()


def table_trace_digest() -> str:
    return trace_digest((TABLE_3,))


def legacy_trace_digest() -> str:
    with legacy_draws():
        return trace_digest()


# Pinned on the engine before input-count gate tables and projected levels:
# n = 8 under every adder, both protocols, unit and random delays, plus
# bursts through a fork skewed by a chain of tied-input OR2s, stopped at
# each ack edge.  At n = 2 with delay seed 3 the chain carries pulses
# shorter than a gate delay, so events are scheduled on nets with one
# already pending.  Re-pinned once when burst reports began to count their
# transitions; with those counts set to 0 it is the earlier digest.
# Re-pinned with GOLDEN_TRACE_SHA256 for the one-stream draws; under
# legacy_draws() it is LEGACY_DRAW_TRACE_WIDE_SHA256.
GOLDEN_TRACE_WIDE_SHA256 = "99631d2b018b7781142a268b7f21cab2e96c77cd975260dccdae64f3dd0a6445"
LEGACY_DRAW_TRACE_WIDE_SHA256 = "f4bace9333db78e0f111fb56a3057f9c2b9d571d1f6ee5a86146e4f4d441989f"


def _hash_burst(h, netlist, dm, pairs) -> None:
    harness = Harness(netlist, dm)
    try:
        burst = harness.run_burst(pairs, gap=1)
    except RuntimeError as exc:  # stuck, illegal or non-quiescent
        h.update(repr((type(exc).__name__, str(exc), harness.state.trace)).encode())
        return
    h.update(repr((burst.reports, burst.trace, burst.illegal)).encode())


def wide_trace_digest() -> str:
    """Traced 8x8 sequences and bursts, and fork-skew pulses at n = 2 and 8."""
    h = hashlib.sha256()
    pairs = default_pairs(8, samples=12, seed=4)
    models = [DelayModel.unit()] + [DelayModel.random_per_gate(1, 20, seed=s) for s in (3, 13)]
    for kind in FullAdderKind:
        for protocol in Protocol:
            nl = generate(MultiplierSpec(8, kind, protocol))
            for dm in models[::2]:
                reports = Harness(nl, dm).run_sequence(pairs, want_traces=True)
                h.update(repr(reports).encode())
                _hash_burst(h, nl, dm, pairs[:6])
    for n in (2, 8):
        for protocol in Protocol:
            skewed = fork_skewed(generate(MultiplierSpec(n, protocol=protocol)))
            for dm in models:
                _hash_burst(h, skewed, dm, [(1, 0), (0, 1)] * 2 + pairs[:4] * (n == 8))
    return h.hexdigest()


def legacy_wide_trace_digest() -> str:
    with legacy_draws():
        return wide_trace_digest()


# -- the checkers --------------------------------------------------------------

# sha256 over the repr of every outcome outcome_digest() computes, pinned
# before the checkers' drivers were merged and re-pinned when the cell
# checks began to drive ack_in (only the register banks' weak verdicts
# changed), and again when a random model began to draw from one seeded
# stream (under legacy_draws() it is the digest before), and again when
# small stages began to sample their pairs through sample_pairs (with the
# old default_pairs(...)[:samples] slice it is the digest before); any
# change to a verdict, detail, scenario count, counterexample or trace tail
# changes it.
GOLDEN_OUTCOME_SHA256 = "b1b0215844d98cf657060c00d843061e520b40f87383b7210fa0be4141b64789"

#: Two 2x2 cycles and their reverse, which catch the fork-skew control.
BURST_PAIRS = [(1, 0), (0, 1), (1, 0), (0, 1)]


def _cells(protocol):
    yield cells.make_and2_strong(protocol)
    for kind in FullAdderKind:
        yield cells.make_full_adder(kind, protocol)
    yield cells.make_register_bank(2, protocol)
    yield cells.make_completion_detector(2, protocol)
    yield cells.make_constant_source(1, protocol)


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        return exc


def outcome_digest() -> str:
    """Every cell's indication verdicts, the battery on every 2x2 and 4x4 stage,
    the negative controls and ``qdimul verify --json`` on a 2x2 stage."""
    h = hashlib.sha256()
    for protocol in Protocol:
        for cell in _cells(protocol):
            for check in (verify.check_strong_indication, verify.check_weak_indication):
                h.update(repr(_outcome(check, cell.netlist)).encode())
    for n in (2, 4):
        for kind in FullAdderKind:
            for protocol in Protocol:
                nl = generate(MultiplierSpec(n, kind, protocol))
                h.update(repr(verify.run_all_checks(nl)).encode())
                h.update(repr(verify.check_weak_indication(nl)).encode())
    mult2 = generate(MultiplierSpec(n=2))
    majority = generate(MultiplierSpec(n=4, fa_kind=FullAdderKind.MAJORITY_CONTROL))
    controls = [
        verify.check_functional(swap_port_rails(mult2)),
        verify.check_stage_indication(narrow_completion(mult2), seed=3),
        verify.check_race_immunity(fork_skewed(mult2), pairs=BURST_PAIRS),
        verify.check_monotonicity(majority,
                                  [Harness(majority).run_cycle(3, 7, want_trace=True)]),
    ]
    h.update(repr(controls).encode())
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stage.json")
        with open(path, "w") as f:
            f.write(serialize(mult2))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--netlist", path, "--json", "--seed", "5"])
    if code != 0:
        return f"qdimul verify exited {code}"
    h.update((out.getvalue() + err.getvalue()).replace(path, "<netlist>").encode())
    return h.hexdigest()


# -- the critical path ---------------------------------------------------------

# sha256 over the repr of critical_path's result on every critical_path_designs()
# netlist, pinned on the critical path's own Kahn walk, before it took its
# order from settle.gate_order.
GOLDEN_CRITICAL_PATH_SHA256 = "4f8fb2b8881865b1e873fb7f50ab32733e4b4e08f9dfaa5fb210c5982bb4ef34"


def critical_path_designs():
    """Every generator choice at n = 2, 3, 4, 8, 16; rail-swap and narrow-completion
    controls of the tree-free stages and the fork-skew control at n = 2 and 4."""
    flags = list(itertools.product((False, True), repeat=2))
    for n in (2, 3, 4, 8, 16):
        for kind in FullAdderKind:
            for protocol in Protocol:
                for c3, or4 in flags:
                    yield generate(MultiplierSpec(n, kind, protocol, c3, or4))
    for n in (2, 4):
        for kind in FullAdderKind:
            for protocol in Protocol:
                base = generate(MultiplierSpec(n, kind, protocol))
                yield swap_port_rails(base)
                yield narrow_completion(base)
        for protocol in Protocol:
            yield fork_skewed(generate(MultiplierSpec(n, protocol=protocol)))


def critical_path_digest() -> str:
    h = hashlib.sha256()
    for nl in critical_path_designs():
        h.update(repr(_outcome(critical_path, nl)).encode())
    return h.hexdigest()


# -- the writer ----------------------------------------------------------------

# Pinned on the writer that sent the whole document through json.dumps.
GOLDEN_SERIALIZE_SHA256 = "beac8371ae6bb9d2dd09bea86f303cbbf5bb99f9c357cce58b67f6cbcbb2c409"


def port_rule_ok(netlist, reset_levels, report):
    """Each port sees exactly one data codeword then one spacer, nothing else."""
    for points in scan_port_changes(netlist, reset_levels, report.trace).values():
        if len(points) != 2:
            return False
        if points[0][1].bit is None or points[1][1] is not DualRailValue.SPACER:
            return False
    return True


def fork_skewed(netlist, stages=16):
    """``inject_fork_skew`` on the fork that feeds output bit P0's true rail."""
    p0 = next(p for p in netlist.output_ports if p.name == "P0")
    consumer = netlist.net(p0.rail1).driver_gate
    fork_net = netlist.gate_by_id[consumer].inputs[0]
    return inject_fork_skew(netlist, fork_net, consumer, stages=stages)


def serialized_designs():
    """Every generator choice at n = 2, 4, 8, every cell, the three mutators."""
    flags = list(itertools.product((False, True), repeat=2))
    for n in (2, 4, 8):
        for kind in FullAdderKind:
            for protocol in Protocol:
                for c3, or4 in flags:
                    yield generate(MultiplierSpec(n, kind, protocol, c3, or4))
    for protocol in Protocol:
        yield cells.make_and2_strong(protocol).netlist
        for kind in FullAdderKind:
            for c3, or4 in flags:
                yield cells.make_full_adder(kind, protocol, c3, or4).netlist
        yield cells.make_completion_detector(3, protocol).netlist
        yield cells.make_register_bank(2, protocol).netlist
        for bit in (0, 1):
            yield cells.make_constant_source(bit, protocol).netlist
        for n in (2, 4):
            base = generate(MultiplierSpec(n, protocol=protocol))
            yield swap_port_rails(base)
            yield narrow_completion(base)
            yield fork_skewed(base)


def serialize_digest() -> str:
    h = hashlib.sha256()
    for nl in serialized_designs():
        h.update(serialize(nl).encode())
    return h.hexdigest()


# -- the reader's errors -------------------------------------------------------

STAGE_TEXT = serialize(generate(MultiplierSpec(n=2)))
_LAST = len(json.loads(STAGE_TEXT)["gates"]) - 1

#: name -> (gate index, fields to set; a value of ``DELETE`` removes the field).
#: ``"gate"`` as the only field replaces the whole gate.
DELETE = object()
_CORRUPTIONS = {
    **{f"missing-{k}": (0, {k: DELETE}) for k in ("id", "kind", "inputs", "output", "reset")},
    "missing-last-reset": (_LAST, {"reset": DELETE}),
    "extra-key": (0, {"delay": 3}),
    "extra-key-last": (_LAST, {"zz": None}),
    "renamed-key": (3, {"reset": DELETE, "rest": 0}),
    "gate-list": (0, {"gate": []}),
    "gate-null": (1, {"gate": None}),
    "gate-int": (2, {"gate": 5}),
    "gate-str": (0, {"gate": "c2"}),
    # every field missing: the first in sorted order is named
    "gate-empty": (0, {"gate": {}}),
    "id-str": (0, {"id": "0"}),
    "id-float": (1, {"id": 1.0}),
    "id-null": (0, {"id": None}),
    "id-true": (0, {"id": True}),
    "id-false": (0, {"id": False}),
    "kind-int": (0, {"kind": 3}),
    "kind-null": (0, {"kind": None}),
    "kind-list": (0, {"kind": []}),
    "kind-dict": (0, {"kind": {}}),
    "kind-true": (0, {"kind": True}),
    "kind-unknown": (0, {"kind": "nand2"}),
    "kind-upper": (_LAST, {"kind": "AND2"}),
    "kind-empty": (0, {"kind": ""}),
    "inputs-str": (0, {"inputs": "1,2"}),
    "inputs-null": (0, {"inputs": None}),
    "inputs-int": (0, {"inputs": 5}),
    "inputs-dict": (0, {"inputs": {}}),
    "inputs-float-item": (0, {"inputs": [0, 1.5]}),
    "inputs-str-item": (0, {"inputs": ["3"]}),
    "inputs-bool-item": (4, {"inputs": [True, 0]}),
    "inputs-null-item": (0, {"inputs": [0, None]}),
    "inputs-nested": (0, {"inputs": [[1]]}),
    "output-str": (0, {"output": "5"}),
    "output-float": (0, {"output": 5.0}),
    "output-true": (0, {"output": True}),
    "output-null": (_LAST, {"output": None}),
    "reset-2": (0, {"reset": 2}),
    "reset-minus-1": (0, {"reset": -1}),
    "reset-str": (0, {"reset": "0"}),
    "reset-true": (0, {"reset": True}),
    "reset-false": (_LAST, {"reset": False}),
    "reset-float": (0, {"reset": 0.0}),
    "reset-null": (0, {"reset": None}),
    "id-and-reset": (0, {"id": "x", "reset": 5}),
    "output-and-inputs": (0, {"output": True, "inputs": ["a"]}),
    "kind-and-extra": (0, {"kind": [], "extra": 1}),
    "reset-and-missing": (0, {"reset": 7, "output": DELETE}),
}


def corrupted_stage(index: int, fields: dict) -> str:
    """The 2x2 stage text with gate ``index`` corrupted as ``fields`` says."""
    doc = json.loads(STAGE_TEXT)
    if list(fields) == ["gate"]:
        doc["gates"][index] = fields["gate"]
    else:
        gate = doc["gates"][index]
        for key, value in fields.items():
            if value is DELETE:
                del gate[key]
            else:
                gate[key] = value
    return json.dumps(doc, indent=1, sort_keys=True)


def parse_errors() -> dict[str, str]:
    """The error each corruption gives, as ``"<type>: <message> | <path>"``."""
    got = {}
    for name, (index, fields) in _CORRUPTIONS.items():
        try:
            deserialize(corrupted_stage(index, fields))
        except ParseError as exc:
            got[name] = f"ParseError: {exc} | {exc.path}"
        except Exception as exc:  # recorded, so the comparison names it
            got[name] = f"{type(exc).__name__}: {exc}"
        else:
            got[name] = "loaded"
    return got


GOLDEN_PARSE_ERRORS: dict[str, str] = {
    "missing-id": "ParseError: missing field 'id' at gates[0] | gates[0]",
    "missing-kind": "ParseError: missing field 'kind' at gates[0] | gates[0]",
    "missing-inputs": "ParseError: missing field 'inputs' at gates[0] | gates[0]",
    "missing-output": "ParseError: missing field 'output' at gates[0] | gates[0]",
    "missing-reset": "ParseError: missing field 'reset' at gates[0] | gates[0]",
    "missing-last-reset": "ParseError: missing field 'reset' at gates[58] | gates[58]",
    "extra-key": "ParseError: unknown field 'delay' at gates[0] | gates[0]",
    "extra-key-last": "ParseError: unknown field 'zz' at gates[58] | gates[58]",
    "renamed-key": "ParseError: unknown field 'rest' at gates[3] | gates[3]",
    "gate-list": "ParseError: expected dict, got list at gates[0] | gates[0]",
    "gate-null": "ParseError: expected dict, got NoneType at gates[1] | gates[1]",
    "gate-int": "ParseError: expected dict, got int at gates[2] | gates[2]",
    "gate-str": "ParseError: expected dict, got str at gates[0] | gates[0]",
    "gate-empty": "ParseError: missing field 'id' at gates[0] | gates[0]",
    "id-str": "ParseError: expected int, got str at gates[0].id | gates[0].id",
    "id-float": "ParseError: expected int, got float at gates[1].id | gates[1].id",
    "id-null": "ParseError: expected int, got NoneType at gates[0].id | gates[0].id",
    "id-true": "ParseError: expected int, got bool at gates[0].id | gates[0].id",
    "id-false": "ParseError: expected int, got bool at gates[0].id | gates[0].id",
    "kind-int": "ParseError: expected str, got int at gates[0].kind | gates[0].kind",
    "kind-null": "ParseError: expected str, got NoneType at gates[0].kind | gates[0].kind",
    "kind-list": "ParseError: expected str, got list at gates[0].kind | gates[0].kind",
    "kind-dict": "ParseError: expected str, got dict at gates[0].kind | gates[0].kind",
    "kind-true": "ParseError: expected str, got bool at gates[0].kind | gates[0].kind",
    "kind-unknown": "ParseError: unknown gate kind 'nand2' at gates[0].kind | gates[0].kind",
    "kind-upper": "ParseError: unknown gate kind 'AND2' at gates[58].kind | gates[58].kind",
    "kind-empty": "ParseError: unknown gate kind '' at gates[0].kind | gates[0].kind",
    "inputs-str": "ParseError: expected list, got str at gates[0].inputs | gates[0].inputs",
    "inputs-null": "ParseError: expected list, got NoneType at gates[0].inputs | gates[0].inputs",
    "inputs-int": "ParseError: expected list, got int at gates[0].inputs | gates[0].inputs",
    "inputs-dict": "ParseError: expected list, got dict at gates[0].inputs | gates[0].inputs",
    "inputs-float-item": "ParseError: expected int, got float at gates[0].inputs[1] | gates[0].inputs[1]",
    "inputs-str-item": "ParseError: expected int, got str at gates[0].inputs[0] | gates[0].inputs[0]",
    "inputs-bool-item": "ParseError: expected int, got bool at gates[4].inputs[0] | gates[4].inputs[0]",
    "inputs-null-item": "ParseError: expected int, got NoneType at gates[0].inputs[1] | gates[0].inputs[1]",
    "inputs-nested": "ParseError: expected int, got list at gates[0].inputs[0] | gates[0].inputs[0]",
    "output-str": "ParseError: expected int, got str at gates[0].output | gates[0].output",
    "output-float": "ParseError: expected int, got float at gates[0].output | gates[0].output",
    "output-true": "ParseError: expected int, got bool at gates[0].output | gates[0].output",
    "output-null": "ParseError: expected int, got NoneType at gates[58].output | gates[58].output",
    "reset-2": "ParseError: expected 0 or 1, got 2 at gates[0].reset | gates[0].reset",
    "reset-minus-1": "ParseError: expected 0 or 1, got -1 at gates[0].reset | gates[0].reset",
    "reset-str": "ParseError: expected int, got str at gates[0].reset | gates[0].reset",
    "reset-true": "ParseError: expected int, got bool at gates[0].reset | gates[0].reset",
    "reset-false": "ParseError: expected int, got bool at gates[58].reset | gates[58].reset",
    "reset-float": "ParseError: expected int, got float at gates[0].reset | gates[0].reset",
    "reset-null": "ParseError: expected int, got NoneType at gates[0].reset | gates[0].reset",
    "id-and-reset": "ParseError: expected int, got str at gates[0].id | gates[0].id",
    "output-and-inputs": "ParseError: expected int, got str at gates[0].inputs[0] | gates[0].inputs[0]",
    "kind-and-extra": "ParseError: unknown field 'extra' at gates[0] | gates[0]",
    "reset-and-missing": "ParseError: missing field 'output' at gates[0] | gates[0]",
}
