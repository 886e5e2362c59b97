"""Spans recorded around calls into qdimul, for the benchmark's traced runs.

Nothing here edits the package: :func:`instrumented` swaps wrappers onto the
public functions of ``qdimul.multiplier``, ``qdimul.netlist``, ``qdimul.sim``,
``qdimul.harness``, ``qdimul.verify`` and ``qdimul.metrics`` (and onto the
copies of ``reset``, ``scan_port_changes`` and ``dualize`` that other modules
bound at import), and puts the originals back on exit.

Each span is a row ``[name, tag, start, end, parent, events, steps, ticks,
failed]``.  ``parent`` is the index of the enclosing span or -1; engine spans
also carry the transitions they applied, the distinct timestamps those fell
on, and the simulated ticks the clock advanced.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter
from time import perf_counter

import qdimul.harness as harness
import qdimul.metrics as metrics
import qdimul.multiplier as multiplier
import qdimul.netlist as netlist
import qdimul.sim as sim
import qdimul.verify as verify

NAME, TAG, START, END, PARENT, EVENTS, STEPS, TICKS, FAILED = range(9)

ENGINE = "sim.engine"
RESET = "sim.reset"
READ_PORT = "sim.read_port"
SCAN = "harness.scan_port_changes"
RUN_CYCLE = "harness.run_cycle"
RUN_BURST = "harness.run_burst"
OP = "bench.op"

#: The checkers whose time and scenario counts are reported one by one.
CHECKS = (
    "functional",
    "stage_indication",
    "duality",
    "race_immunity",
    "delay_insensitivity",
    "monotonicity",
    "strong_indication",
    "weak_indication",
)

_MODE = {"unit": "unit", "random_per_gate": "random", "fixed_table": "table"}


def delay_mode(delay_model) -> str:
    """Short label of a delay model: ``unit``, ``random`` or ``table``."""
    return "unit" if delay_model is None else _MODE[delay_model.mode.value]


class Tracer:
    """Collects nested spans in memory; :meth:`take` hands them over."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, tag: str | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, tag, perf_counter(), 0.0, parent, 0, 0, 0, False])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        span[FAILED] = failed
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def take(self) -> list[list]:
        if self._stack:
            raise RuntimeError("spans still open")
        out, self.spans = self.spans, []
        return out


def _wrap(tracer: Tracer, fn, name: str, tag_of=None):
    def traced(*args, **kwargs):
        idx = tracer.open(name, tag_of(args, kwargs) if tag_of else None)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, failed=True)
            raise
        tracer.close(idx)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_engine(tracer: Tracer, fn):
    def run_until_quiescent(self, *args, **kwargs):
        idx = tracer.open(ENGINE, delay_mode(self.delay_model))
        mark = len(self.trace)
        try:
            ticks = fn(self, *args, **kwargs)
        except BaseException:
            tracer.close(idx, failed=True)
            raise
        applied = self.trace[mark:]
        span = tracer.spans[idx]
        span[EVENTS] = len(applied)
        span[STEPS] = len(set(map(itemgetter(0), applied)))
        span[TICKS] = ticks
        tracer.close(idx)
        return ticks

    run_until_quiescent.__wrapped__ = fn
    return run_until_quiescent


def _reset_tag(args, kwargs) -> str:
    dm = args[1] if len(args) > 1 else kwargs.get("delay_model")
    return delay_mode(dm)


def _patches(tracer: Tracer, engine_only: bool) -> list[tuple[object, str, object]]:
    engine = (sim.SimState, "run_until_quiescent",
              _wrap_engine(tracer, sim.SimState.run_until_quiescent))
    if engine_only:
        return [engine]
    named = [
        (multiplier, "generate", "multiplier.generate"),
        (netlist, "serialize", "netlist.serialize"),
        (netlist, "deserialize", "netlist.deserialize"),
        (netlist, "dualize", "netlist.dualize"),
        (multiplier, "dualize", "netlist.dualize"),
        (verify, "dualize", "netlist.dualize"),
        (sim.SimState, "read_port", READ_PORT),
        (harness.Harness, "run_cycle", RUN_CYCLE),
        (harness.Harness, "run_sequence", "harness.run_sequence"),
        (harness.Harness, "run_burst", RUN_BURST),
        (harness, "scan_port_changes", SCAN),
        (verify, "scan_port_changes", SCAN),
        (verify, "swap_port_rails", "verify.swap_port_rails"),
        (verify, "narrow_completion", "verify.narrow_completion"),
        (verify, "inject_fork_skew", "verify.inject_fork_skew"),
        (metrics, "measure", "metrics.measure"),
        (metrics, "compare", "metrics.compare"),
    ]
    named += [(verify, f"check_{c}", f"verify.{c}") for c in CHECKS]
    out = [engine]
    out += [(owner, attr, _wrap(tracer, getattr(owner, attr), name))
            for owner, attr, name in named]
    out += [(owner, "reset", _wrap(tracer, getattr(owner, "reset"), RESET, _reset_tag))
            for owner in (sim, harness, verify)]
    return out


@contextmanager
def instrumented(tracer: Tracer, engine_only: bool = False):
    """Route the qdimul layer boundaries through ``tracer`` while active."""
    patches = _patches(tracer, engine_only)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def owning_ops(spans: list[list]) -> list[int]:
    """Index of the ``bench.op`` span each span runs under, or -1."""
    owner: list[int] = []
    for i, s in enumerate(spans):
        if s[NAME] == OP:
            owner.append(i)
        else:
            owner.append(owner[s[PARENT]] if s[PARENT] >= 0 else -1)
    return owner


def op_totals(spans: list[list]) -> dict[int, tuple[int, int]]:
    """Engine transitions and ticks summed under each ``bench.op`` span.

    Keyed by the op's tag, which the runner sets to the op's position in
    the round.
    """
    totals = {s[TAG]: [0, 0] for s in spans if s[NAME] == OP}
    for s, o in zip(spans, owning_ops(spans)):
        if s[NAME] == ENGINE and o >= 0:
            acc = totals[spans[o][TAG]]
            acc[0] += s[EVENTS]
            acc[1] += s[TICKS]
    return {k: (v[0], v[1]) for k, v in totals.items()}
