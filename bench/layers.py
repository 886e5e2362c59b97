"""Per-layer metrics from the spans of traced rounds.

Counts are per round (every round repeats the same ops, so they are exact);
shares are fractions of the traced rounds' wall time, and ``self.<span>_s``
is each span name's self time per round.  Times are scaled to a fixed
machine pace with the scale of the round or set-up they fall in (see
``pace.py``); span checks use the host times.  Inclusive times
(``verify.<check>_s``) count nested calls too: ``check_delay_insensitivity``
runs ``check_monotonicity`` on every cycle.  ``harness.errors`` counts cycles
and bursts that raised inside a healthy op; those inside a negative control,
which is expected to fail that way, are ``harness.control_errors``.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracing import (
    CHECKS, END, ENGINE, EVENTS, FAILED, NAME, OP, PARENT, READ_PORT, RESET,
    RUN_BURST, RUN_CYCLE, SCAN, START, STEPS, TAG, owning_ops, self_times,
)

#: Layers whose calls happen while the workload is set up.
SETUP_LAYERS = ("multiplier.generate", "netlist.deserialize", "netlist.dualize")
#: Slack allowed between the traced wall and the runner's own clock: the
#: ``bench.op`` span also covers a clock read and the span bookkeeping.
WALL_SLACK = 0.02


def span_problems(spans: list[list], wall: float) -> list[str]:
    """Ways in which one traced round's spans fail to account for its time.

    ``wall`` is the round's time by the runner's own clock, read around each
    op independently of the tracer.  Every span must be closed and lie within
    its parent, only ``bench.op`` spans may be roots, siblings must not
    overlap (no negative self time), and the self times must add up to
    ``wall``.
    """
    problems = []
    for i, s in enumerate(spans):
        if s[END] < s[START]:
            problems.append(f"span {i} {s[NAME]} was not closed")
        parent = s[PARENT]
        if parent < 0:
            if s[NAME] != OP:
                problems.append(f"span {i} {s[NAME]} lies outside every op")
        elif not spans[parent][START] <= s[START] <= s[END] <= spans[parent][END]:
            problems.append(f"span {i} {s[NAME]} leaves its parent {spans[parent][NAME]}")
    own = self_times(spans)
    problems += [f"span {i} {spans[i][NAME]} has negative self time {o:.3g} s"
                 for i, o in enumerate(own) if o < 0]
    total = sum(own)
    if not wall <= total <= wall * (1 + WALL_SLACK):
        problems.append(f"self times add up to {total:.6f} s, the round took {wall:.6f} s")
    return problems


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def scenarios(ops, work: list[int]) -> dict[str, tuple[int, str]]:
    """Scenario counts of each checker, summed over the ops of one round."""
    out = {c: 0 for c in CHECKS}
    for op, w in zip(ops, work):
        if op.checker:
            out[op.checker] += w
    return {f"verify.{c}_scenarios": (n, "count") for c, n in out.items()}


def per_layer(setup_spans: list[tuple[list, float]], rounds: list[list[list]],
              scales: list[float], ops) -> dict:
    dur: dict[str, float] = defaultdict(float)
    own_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    events: Counter = Counter()
    steps = errors = control_errors = 0
    wall = controls = 0.0
    for spans, scale in setup_spans:
        for s in spans:
            if s[NAME] in SETUP_LAYERS:
                dur[s[NAME]] += (s[END] - s[START]) * scale
                calls[s[NAME]] += 1
    for spans, scale in zip(rounds, scales):
        owner = owning_ops(spans)
        for s, o, op in zip(spans, self_times(spans), owner):
            name, tag = s[NAME], s[TAG]
            d = (s[END] - s[START]) * scale
            o *= scale
            keys = (name, f"{name}.{tag}") if name in (ENGINE, RESET) else (name,)
            for key in keys:
                dur[key] += d
                calls[key] += 1
            own_time[name] += o
            if name == OP:
                wall += d
                if ops[tag].key.startswith("control/"):
                    controls += d
            elif name == ENGINE:
                events[tag] += s[EVENTS]
                steps += s[STEPS]
            elif name in (RUN_CYCLE, RUN_BURST) and s[FAILED]:
                if ops[spans[op][TAG]].key.startswith("control/"):
                    control_errors += 1
                else:
                    errors += 1
    n = len(rounds)
    cycles = calls[RUN_CYCLE]
    total_events = sum(events.values())
    harness_time = (own_time[RUN_CYCLE] + own_time[RUN_BURST]
                    + own_time["harness.run_sequence"] + dur[SCAN] + dur[READ_PORT])
    m = {
        "multiplier.generate_ms": (_ratio(dur["multiplier.generate"],
                                          calls["multiplier.generate"]) * 1e3, "ms"),
        "netlist.deserialize_ms": (_ratio(dur["netlist.deserialize"],
                                          calls["netlist.deserialize"]) * 1e3, "ms"),
        "netlist.dualize_ms": (_ratio(dur["netlist.dualize"],
                                      calls["netlist.dualize"]) * 1e3, "ms"),
    }
    for mode in ("unit", "random"):
        key = f"{RESET}.{mode}"
        m[f"sim.setup_ms.{mode}"] = (_ratio(dur[key], calls[key]) * 1e3, "ms")
    m["sim.setup_calls"] = (calls[RESET] / n, "count")
    m["sim.setup_share"] = (_ratio(dur[RESET], wall), "ratio")
    for mode in ("unit", "random"):
        m[f"sim.engine_us_per_event.{mode}"] = (
            _ratio(dur[f"{ENGINE}.{mode}"], events[mode]) * 1e6, "us")
    m["sim.engine_share"] = (_ratio(dur[ENGINE], wall), "ratio")
    m["sim.engine_calls"] = (calls[ENGINE] / n, "count")
    m["sim.events"] = (total_events / n, "count")
    m["sim.events_per_step"] = (_ratio(total_events, steps), "events/step")
    m["harness.cycle_self_us"] = (_ratio(own_time[RUN_CYCLE], cycles) * 1e6, "us")
    m["harness.scan_us_per_cycle"] = (_ratio(dur[SCAN], cycles) * 1e6, "us")
    m["harness.share"] = (_ratio(harness_time, wall), "ratio")
    m["harness.burst_ms"] = (_ratio(dur[RUN_BURST], calls[RUN_BURST]) * 1e3, "ms")
    m["harness.errors"] = (errors / n, "count")
    m["harness.control_errors"] = (control_errors / n, "count")
    for c in CHECKS:
        m[f"verify.{c}_s"] = (dur[f"verify.{c}"] / n, "s")
    m["verify.controls_s"] = (controls / n, "s")
    m["metrics.measure_ms"] = (_ratio(dur["metrics.measure"],
                                      calls["metrics.measure"]) * 1e3, "ms")
    for name in sorted(own_time):
        m[f"self.{name}_s"] = (own_time[name] / n, "s")
    return m
