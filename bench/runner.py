"""Timed rounds of a workload's ops, and the end-to-end metrics they give.

Host times are read with ``perf_counter`` and scaled to a fixed machine pace
by ``pace.py``; the metrics report the scaled times, and the host times are
printed beside them as ``host.*``.
"""

from __future__ import annotations

import gc
import importlib
import math
import resource
import statistics
import sys
import traceback
from time import perf_counter

from pace import Pace
from tracing import OP, Tracer, instrumented, op_totals

MIN_ROUNDS = 3
MAX_TRACEBACKS = 3
PACKAGE = "qdimul"


def tail_percentile(n: int) -> float:
    """p99, or with under 1,000 samples the highest level with ten beyond it.

    Runs too small to leave ten samples beyond the median (only the
    self-test's) report the maximum.
    """
    if n >= 1000:
        return 99.0
    return max(100.0 * (n - 10) / n, 50.0) if n > 20 else 100.0


def nearest_rank(sorted_values: list[float], level: float) -> float:
    return sorted_values[max(0, math.ceil(level / 100.0 * len(sorted_values)) - 1)]


def _package_modules() -> list[str]:
    return [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]


def import_seconds() -> float:
    """Time a fresh import of the package, then put the copy in use back.

    The fresh copy is discarded, so ops built before and after this call
    keep seeing the same modules and classes.
    """
    saved = {m: sys.modules.pop(m) for m in _package_modules()}
    try:
        t0 = perf_counter()
        importlib.import_module(PACKAGE)
        return perf_counter() - t0
    finally:
        for m in _package_modules():
            del sys.modules[m]
        sys.modules.update(saved)


class Runner:
    """Sets a workload up afresh for every round, then times and checks its ops."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.ops: list | None = None
        self.attempted = 0
        self.failed = 0
        self.reference: list | None = None
        self.work: list[int] = []
        self.tracebacks = 0
        self.op_totals: dict[int, tuple[int, int]] = {}
        self.pace = Pace()
        self.setup_times: list[float] = []  # scaled
        self.host_setup_times: list[float] = []
        self.setup_spans: list[tuple[list, float]] = []  # (spans, scale) per set-up

    def setup(self, tracer: Tracer | None = None) -> None:
        """Import qdimul and build the workload's designs and ops anew.

        Both are timed together as one set-up sample.  Fresh designs every
        round mean that state kept on a design object (a cache, say) is paid
        for once per round, as in one ``qdimul`` command.
        """
        self.ops = None
        gc.collect()  # every set-up starts from the same heap
        first = self.pace.sample()
        seconds = import_seconds()
        gc.collect()
        t0 = perf_counter()
        if tracer is None:
            self.ops = self.workload.build()
        else:
            with instrumented(tracer):
                self.ops = self.workload.build()
        seconds += perf_counter() - t0
        scale = self.pace.span_scale(first, self.pace.sample())
        if tracer is not None:
            self.setup_spans.append((tracer.take(), scale))
        self.host_setup_times.append(seconds)
        self.setup_times.append(seconds * scale)
        gc.collect()

    def round(self, times: list[list[float]], tracer=None) -> tuple[float, float, float]:
        """Run every op once; append each op's scaled time to ``times``.

        Returns the summed host and scaled op times and the round's scale.
        The pace kernel runs between ops and outputs are checked right after
        each op, both outside the timed region.
        """
        signatures, work, marks, host = [], [], [], []
        for i, op in enumerate(self.ops):
            marks.append(self.pace.tick())
            idx = tracer.open(OP, i) if tracer else None
            t0 = perf_counter()
            try:
                value = op.run()
                error = None
            except Exception as exc:  # counted as a failed op, the run goes on
                value, error = None, exc
            dt = perf_counter() - t0
            if tracer:
                tracer.close(idx)
            host.append(dt)
            self._check(i, op, value, error, signatures, work)
        last = self.pace.sample()
        scaled = 0.0
        for i, (dt, mark) in enumerate(zip(host, marks)):
            times[i].append(dt * self.pace.scale(mark))
            scaled += times[i][-1]
        if self.reference is None:
            self.reference, self.work = signatures, work
        return sum(host), scaled, self.pace.span_scale(marks[0], last)

    def _check(self, i, op, value, error, signatures, work) -> None:
        if error is not None:
            if self.tracebacks < MAX_TRACEBACKS:
                self.tracebacks += 1
                print(f"bench: op {op.key} raised:", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)
            failed = attempted = max(op.attempted, 1)
            sig, done = ("raised", type(error).__name__), 0
        else:
            res = op.check(value)
            attempted, failed, sig, done = op.attempted, res.failed, res.signature, res.work
        if not failed and self.reference is not None and sig != self.reference[i]:
            print(f"bench: op {op.key} did not repeat its first output", file=sys.stderr)
            failed = attempted = max(op.attempted, 1)
        self.attempted += attempted
        self.failed += failed
        signatures.append(sig)
        work.append(done)

    def timed_rounds(self, seconds: float, tracer: Tracer, trace: bool):
        """Set up and run rounds until ``seconds`` are spent.

        The first round counts engine transitions and ticks per op under a
        light wrapper and is left out of the timings.  With ``trace`` every
        other round after it is fully traced, its set-up included.  Returns
        the plain rounds' scaled per-op times and their ``round`` results,
        then the traced rounds' ``round`` results and spans.
        """
        plain: list[list[float]] = []
        plain_walls: list[tuple[float, float, float]] = []
        traced_walls: list[tuple[float, float, float]] = []
        spans: list[list[list]] = []
        start = perf_counter()
        rounds = 0
        while True:
            elapsed = perf_counter() - start
            if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
                break
            if rounds == 0:
                self.setup()
                plain += [[] for _ in self.ops]
                with instrumented(tracer, engine_only=True):
                    self.round([[] for _ in self.ops], tracer)
                self.op_totals = op_totals(tracer.take())
            elif trace and rounds % 2:
                self.setup(tracer)
                with instrumented(tracer):
                    traced_walls.append(self.round([[] for _ in plain], tracer))
                spans.append(tracer.take())
            else:
                self.setup()
                plain_walls.append(self.round(plain))
            rounds += 1
        return plain, plain_walls, traced_walls, spans


def end_to_end(runner: Runner, times, walls: list[tuple]) -> tuple[dict, list]:
    per_op = runner.op_totals
    typical = [statistics.median(t) for t in times]
    wall = statistics.median(w for _, w, _ in walls)
    work = sum(runner.work)
    samples = sorted(t / per_op[i][0] * 1e6 for i, t in enumerate(typical)
                     if per_op.get(i, (0, 0))[0] > 0)
    level = tail_percentile(len(samples))
    events = sum(e for e, _ in per_op.values())
    ticks = sum(t for _, t in per_op.values())
    metrics = {
        "setup_s": (statistics.median(runner.setup_times), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (work / wall, "1/s"),
        "event_us_p50": (statistics.median(samples), "us"),
        "event_us_p99": (nearest_rank(samples, level), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_ticks_per_op": (ticks / work, "ticks"),
        "sim_transitions_per_op": (events / work, "events"),
        "sim.events": (events, "count"),
        "host.setup_s": (statistics.median(runner.host_setup_times), "s"),
        "host.wall_s": (statistics.median(h for h, _, _ in walls), "s"),
        "host.pace": (statistics.median(k for _, _, k in walls), "ratio"),
    }

    notes = [
        f"{len(walls)} timed rounds of {len(times)} ops after a counting round; "
        "setup_s and wall_s are medians over rounds",
        "times are scaled to a fixed machine pace (see bench/pace.py); host.* "
        "are the unscaled host times and host.pace the median scale",
        f"event_us_p99 is p{level:.1f} of {len(samples)} per-op samples "
        "(each op's median scaled time / its simulated transitions)",
    ]
    return metrics, notes
