"""qdimul benchmark: one workload per process, one caller, no threads.

    python3 bench/run.py --workload sweep4 --seed 1 --seconds 36 --trace 0

Run from the repository root; the package is imported from ``src/`` next to
this directory.  Workloads (see ``workloads.py``):

* ``sweep4``     -- the acceptance ``bulk`` sweep at 4x4, every cycle traced
                    and checked with the port and net rules.
* ``throughput`` -- ``qdimul bench``: untraced ``run_sequence`` on 8x8 and
                    16x16 RTZ stages, unit and random delays, then ``measure``
                    and ``compare``.
* ``verify``     -- ``qdimul gen | qdimul verify``: the checker battery on
                    deserialized designs, cell indication, negative controls.

Each round of a run starts with a fresh set-up: a fresh import of qdimul (the
copy is timed, then discarded) and the workload's designs generated anew, so
that nothing kept on a design object outlives one round, as with one
``qdimul`` command.  Rounds repeat until ``--seconds`` are spent.  ``setup_s``
is the median set-up and ``wall_s`` the median round (the summed times of
its ops, checks left out).  ``event_us_p50``/``p99`` are percentiles over
the ops of each op's median time, divided by its simulated transitions.

The first round runs with a counter on the engine, which supplies the
simulated transitions and ticks of every op; its times are left out.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics computed from
the spans of ``tracing.py``, after checking that each traced round's spans
nest and add up to the round's time by the runner's own clock.

Every op's output is checked (products against ``a*b``, the acceptance port
and net rules, checker verdicts, negative controls caught) and every round
must repeat the first round's outputs exactly.  Any miss counts toward
``failed_ratio`` and the command exits 1.  The last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every time reported is host time scaled to a fixed machine pace: a small
reference kernel (``pace.py``) runs between ops, and each op's host time is
multiplied by the kernel's reference time over its measured time.  The host
times themselves are printed as ``host.setup_s`` and ``host.wall_s``, and the
median scale as ``host.pace``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_PROBLEMS = 5


def import_qdimul() -> None:
    """Put the checkout's ``src`` first on the path and import the package."""
    if not (SRC / "qdimul" / "__init__.py").is_file():
        sys.exit(f"bench: no qdimul sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qdimul

    if Path(qdimul.__file__).resolve().parent != SRC / "qdimul":
        sys.exit(f"bench: imported qdimul from {qdimul.__file__}, not from {SRC}")


def report(workload: str, metrics: dict, notes: list[str]) -> None:
    print(f"# qdimul benchmark, workload {workload}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for note in notes:
        print(f"# {note}")


def declared(mode: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if mode else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep4", "throughput", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small designs and few pairs, for the self-test")
    parser.add_argument("--plant-defect", action="store_true",
                        help="swap the rails of one stage's output port (self-test)")
    args = parser.parse_args(argv)

    import_qdimul()
    import layers
    from runner import Runner, end_to_end
    from tracing import Tracer
    from workloads import WORKLOADS

    names = declared(args.trace)
    workload = WORKLOADS[args.workload](args.seed, args.tiny, args.plant_defect)
    runner = Runner(workload)
    plain, plain_walls, traced_walls, spans = runner.timed_rounds(
        args.seconds, Tracer(), bool(args.trace))

    if args.trace:
        scales = [k for _, _, k in traced_walls]
        metrics = layers.per_layer(runner.setup_spans, spans, scales, runner.ops)
        overhead = (statistics.median(w for _, w, _ in traced_walls)
                    / statistics.median(w for _, w, _ in plain_walls))
        metrics["trace_overhead_ratio"] = (overhead, "ratio")
        notes = [f"{len(spans)} traced and {len(plain_walls)} untraced rounds; "
                 "times are scaled to a fixed machine pace (see bench/pace.py)"]
        for round_spans, (wall, _, _) in zip(spans, traced_walls):
            problems = layers.span_problems(round_spans, wall)
            for p in problems[:MAX_PROBLEMS]:
                print(f"bench: traced round: {p}", file=sys.stderr)
            runner.failed += bool(problems)
    else:
        metrics, notes = end_to_end(runner, plain, plain_walls)
        kind = "checker scenarios" if args.workload == "verify" else "handshake cycles"
        notes.append(f"ops_per_s counts {kind}")
    metrics.update(layers.scenarios(runner.ops, runner.work))
    ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    metrics["failed_ratio"] = (ratio, "ratio")
    report(args.workload, metrics, notes)
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"bench: declared metrics not computed: {missing}", file=sys.stderr)
        return 2
    correct = runner.failed == 0 and runner.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
