"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

Runs every workload tiny with ``--trace 0`` and ``--trace 1`` and checks
that every metric is printed with a unit, that the simulated statistics
repeat exactly across two runs of one seed, that a planted defect (a stage
with swapped output rails) gives ``failed_ratio > 0`` and a nonzero exit, and
that the benchmark refuses to run without the package sources.  It also
feeds the traced-round span check good and faulty spans.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
from layers import span_problems  # noqa: E402  (needs the package on the path)
from tracing import CHECKS, ENGINE, OP  # noqa: E402

SCENARIOS = tuple(f"verify.{c}_scenarios" for c in CHECKS)
#: Printed by every run on top of the declared metrics.
ALWAYS = ("failed_ratio",) + SCENARIOS
#: Printed but not declared: simulated statistics that must repeat exactly,
#: and per-layer figures that are 0 on some workload.
EXTRA = {
    "end_to_end": ("sim.events", "host.setup_s", "host.wall_s", "host.pace"),
    "per_layer": ("sim.events", "netlist.deserialize_ms", "netlist.dualize_ms",
                  "harness.burst_ms", "harness.errors", "harness.control_errors",
                  "verify.controls_s", "metrics.measure_ms")
                 + tuple(f"verify.{c}_s" for c in CHECKS),
}
EXACT = ("sim_ticks_per_op", "sim_transitions_per_op", "sim.events") + SCENARIOS
LINE = re.compile(r"^(\S+) = (\S+) (\S+)$")


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600,
                          check=False)
    printed = {}
    for line in proc.stdout.splitlines():
        m = LINE.match(line)
        if m:
            printed[m[1]] = (float(m[2]), m[3])
    return proc, printed


def span_check_problems() -> list[str]:
    """The traced-round check passes good spans and trips on planted faults."""
    def spans(child_end=0.5, child_parent=0):
        return [[OP, 0, 0.0, 1.0, -1, 0, 0, 0, False],
                [ENGINE, "unit", 0.1, child_end, child_parent, 0, 0, 0, False]]

    cases = [("good spans", spans(), 1.0, False),
             ("a child leaving its parent", spans(child_end=1.5), 1.0, True),
             ("a root that is not an op", spans(child_parent=-1), 1.0, True),
             ("a wall the spans do not cover", spans(), 1.5, True)]
    return [f"span check on {name}: {found}"
            for name, rows, wall, fault in cases
            if bool(found := span_problems(rows, wall)) != fault]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = span_check_problems()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = [m["name"] for m in spec[key]] + list(ALWAYS + EXTRA[key])
            proc, printed = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            problems += [f"{where}: {name} not printed with a unit"
                         for name in expected if name not in printed]
            result = json.loads(proc.stdout.splitlines()[-1])
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared or not result["correct"] or result["failed"]:
                problems.append(f"{where}: result line {result}")
            if printed.get("failed_ratio", (1.0,))[0] != 0.0:
                problems.append(f"{where}: failed_ratio {printed.get('failed_ratio')}")
            if trace == 0:
                _, again = run(workload, 0)
                problems += [f"{where}: {name} changed between runs of one seed"
                             for name in EXACT if printed.get(name) != again.get(name)]
        proc, printed = run(workload, 0, "--plant-defect")
        ratio = printed.get("failed_ratio", (0.0,))[0]
        if proc.returncode == 0 or not ratio > 0:
            problems.append(f"{workload} --plant-defect: exit {proc.returncode}, "
                            f"failed_ratio {ratio}")
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, _ = run("sweep4", 0, cwd=Path(bare))
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("bench ran without the package sources")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
