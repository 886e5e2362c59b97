"""Run the benchmark once per seed and summarise each metric's spread.

    python3 bench/repeat.py --workloads sweep4,throughput,verify \
        --seeds 1-10 --out bench-summary.json

Runs are sequential, one process at a time, from the repository root.  For
each workload and metric the summary holds every value, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the interquartile distance as a share of the median.  It also records the
machine (``nproc``, Python version) and the run settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="sweep4,throughput,verify")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False)
    summary = {
        "commit": git.stdout.strip() or None,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            runs.append(result)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        names = runs[0]["metrics"]
        summary["workloads"][workload] = {
            name: {"unit": names[name]["unit"],
                   **summarise([r["metrics"][name]["value"] for r in runs])}
            for name in names
        }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for workload, metrics in summary["workloads"].items():
        for name, s in metrics.items():
            print(f"{workload:10s} {name:24s} median {s['median']:.6g} spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
