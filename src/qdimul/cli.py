"""Command line front end.

Subcommands: ``gen`` writes a netlist JSON, ``sim`` runs handshake cycles,
``verify`` runs the checker battery, ``bench`` measures and ranks designs,
``report`` re-renders stored bench artifacts.  Exit codes: 0 on success,
1 when a checked property fails (a failing check, or a simulation that
stalls, decodes ILLEGAL or never settles), 2 for a bad command line, an IO
error or an unusable input.

Artifacts are deterministic: they embed the tool version and the run
configuration but no timestamps or machine state, so rerunning the same
command reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

from . import __version__
from .cells import FullAdderKind
from .harness import (HANDSHAKE_ERRORS, Harness, cycle_report_rows,
                      write_cycle_reports_csv)
from .metrics import StageMetrics, compare, measure, normalize_pctp, render_rows
from .multiplier import MultiplierSpec, generate
from .netlist import GateKind, ParseError, Protocol, deserialize, serialize
from .sim import DelayModel, write_trace_csv, write_trace_vcd
from . import verify as verify_mod


class UsageError(ValueError):
    pass


def _load_delay_table(path: str) -> dict[GateKind, int]:
    """A JSON object mapping gate kind names to integer delays of at least 1."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"delay table not found: {path}")
    except RecursionError:
        raise UsageError(f"bad delay table {path}: nested too deeply") from None
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad delay table {path}: {exc}")
    if not isinstance(raw, dict):
        raise UsageError(f"bad delay table {path}: expected a JSON object "
                         f"mapping gate kinds to delays, got {type(raw).__name__}")
    table = {}
    for name, delay in raw.items():
        try:
            kind = GateKind(name)
        except ValueError:
            raise UsageError(f"bad delay table {path}: unknown gate kind {name!r}") from None
        if type(delay) is not int or delay < 1:  # bool is an int subclass: refused
            raise UsageError(f"bad delay table {path}: delay for {name} must be "
                             f"an integer >= 1, got {json.dumps(delay)[:40]}")
        table[kind] = delay
    return table


def parse_delay_model(text: str, seed: int) -> DelayModel:
    """Parse ``unit``, ``table:<path>`` or ``random:<lo>,<hi>``."""
    if text == "unit":
        return DelayModel.unit()
    if text.startswith("table:"):
        path = text[len("table:"):]
        if not path:
            raise UsageError("table delay model needs a file: table:<path>")
        return DelayModel.fixed_table(_load_delay_table(path))
    if text.startswith("random:"):
        spec = text[len("random:"):]
        try:
            lo_s, hi_s = spec.split(",")
            return DelayModel.random_per_gate(int(lo_s), int(hi_s), seed)
        except ValueError as exc:
            raise UsageError(f"bad random delay bounds {spec!r}: {exc}")
    raise UsageError(f"unknown delay model {text!r} "
                     "(expected unit, table:<path> or random:<lo>,<hi>)")


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


def _run_config(command: str, args: argparse.Namespace, keys: Sequence[str]) -> dict:
    return {
        "tool": "qdimul",
        "version": __version__,
        "command": command,
        "args": {k: getattr(args, k) for k in keys},
    }


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_netlist(path: str):
    with open(path, encoding="utf-8") as fh:
        return deserialize(fh.read())


def _parse_pairs(text: str, n: int) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        try:
            a_s, b_s = chunk.split("x")
            pairs.append((int(a_s), int(b_s)))
        except ValueError:
            raise UsageError(f"bad pair {chunk!r}, expected <a>x<b>")
    limit = 1 << n
    for a, b in pairs:
        if not (0 <= a < limit and 0 <= b < limit):
            raise UsageError(f"pair {a}x{b} does not fit in {n}-bit operands")
    return pairs


# -- subcommands -----------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    spec = MultiplierSpec(
        n=args.n,
        fa_kind=FullAdderKind(args.adder),
        protocol=Protocol(args.protocol),
        c3_as_tree=args.c3_tree,
        or4_as_tree=args.or4_tree,
    )
    netlist = generate(spec)
    netlist.meta["run"] = _run_config(
        "gen", args, ["n", "adder", "protocol", "c3_tree", "or4_tree"])
    _emit(serialize(netlist), args.out)
    return 0


def cmd_sim(args: argparse.Namespace) -> int:
    netlist = _load_netlist(args.netlist)
    harness = Harness(netlist, parse_delay_model(args.delay_model, args.seed))
    if args.pairs:
        pairs = _parse_pairs(args.pairs, harness.n)
    elif args.a is not None and args.b is not None:
        pairs = _parse_pairs(f"{args.a}x{args.b}", harness.n)
    else:
        raise UsageError("sim needs either --a and --b or --pairs")
    want_trace = args.trace is not None
    reports = harness.run_sequence(pairs, want_traces=want_trace)
    if want_trace:
        events = [e for r in reports for e in (r.trace or [])]
        with open(args.trace, "w", encoding="utf-8") as fh:
            if args.trace.endswith(".vcd"):
                write_trace_vcd(netlist, events, fh)
            else:
                write_trace_csv(events, fh)
    if args.json:
        payload = {
            "run": _run_config("sim", args, ["netlist", "pairs", "a", "b",
                                             "delay_model", "seed"]),
            "reports": cycle_report_rows(reports),
        }
        _emit(json.dumps(payload, indent=1, sort_keys=True) + "\n", args.out)
    else:
        import io

        buf = io.StringIO()
        write_cycle_reports_csv(reports, buf)
        _emit(buf.getvalue(), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    netlist = _load_netlist(args.netlist)
    battery = verify_mod.BATTERY
    names = args.checks.split(",") if args.checks else list(battery)
    for name in names:
        if name not in battery:
            raise UsageError(f"unknown check {name!r} (have {', '.join(battery)})")
    outcomes = [battery[name](netlist, args.seeds, args.samples, args.seed) for name in names]
    lines = []
    for oc in outcomes:
        status = "PASS" if oc.passed else "FAIL"
        lines.append(f"{status} {oc.check}: {oc.detail}")
        if oc.counterexample is not None:
            lines.append("  counterexample: " + oc.counterexample.to_json().replace("\n", " "))
    text = "\n".join(lines) + "\n"
    if args.json:
        payload = {
            "run": _run_config("verify", args,
                               ["netlist", "checks", "samples", "seeds", "seed"]),
            "checks": [
                {
                    "check": oc.check,
                    "passed": oc.passed,
                    "detail": oc.detail,
                    "scenarios": oc.scenarios,
                    "counterexample": (
                        json.loads(oc.counterexample.to_json())
                        if oc.counterexample else None
                    ),
                }
                for oc in outcomes
            ],
        }
        _emit(json.dumps(payload, indent=1, sort_keys=True) + "\n", args.out)
        sys.stderr.write(text)
    else:
        _emit(text, args.out)
    return 0 if all(oc.passed for oc in outcomes) else 1


def cmd_bench(args: argparse.Namespace) -> int:
    dm = parse_delay_model(args.delay_model, args.seed)
    adders = args.adders.split(",")
    rows: list[StageMetrics] = []
    pairs = verify_mod.sample_pairs(args.n, args.samples, args.seed)
    for adder in adders:
        spec = MultiplierSpec(n=args.n, fa_kind=FullAdderKind(adder),
                              protocol=Protocol(args.protocol))
        netlist = generate(spec)
        harness = Harness(netlist, dm)
        reports = harness.run_sequence(pairs)
        rows.append(measure(netlist, reports))
    ranked = compare(rows)
    if args.json:
        payload = {
            "run": _run_config("bench", args,
                               ["n", "protocol", "adders", "samples",
                                "delay_model", "seed"]),
            "rows": [dataclasses.asdict(r) for r in ranked],
        }
        _emit(json.dumps(payload, indent=1, sort_keys=True) + "\n", args.out)
    else:
        _emit(render_rows(ranked), args.out)
    return 0


_TEXT_FIELDS = {"design", "protocol", "fa_kind"}


def _metrics_row(raw, where: str) -> StageMetrics:
    """A stored bench row as :class:`StageMetrics`, its normalisation dropped."""
    if not isinstance(raw, dict):
        raise UsageError(f"{where}: expected an object")
    raw = {k: v for k, v in raw.items() if k != "pctp_normalized"}
    for k, v in raw.items():
        if isinstance(v, bool) or not isinstance(v, str if k in _TEXT_FIELDS else (int, float)):
            raise UsageError(f"{where}: bad value {v!r} for {k!r}")
    try:
        return StageMetrics(**raw)
    except TypeError as exc:
        raise UsageError(f"{where}: {exc}") from None


def cmd_report(args: argparse.Namespace) -> int:
    rows: list[StageMetrics] = []
    for path in args.inputs:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        raws = payload.get("rows", []) if isinstance(payload, dict) else None
        if not isinstance(raws, list):
            raise UsageError(f"{path}: not a bench artifact (expected an object with a rows list)")
        for i, raw in enumerate(raws):
            rows.append(_metrics_row(raw, f"{path}: rows[{i}]"))
    if not rows:
        raise UsageError("no rows found in the given bench artifacts")
    rows = normalize_pctp(rows)
    rows.sort(key=lambda r: (r.n, r.protocol, r.cycle_mean, r.pctp, r.design))
    _emit(render_rows(rows), args.out)
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdimul",
        description="Generate, simulate, verify and measure dual-rail "
                    "handshake multipliers.",
    )
    parser.add_argument("--version", action="version", version=f"qdimul {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common_out = {"default": None, "help": "output path (default stdout)"}

    p = sub.add_parser("gen", help="generate a multiplier netlist as JSON")
    p.add_argument("--n", type=int, required=True, help="operand width in bits")
    p.add_argument("--adder", default="dims",
                   choices=[k.value for k in FullAdderKind], help="full adder style")
    p.add_argument("--protocol", default="rtz", choices=["rtz", "rto"])
    p.add_argument("--c3-tree", action="store_true",
                   help="build 3-input joins from 2-input ones")
    p.add_argument("--or4-tree", action="store_true",
                   help="build 4-input merges from 2-input ones")
    p.add_argument("--out", **common_out)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sim", help="run handshake cycles on a netlist")
    p.add_argument("--netlist", required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--pairs", default=None, help="comma list like 3x5,2x7")
    p.add_argument("--delay-model", default="unit", dest="delay_model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="write events to .csv or .vcd")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", **common_out)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("verify", help="run the checker battery on a netlist")
    p.add_argument("--netlist", required=True)
    p.add_argument("--checks", default=None, help="comma list, default all")
    p.add_argument("--samples", type=_at_least(1), default=32)
    p.add_argument("--seeds", type=_at_least(0), default=4,
                   help="random delay seeds for the insensitivity sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", **common_out)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="measure and rank designs of one size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--protocol", default="rtz", choices=["rtz", "rto"])
    p.add_argument("--adders", default="dims,weak", help="comma list of adder styles")
    p.add_argument("--samples", type=_at_least(1), default=32)
    p.add_argument("--delay-model", default="unit", dest="delay_model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", **common_out)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="render stored bench artifacts as a table")
    p.add_argument("inputs", nargs="+", help="bench JSON artifacts")
    p.add_argument("--out", **common_out)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ParseError, FileNotFoundError, ValueError) as exc:
        parser.exit(2, f"qdimul: error: {exc}\n")
    except HANDSHAKE_ERRORS as exc:
        sys.stderr.write(f"qdimul: {exc.code}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
