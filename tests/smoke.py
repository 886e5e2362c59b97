"""Stdlib-only smoke check for interpreters without pytest or hypothesis.

    PYTHONPATH=src python tests/smoke.py

Checks the golden trace digests (unit and random delays, and a uniform
delay table, at n = 2 and 4; 8x8 sequences and bursts and fork-skew pulses,
which run unequal delays on the per-timestamp batch loop), the two random
ones again with delays drawn as before one seeded stream per model (so the
engine is pinned apart from the draws), the checker outcome digest (which
pins stage indication's settled-state lanes as well as its serial loop),
the critical-path digest (every generator choice at n = 2 to 16 and the
negative controls, walked in the settled-state module's gate order), the
golden serialize digest and the reader's error for each corruption in
the parse-error corpus, all from ``tests/golden.py``.  Prints one line per
check and exits 1 if any differs.
"""

from __future__ import annotations

import platform
import sys

import golden


def main() -> int:
    failed = 0
    checks = (
        ("trace digest", golden.trace_digest, golden.GOLDEN_TRACE_SHA256),
        ("table trace digest", golden.table_trace_digest, golden.GOLDEN_TRACE_TABLE_SHA256),
        ("wide trace digest", golden.wide_trace_digest, golden.GOLDEN_TRACE_WIDE_SHA256),
        ("trace digest, legacy draws", golden.legacy_trace_digest,
         golden.LEGACY_DRAW_TRACE_SHA256),
        ("wide trace digest, legacy draws", golden.legacy_wide_trace_digest,
         golden.LEGACY_DRAW_TRACE_WIDE_SHA256),
        ("checker outcome digest", golden.outcome_digest, golden.GOLDEN_OUTCOME_SHA256),
        ("critical-path digest", golden.critical_path_digest,
         golden.GOLDEN_CRITICAL_PATH_SHA256),
        ("serialize digest", golden.serialize_digest, golden.GOLDEN_SERIALIZE_SHA256),
        ("parse-error corpus", golden.parse_errors, golden.GOLDEN_PARSE_ERRORS),
    )
    for name, compute, want in checks:
        got = compute()
        ok = got == want
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok and isinstance(want, dict):
            for key in want:
                if got.get(key) != want[key]:
                    print(f"     {key}: got {got.get(key)!r}, want {want[key]!r}")
    print(f"python {platform.python_version()}: {len(checks) - failed}/{len(checks)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
