"""Generate a 4x4 multiplier stage and walk one handshake cycle.

The generated stage is a full pipeline slice: input registers, an array
of dual-rail AND cells feeding a carry-save adder array, completion
detection on the product, and an acknowledge wire back to the
environment.  The harness plays the environment: apply operands, wait
for the acknowledge, apply the spacer, wait for release.  Run with:

    python3 demos/03_multiplier_walkthrough.py
"""

import io

from qdimul import (
    Harness,
    MultiplierSpec,
    critical_path,
    design_label,
    generate,
    scan_port_changes,
    structure_stats,
    write_trace_vcd,
)


def main():
    spec = MultiplierSpec(n=4)
    nl = generate(spec)
    st = structure_stats(nl)
    print(f"design {design_label(nl)}")
    print(f"  AND cells         {st.and_cells}")
    print(f"  full adders       {st.full_adders}")
    print(f"  constant carries  {st.constant_carries}")
    print(f"  C-elements        {st.c_element_count}")
    print(f"  total gates       {st.gate_count}")
    print(f"  product bits      {st.product_width}")
    cp = critical_path(nl)
    print(f"  longest register-to-acknowledge gate chain: {cp.length} gates")
    print()

    harness = Harness(nl)
    report = harness.run_cycle(13, 11, want_trace=True)
    print(f"13 x 11 = {report.product}")
    print(f"  forward latency (data in -> acknowledge)   {report.forward} ticks")
    print(f"  reverse latency (spacer in -> release)     {report.reverse} ticks")
    print(f"  cycle time                                 {report.cycle} ticks")
    print(f"  net transitions this cycle                 {report.transitions}")
    print()

    print("product port timeline (decoded):")
    changes = scan_port_changes(nl, nl.reset_levels(), report.trace)
    for name in nl.meta["products"]:
        points = changes[name]
        steps = ", ".join(f"t={t}: {v.name}" for t, v in points)
        print(f"  {name:4s} {steps}")
    print()

    buf = io.StringIO()
    write_trace_vcd(nl, report.trace, buf)
    lines = buf.getvalue().count("\n")
    print(f"the same trace exports as a {lines}-line VCD waveform file")
    print("(use --trace out.vcd on the command line to write one)")


if __name__ == "__main__":
    main()
