"""The benchmark's tracer against the current package.

``bench/tracing.py`` wraps qdimul's layer boundaries, including the copies
of ``reset``, ``dualize`` and ``scan_port_changes`` that other modules bind
at import, and reads each one out of its owner's ``__dict__``.  A package
edit that drops one of them would otherwise break only the benchmark.
"""

import importlib.util
from pathlib import Path

import qdimul.harness as harness
import qdimul.metrics as metrics
import qdimul.multiplier as multiplier
import qdimul.netlist as netlist
import qdimul.sim as sim
import qdimul.verify as verify
from qdimul.multiplier import MultiplierSpec, generate

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
OWNERS = (multiplier, netlist, sim, harness, verify, metrics, sim.SimState, harness.Harness)


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_every_target_and_restores_it():
    tracing = _tracing()
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        during = [dict(vars(owner)) for owner in OWNERS]
        verify.check_stage_indication(generate(MultiplierSpec(2)))
    after = [dict(vars(owner)) for owner in OWNERS]
    wrapped = {(owner.__name__, attr) for owner, old, new in zip(OWNERS, before, during)
               for attr in old if new[attr] is not old[attr]}
    assert {("qdimul.verify", "reset"), ("qdimul.verify", "dualize"),
            ("qdimul.verify", "scan_port_changes"), ("qdimul.harness", "reset"),
            ("qdimul.harness", "scan_port_changes"), ("qdimul.sim", "reset"),
            ("SimState", "run_until_quiescent")} <= wrapped
    for old, new in zip(before, after):
        assert new.keys() == old.keys()
        assert all(new[attr] is old[attr] for attr in old)
    assert "verify.stage_indication" in {span[tracing.NAME] for span in tracer.take()}
