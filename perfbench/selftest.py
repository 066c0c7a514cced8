"""Tiny-size smoke test of the benchmark's own code, run by run.py before every
measurement (and standalone: python3 perfbench/selftest.py).

It checks span parentage and self time on a fake clock, the tail-percentile
rule, that each workload's oracle accepts the program's answers and rejects
a corrupted one, that per-operation counts repeat exactly between two traced
runs of the same inputs, and that the metrics the code computes are the ones
BENCHMARK.json and design.json declare.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _check_tracer(problems: list[str]) -> None:
    from tracing import Tracer

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    ns = types.SimpleNamespace()
    ns.inner = lambda: None
    ns.outer = lambda: (ns.inner(), ns.inner())
    original = ns.inner
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    with tracer:
        ns.outer()
    tracer.close_spans()
    shape = [(s.name, s.parent, s.seconds, s.self_seconds) for s in tracer.spans]
    if shape != [("outer", -1, 5.0, 3.0), ("inner", 0, 1.0, 1.0), ("inner", 0, 1.0, 1.0)]:
        problems.append(f"tracer spans wrong: {shape}")
    if ns.inner is not original:
        problems.append("tracer did not restore the wrapped attribute")


def _check_tail(problems: list[str]) -> None:
    from run import tail

    if tail([float(v) for v in range(40, 0, -1)]) != (30.0, 75.0):
        problems.append("tail() is not the 11th-largest sample at p75 of 40")


def _corrupt(result):
    from factorlab import harness, lattice

    if isinstance(result, harness.TrialRecord):
        return dataclasses.replace(result, p=result.q, q=result.p)
    if isinstance(result, lattice.CoppersmithResult):
        return dataclasses.replace(result, roots=result.roots[1:])
    if isinstance(result, harness.Factorization):
        return harness.Factorization(factors=[result.product()])
    raise TypeError(type(result))


def _check_workloads(problems: list[str]) -> None:
    import layers
    import workloads
    from run import run_ops

    tiny = (
        workloads.pipeline(20, count=2),
        workloads.solver(blocks=1, bits=(16, 16)),
        workloads.auto(cycles=1, small_bits=30, big_bits=64, gap_bits=18),
    )
    for wl in tiny:
        corpus = wl.corpus(0)[:4]
        counts = []
        for _ in range(2):
            tracer = layers.tracer()
            with tracer:
                run = run_ops(wl, corpus, count=len(corpus), tracer=tracer)
            if run.failed:
                problems.append(f"{wl.name}: {run.failed} tiny operations failed")
            counts.append(layers.op_counts(tracer, run.summaries))
        if counts[0] != counts[1]:
            problems.append(f"{wl.name}: counts differ between identical runs")
        item = corpus[0]
        if wl.check(item, _corrupt(wl.op(item))):
            problems.append(f"{wl.name}: oracle accepted a corrupted result")


def _check_declared(problems: list[str]) -> None:
    import layers
    from tracing import Tracer

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "design.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    computed = set(layers.layer_metrics(Tracer(), [1.0])) | {
        "trace.overhead_pct", "trace.ops"}
    if per_layer != computed:
        problems.append(f"per_layer mismatch: {sorted(per_layer ^ computed)}")
    if per_layer != set(design["layers"]):
        problems.append(f"design.json layers mismatch: {sorted(per_layer ^ set(design['layers']))}")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    if end_to_end != {"ops_per_s", "op_ms_p50", "op_ms_tail", "setup_s", "peak_rss_mb"}:
        problems.append(f"end_to_end metrics changed: {sorted(end_to_end)}")
    import workloads

    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def run_all() -> list[str]:
    """Every check; returns the problems found (empty when all pass)."""
    problems: list[str] = []
    for check in (_check_tracer, _check_tail, _check_workloads, _check_declared):
        check(problems)
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    import run

    run.load_program()
    found = run_all()
    for line in found:
        print(f"FAIL {line}")
    print("self-test", "failed" if found else "passed")
    sys.exit(1 if found else 0)
