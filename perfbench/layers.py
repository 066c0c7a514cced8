"""Which program functions the traced run wraps, and the per-layer metrics and
machine-independent counts computed from the spans they record.

recover_factor is deliberately not wrapped: a wrapper on every sweep step
would distort the sweep.  Sweep time is run_pipeline's self time and sweep
steps come from TrialRecord.steps.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from factorlab import fermat, harness, lattice, ntheory, polybuild

from tracing import Tracer


def _lll(args, kwargs, result, exc):
    return {"entry_bits": max(abs(v).bit_length() for row in args[0] for v in row)}


def _coppersmith(args, kwargs, result, exc):
    if exc is not None:
        return {"margin_bits": getattr(exc, "margin_bits", None)}
    return {"certified": result.certified, "margin_bits": result.margin_bits}


def _fermat(args, kwargs, result, exc):
    steps = result.steps if exc is None else getattr(exc, "steps", 0)
    # u*u stays in int64 for every u the scan visits when N < 2**60; from
    # 2**62 up no u does, and the scan runs on Python ints throughout
    bits = args[0].bit_length()
    path = "int64" if bits <= 60 else "bigint" if bits >= 62 else "mixed"
    return {"steps": steps, "path": path}


def _pipeline(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"method": result.method.value, "steps": result.steps}


# (module, attribute, span name, describe)
WRAPPED = (
    (harness, "run_pipeline", "harness.pipeline", _pipeline),
    (harness, "factor_auto", "harness.auto", None),
    (lattice, "coppersmith_bivariate", "lattice.coppersmith", _coppersmith),
    (lattice, "lll_reduce", "lattice.lll", _lll),
    (lattice, "integer_row_basis", "lattice.row_basis", None),
    (lattice, "sylvester_resultant", "intpoly.resultant", None),
    (lattice, "integer_roots", "intpoly.integer_roots", None),
    (fermat, "fermat_factor", "fermat", _fermat),
    (ntheory, "is_prime", "ntheory.is_prime", None),
    (ntheory, "select_modulus", "ntheory.select_modulus", None),
    (polybuild, "solve_companion_residue", "polybuild.build", None),
    (polybuild, "build_polynomial", "polybuild.build", None),
)

# span names whose self time is reported as a share of traced op time
SELF_PCT = {
    "lattice.lll": "lattice.lll.self_pct",
    "lattice.coppersmith": "lattice.coppersmith.self_pct",
    "lattice.row_basis": "lattice.row_basis.self_pct",
    "intpoly.integer_roots": "intpoly.integer_roots.self_pct",
    "intpoly.resultant": "intpoly.resultant.self_pct",
    "harness.pipeline": "harness.pipeline.self_pct",
    "harness.auto": "harness.auto.self_pct",
    "fermat": "fermat.self_pct",
    "ntheory.is_prime": "ntheory.is_prime.self_pct",
    "ntheory.select_modulus": "ntheory.select_modulus.self_pct",
    "polybuild.build": "polybuild.build.self_pct",
}

CALLS_PER_OP = {
    "lattice.lll": "lattice.lll.calls",
    "intpoly.integer_roots": "intpoly.integer_roots.calls",
    "intpoly.resultant": "intpoly.resultant.calls",
    "ntheory.is_prime": "ntheory.is_prime.calls",
}


def tracer() -> Tracer:
    """A Tracer holding the wrappers of WRAPPED; enter it to install them."""
    tracer = Tracer()
    for module, attr, name, describe in WRAPPED:
        tracer.wrap(module, attr, name, describe)
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, op_seconds: list[float]) -> dict[str, float]:
    """Per-layer metrics over the traced operations 0 .. len(op_seconds)-1.
    Times are shares of the summed op time; counts are per operation or per
    call as named."""
    tracer.close_spans()
    ops = len(op_seconds)
    total_s = sum(op_seconds)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    lll_in_coppersmith = 0
    entry_bits = 0
    copper_failed = copper_certified = 0
    margins = []
    sweep_steps = copper_method = pipeline_calls = 0
    tests = {"int64": 0, "bigint": 0}
    tests_s = {"int64": 0.0, "bigint": 0.0}
    by_id = tracer.spans
    for s in tracer.spans:
        self_s[s.name] += s.self_seconds
        incl_s[s.name] += s.seconds
        calls[s.name] += 1
        info = s.info
        if s.name == "lattice.lll":
            entry_bits = max(entry_bits, info["entry_bits"])
            if s.parent >= 0 and by_id[s.parent].name == "lattice.coppersmith":
                lll_in_coppersmith += 1
        elif s.name == "lattice.coppersmith":
            copper_failed += info.get("raised") == "LatticeFailure"
            copper_certified += bool(info.get("certified"))
            if info.get("margin_bits") is not None:
                margins.append(info["margin_bits"])
        elif s.name == "harness.pipeline":
            pipeline_calls += 1
            if info.get("method") == "X_SWEEP":
                sweep_steps += info["steps"]
            copper_method += info.get("method") == "COPPERSMITH"
        elif s.name == "fermat" and info["path"] in tests:
            tests[info["path"]] += info["steps"]
            tests_s[info["path"]] += s.self_seconds
    out: dict[str, float] = {}
    for name, metric in SELF_PCT.items():
        out[metric] = 100.0 * _ratio(self_s[name], total_s)
    for name, metric in CALLS_PER_OP.items():
        out[metric] = _ratio(calls[name], ops)
    copper_calls = calls["lattice.coppersmith"]
    out["lattice.lll.entry_bits_max"] = float(entry_bits)
    out["lattice.passes_per_call"] = _ratio(lll_in_coppersmith, copper_calls)
    out["lattice.failure_ratio"] = _ratio(copper_failed, copper_calls)
    out["lattice.certified_ratio"] = _ratio(copper_certified, copper_calls)
    out["polybuild.margin_bits_mean"] = _ratio(sum(margins), len(margins))
    out["harness.sweep.steps"] = _ratio(sweep_steps, ops)
    out["harness.coppersmith_share"] = _ratio(
        incl_s["lattice.coppersmith"], incl_s["harness.pipeline"]
    )
    out["harness.method.coppersmith_ratio"] = _ratio(copper_method, pipeline_calls)
    out["fermat.square_tests"] = _ratio(tests["int64"] + tests["bigint"], ops)
    for path in ("int64", "bigint"):
        out[f"fermat.{path}.tests_per_us"] = _ratio(tests[path], tests_s[path] * 1e6)
    out["trace.op_ms"] = 1000.0 * _ratio(total_s, ops)
    return out


def op_counts(tracer: Tracer, summaries: list[dict]) -> list[dict]:
    """Machine-independent counts of each traced operation: calls per wrapped
    function plus sweep steps, square tests, lattice failures and the result
    summary.  Two runs with the same seed give the same list."""
    rows = [
        {"calls": Counter(), "square_tests": 0, "sweep_steps": 0,
         "lattice_failures": 0, **summary}
        for summary in summaries
    ]
    for s in tracer.spans:
        if not 0 <= s.op < len(rows):
            continue
        row = rows[s.op]
        row["calls"][s.name] += 1
        if s.name == "fermat":
            row["square_tests"] += s.info["steps"]
        elif s.name == "harness.pipeline" and s.info.get("method") == "X_SWEEP":
            row["sweep_steps"] += s.info["steps"]
        elif s.name == "lattice.coppersmith":
            row["lattice_failures"] += s.info.get("raised") == "LatticeFailure"
    for row in rows:
        row["calls"] = dict(sorted(row["calls"].items()))
    return rows
