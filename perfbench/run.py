"""factorlab benchmark: one workload in one process and one thread, as a closed
loop with one operation in flight.

    python3 perfbench/run.py --workload pipeline-40 --seed 1 --seconds 25 --trace 0

Every result is checked against an independent oracle outside the timed
region; an exception or a mismatch counts as failed and is never retried.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, and the spans and
per-operation counts are written under .perfbench_out/.  Earlier stdout lines
("info: {...}") give the environment and the tail percentile.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile


class ProgramMissing(RuntimeError):
    pass


def load_program() -> float:
    """Import factorlab from this checkout's src/ and return the import time."""
    if not (SRC / "factorlab" / "__init__.py").is_file():
        raise ProgramMissing(f"no factorlab sources under {SRC}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import factorlab
    seconds = time.perf_counter() - t0
    if not Path(factorlab.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"factorlab imported from {factorlab.__file__}, not {SRC}")
    return seconds


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it, as
    (value, percentile): the (TAIL_BEYOND + 1)-th largest sample."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class Run:
    times: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    summaries: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def run_op(workload, item, run: Run) -> float:
    """Time one operation, check its result untimed, record both in run."""
    t0 = time.perf_counter()
    try:
        result = workload.op(item)
    except Exception as exc:  # a failed operation, counted below
        result = exc
    dt = time.perf_counter() - t0
    run.times.append(dt)
    if isinstance(result, Exception):
        run.ok.append(False)
        run.summaries.append({"raised": type(result).__name__})
        return dt
    try:
        good = bool(workload.check(item, result))
    except Exception:
        good = False
    run.ok.append(good)
    run.summaries.append(workload.summary(result))
    return dt


def run_ops(workload, corpus, *, seconds=None, count=None, tracer=None) -> Run:
    """Run operations over the corpus (cycling) until `seconds` of measured
    op time and at least TAIL_BEYOND + 1 operations, or exactly `count`."""
    run = Run()
    measured = 0.0
    i = 0
    while (i < count) if count is not None else (
        measured < seconds or i <= TAIL_BEYOND
    ):
        if tracer is not None:
            tracer.op = i
        measured += run_op(workload, corpus[i % len(corpus)], run)
        i += 1
    return run


def set_up(workload, seed: int) -> tuple[list, float, Run]:
    """Generate the corpus and warm up; returns (corpus, seconds, warm-up run)."""
    t0 = time.perf_counter()
    corpus = workload.corpus(seed)
    warm_items = workload.warmup()
    warm = run_ops(workload, warm_items, count=len(warm_items))
    return corpus, time.perf_counter() - t0, warm


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def environment() -> dict:
    import numpy

    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            rev = proc.stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
    }


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer" in BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(workload, corpus, seconds: float) -> tuple[dict, Run, dict]:
    run = run_ops(workload, corpus, seconds=seconds)
    tail_s, tail_pct = tail(run.times)
    values = {
        "ops_per_s": (len(run.ok) - run.failed) / sum(run.times),
        "op_ms_p50": statistics.median(run.times) * 1000.0,
        "op_ms_tail": tail_s * 1000.0,
    }
    return values, run, {"tail_percentile": tail_pct, "tail_samples": len(run.times)}


def measure_traced(workload, corpus, seconds: float, stem: str) -> tuple[dict, list[Run]]:
    """Each operation runs twice, traced and untraced, in alternating order,
    until the traced runs reach half the time; the difference of the two sums
    is the tracing overhead."""
    import layers

    tracer = layers.tracer()
    traced, plain = Run(), Run()
    measured = 0.0
    i = 0
    while measured < seconds / 2 or i <= TAIL_BEYOND:
        item = corpus[i % len(corpus)]
        tracer.op = i
        if i % 2:
            run_op(workload, item, plain)
        with tracer:
            measured += run_op(workload, item, traced)
        if not i % 2:
            run_op(workload, item, plain)
        i += 1
    values = layers.layer_metrics(tracer, traced.times)
    values["trace.overhead_pct"] = 100.0 * (sum(traced.times) / sum(plain.times) - 1.0)
    values["trace.ops"] = float(len(traced.times))
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"{stem}.spans.jsonl"))
    with open(OUT / f"{stem}.counts.jsonl", "w") as out:
        for row in layers.op_counts(tracer, traced.summaries):
            out.write(json.dumps(row, sort_keys=True) + "\n")
    return values, [traced, plain]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import_s = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import selftest
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    problems = selftest.run_all()
    if problems:
        for line in problems:
            print(f"perfbench self-test: {line}", file=sys.stderr)
        return 1

    workload = workloads.WORKLOADS[args.workload]()
    setups = [set_up(workload, args.seed) for _ in range(SETUP_REPEATS)]
    corpus = setups[0][0]
    runs = [warm for _corpus, _s, warm in setups]
    setup_s = import_s + statistics.median(s for _corpus, s, _warm in setups)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "setup_import_s": import_s, **environment()}
    if args.trace:
        stem = f"{args.workload}-seed{args.seed}"
        values, traced_runs = measure_traced(workload, corpus, args.seconds, stem)
        runs += traced_runs
        info["spans"] = str(OUT.relative_to(ROOT) / f"{stem}.spans.jsonl")
        units = declared("per_layer")
    else:
        values, run, tail_info = measure(workload, corpus, args.seconds)
        runs.append(run)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb()
        info.update(tail_info)
        units = declared("end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    attempted = sum(len(r.ok) for r in runs)
    failed = sum(r.failed for r in runs)
    print("info: " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
