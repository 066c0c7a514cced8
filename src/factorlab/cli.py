"""factorlab command-line interface.

Subcommands: factor, gen, experiment, bound-scan, lll-check.  All output is
plain text or JSONL on stdout; configuration is flags only.  Exit codes:
0 success, 2 exhausted/incomplete, 1 usage, domain or output error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Callable

from . import fermat, harness, lattice, ntheory
from .harness import Balance, Method, SemiprimeSpec


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_n(text: str) -> int:
    text = text.strip()
    if text.lower().startswith(("0x", "-0x")):
        return int(text, 16)
    return int(text, 10)


def _build_parser() -> _Parser:
    parser = _Parser(prog="factorlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor one integer")
    p_factor.set_defaults(run=_cmd_factor)
    p_factor.add_argument("N", type=_parse_n, help="integer, decimal or 0x-hex")
    p_factor.add_argument(
        "--method",
        choices=("auto", "fermat", "shifted", "pipeline"),
        default="auto",
    )
    p_factor.add_argument("--x", type=int, default=0, help="shifted-center offset")
    p_factor.add_argument(
        "--cap", type=int, default=fermat.DEFAULT_STEP_CAP, help="square-test cap"
    )

    p_gen = sub.add_parser("gen", help="emit reproducible semiprimes as JSONL")
    p_gen.set_defaults(run=_cmd_gen)
    p_gen.add_argument("--bits", type=int, required=True)
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--unbalanced", action="store_true")

    p_exp = sub.add_parser("experiment", help="run pipeline trials, JSONL records")
    p_exp.set_defaults(run=_cmd_experiment)
    p_exp.add_argument("--bits", type=int, required=True)
    p_exp.add_argument("--count", type=int, required=True)
    p_exp.add_argument("--seed", type=int, required=True)
    p_exp.add_argument("--unbalanced", action="store_true")
    p_exp.add_argument("--out", required=True, help="output file for JSONL records")

    p_scan = sub.add_parser("bound-scan", help="bound-margin table as JSONL")
    p_scan.set_defaults(run=_cmd_bound_scan)
    p_scan.add_argument("--bits-min", type=int, required=True)
    p_scan.add_argument("--bits-max", type=int, required=True)
    p_scan.add_argument("--step", type=int, default=4)
    p_scan.add_argument("--trials", type=int, default=10)

    p_lll = sub.add_parser("lll-check", help="reduction invariant suite")
    p_lll.set_defaults(run=_cmd_lll_check)
    p_lll.add_argument("--dim", type=int, required=True)
    p_lll.add_argument("--seed", type=int, required=True)
    p_lll.add_argument("--trials", type=int, required=True)
    p_lll.add_argument(
        "--entry-bits",
        type=int,
        default=40,
        help="max size of uniform entries and knapsack weights a_i, bits",
    )
    return parser


def _cmd_factor(args) -> int:
    N = args.N
    if N < 2:
        raise ValueError("N must be >= 2")
    if args.cap < 1:
        raise ValueError("--cap must be >= 1")
    if args.method == "auto":
        result = harness.factor_auto(N, fermat_cap=args.cap)
        factors = " * ".join(str(f) for f in result.factors)
        if not result.complete:
            print(f"{N} = {factors} * [{result.cofactor}]  (incomplete)")
            return 2
        print(f"{N} = {factors}")
        if result.splits:  # the split of N itself, from the stage that made it
            print(result.splits[0].to_json())
        return 0
    if ntheory.is_prime(N):
        print(f"{N} is prime")
        return 0
    if args.method == "pipeline":
        record = harness.enumerate_residues(N)
        if record is None:
            print("pipeline exhausted")
            return 2
    else:
        t0 = time.perf_counter()
        try:
            if args.method == "fermat":
                rep, method = fermat.fermat_factor(N, args.cap), Method.FERMAT
            else:
                rep = fermat.shifted_fermat(N, args.x, args.cap)
                method = Method.SHIFTED_FERMAT
        except fermat.Exhausted:
            print(f"exhausted after {args.cap} square tests")
            return 2
        record = harness._record(N, rep.p, t0, method, rep.steps)
    print(f"{N} = {record.p} * {record.q}")
    print(record.to_json())
    return 0


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    balance = Balance.UNBALANCED if args.unbalanced else Balance.BALANCED
    for i in range(args.count):
        spec = SemiprimeSpec(bits=args.bits, balance=balance, seed=args.seed + i)
        N, p, q = harness.gen_semiprime(spec)
        print(json.dumps({"N": str(N), "p": str(p), "q": str(q)}))
    return 0


def _cmd_experiment(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    balance = Balance.UNBALANCED if args.unbalanced else Balance.BALANCED
    spec = SemiprimeSpec(bits=args.bits, balance=balance, seed=args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:  # fail before any trial
        records = harness.experiment_run(spec, args.count)
        for rec in records:
            fh.write(rec.to_json() + "\n")
    ok = sum(1 for r in records if r.success)
    print(f"wrote {len(records)} records to {args.out} ({ok} successes)")
    return 0 if ok == len(records) else 2


def _cmd_bound_scan(args) -> int:
    rows = harness.bound_scan(args.bits_min, args.bits_max, args.step, args.trials)
    for row in rows:
        print(row.to_json())
    return 0


def _cmd_lll_check(args) -> int:
    if args.dim < 2:
        raise ValueError("--dim must be >= 2")
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.entry_bits < 1:
        raise ValueError("--entry-bits must be >= 1")
    rng = random.Random(args.seed)
    bound = 1 << args.entry_bits
    bad = 0
    for trial in range(args.trials):
        if trial % 2 == 0:
            shape = "uniform"
            basis = [
                [rng.randrange(-bound, bound) for _ in range(args.dim)]
                for _ in range(args.dim)
            ]
        else:
            # [I | 2^20 * a_i]: far from reduced as drawn, so LLL must swap
            shape = "knapsack"
            basis = [
                [int(i == j) for j in range(args.dim)]
                + [(1 << 20) * rng.getrandbits(args.entry_bits)]
                for i in range(args.dim)
            ]
        try:
            reduced = lattice.lll_reduce(basis)
        except lattice.DependentRows:
            print(json.dumps({"trial": trial, "shape": shape, "status": "dependent"}))
            continue
        problems = lattice.check_reduction(basis, reduced)
        status = "ok" if not problems else "FAIL " + "; ".join(problems)
        print(json.dumps({"trial": trial, "shape": shape, "status": status}))
        bad += bool(problems)
    return 0 if bad == 0 else 2


def run_piped(run: Callable[[], int | None]) -> int | None:
    """run() and its exit status, or 1 without a traceback if the reader of
    stdout closes the pipe early (the demos run their main through it too)."""
    try:
        status = run()
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # send what is still buffered to devnull, so the interpreter's flush
        # at exit raises nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run_piped(lambda: args.run(args))
    except (OSError, ValueError, harness.GenerationExhausted) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
