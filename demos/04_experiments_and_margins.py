#!/usr/bin/env python3
"""Batch experiments and the bound-margin scan.

Runs the oracle pipeline over reproducible semiprime batches, shows which
path (lattice, residue-class square search or x-sweep) wins at each size, and
prints the margin table: the measurement that
the default box X = Y = floor(N^(1/3)) leaves essentially zero solvability
slack at every modulus size.
"""

import sys

from factorlab import SemiprimeSpec, bound_scan, experiment_run, factor_auto
from factorlab.cli import run_piped


def main():
    print("=" * 64)
    print("Oracle pipeline over reproducible batches")
    print("=" * 64)
    for bits in (24, 32, 40):
        records = experiment_run(SemiprimeSpec(bits=bits, seed=1), 20)
        wins = {}
        for rec in records:
            wins[rec.method.value] = wins.get(rec.method.value, 0) + 1
        margins = [rec.margin_bits for rec in records if rec.B]
        mean = sum(margins) / len(margins) if margins else float("nan")
        print(f"  {bits}-bit: {sum(r.success for r in records)}/20 ok, "
              f"paths {wins}, mean margin {mean:+.2f} bits")
    print()
    print("The lattice losing at larger sizes is the finding, not a bug:")
    print("the construction sits at the lattice solvability boundary, so the")
    print("difference-of-squares search over the residue class carries the")
    print("pipeline there.  It steps u = (p+q)/2 by B through the balanced band")
    print("u <= sqrt(9N/8), which holds every q < 2p, so it always terminates;")
    print("the x-sweep covers only the rest of the box |x| <= N^(1/3).")

    print()
    print("=" * 64)
    print("Bound-margin scan, 20 to 60 bits")
    print("=" * 64)
    for row in bound_scan(20, 60, 8, 8, seed=3):
        print(f"  {row.bits:2d} bits: mean {row.mean_margin_bits:+.3f}  "
              f"min {row.min_margin_bits:+.3f}  max {row.max_margin_bits:+.3f}")
    print("  -> pinned near zero, independent of size.")
    print("The margin is read on f, which is B times a primitive g (content")
    print("exactly B, and c1*c2 - c0*c3 = B^2 N).  The lattice reduces g, whose")
    print("margin is (2/3)log2(B) lower, about -(1/9)log2(N) at B = N^(1/6):")
    print("the paper's bound on f asks B > N^(1/6), Coppersmith on g B > N^(1/4).")

    print()
    print("=" * 64)
    print("Driver on assorted integers")
    print("=" * 64)
    for n in (60, 5959, 11639, 2**31 - 1, 600851475143):
        res = factor_auto(n)
        print(f"  {n} = {' * '.join(map(str, res.factors))}")


if __name__ == "__main__":
    sys.exit(run_piped(main))
