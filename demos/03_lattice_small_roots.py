#!/usr/bin/env python3
"""Exact lattice reduction and the bivariate small-root solver.

Reduces a skewed basis and re-derives every reduction property from
scratch, then runs the small-root solver on the worked bilinear instance at
a comfortable margin and at the solvability boundary, comparing against the
exhaustive oracle both times.
"""

import random
import sys

from factorlab import (
    BilinearPoly,
    LatticeFailure,
    RootBounds,
    bound_margin,
    check_reduction,
    coppersmith_bivariate,
    exhaustive_roots,
    gram_det,
    lll_reduce,
)
from factorlab.cli import run_piped


def main():
    print("=" * 64)
    print("Exact LLL on a skewed 4x4 basis")
    print("=" * 64)
    rng = random.Random(42)
    basis = [[rng.randrange(-(1 << 30), 1 << 30) for _ in range(4)] for _ in range(4)]
    basis[1] = [a + 1000 * b for a, b in zip(basis[1], basis[0])]  # skew it
    reduced = lll_reduce(basis)
    for row in reduced:
        print("  ", row)
    problems = check_reduction(basis, reduced)
    print(f"  independent property check: {'all pass' if not problems else problems}")
    print(f"  Gram determinant preserved: {gram_det(basis) == gram_det(reduced)}")

    print()
    print("=" * 64)
    print("Small roots of f = 25xy + 540x + 540y + 25 (from N = 11639)")
    print("=" * 64)
    f = BilinearPoly(25, 540, 540, 25)
    for bx in (4, 22):
        b = RootBounds(bx, bx)
        oracle = exhaustive_roots(f, b)
        margin = bound_margin(f, b)
        try:
            res = coppersmith_bivariate(f, b)
            verdict = "complete (certified)" if res.certified else "found (uncertified)"
            print(f"  X=Y={bx} (margin {margin:+.2f} bits): lattice {res.roots} "
                  f"{verdict}; oracle {oracle}")
        except LatticeFailure:
            print(f"  X=Y={bx} (margin {margin:+.2f} bits): lattice failed; "
                  f"oracle {oracle}  <- recorded boundary failure")

    print()
    print("Soundness is unconditional: every reported pair is re-verified by")
    print("exact evaluation, so a low margin can only cost completeness.")


if __name__ == "__main__":
    sys.exit(run_piped(main))
