#!/usr/bin/env python3
"""From a partial residue of one factor to a bilinear polynomial.

The running instance is N = 11639 = 103 * 113.  Given only the residue of
the factor 103 modulo a small prime B, the construction pins down the
companion residue of 113, builds a bilinear polynomial vanishing at a small
integer point, and recovers the factor from that root.  Also shows why the
constant term must carry the center defect isqrt(N)^2 - N.
"""

import sys

from factorlab import (
    FactorCenter,
    PartialResidue,
    RootBounds,
    bound_margin,
    build_polynomial,
    is_reducible,
    poly_height,
    recover_factor,
    select_modulus,
    solve_companion_residue,
)
from factorlab.cli import run_piped


def main():
    N, p, q = 11639, 103, 113
    print(f"N = {N} = {p} * {q}")

    B, x0 = select_modulus(N, p)
    center = FactorCenter.balanced(N)
    print(f"center P0 = Q0 = isqrt(N) = {center.P0}")
    print(f"selected modulus B = {B.value}, residue of p: x0 = {x0}")
    pr = PartialResidue(B, x0)
    assert x0 == (p - center.P0) % B.value

    y0 = solve_companion_residue(N, center, pr)
    print(f"companion residue: y0 = {y0}  (indeed (q - Q0) mod B = "
          f"{(q - center.Q0) % B.value})")

    f = build_polynomial(N, center, pr, y0)
    print(f"f(x, y) = {f.c3}*xy + {f.c2}*x + {f.c1}*y + {f.c0}")
    x1 = (p - center.P0 - x0) // B.value
    y1 = (q - center.Q0 - y0) // B.value
    print(f"planted root ({x1}, {y1}): f({x1}, {y1}) = {f.evaluate(x1, y1)}")
    print(f"irreducible over Z: {not is_reducible(f)}")

    print()
    print("Dropping the center defect isqrt(N)^2 - N from the constant term")
    print("breaks the construction:")
    naive = build_polynomial(N, center, pr, y0, ignore_center_defect=True)
    print(f"  naive c0 = {naive.c0} instead of {f.c0}; "
          f"f_naive({x1}, {y1}) = {naive.evaluate(x1, y1)} != 0")
    defect = N - center.P0 * center.Q0
    print(f"  (here the defect {defect} happens to be divisible by B = "
          f"{B.value}, so the naive mod-B congruence still lands on the "
          f"right y0 -- a 1-in-B coincidence)")

    print()
    print("On a generic instance the naive congruence also picks the wrong")
    print("companion residue.  N = 3233 = 53 * 61:")
    n2, p2, q2 = 3233, 53, 61
    b2, x02 = select_modulus(n2, p2)
    c2 = FactorCenter.balanced(n2)
    pr2 = PartialResidue(b2, x02)
    good = solve_companion_residue(n2, c2, pr2)
    bad = solve_companion_residue(n2, c2, pr2, ignore_center_defect=True)
    print(f"  B = {b2.value}, x0 = {x02}: corrected y0 = {good} "
          f"(true residue {(q2 - c2.Q0) % b2.value}), naive y0 = {bad}")

    print()
    for bx in (4, 22):
        b = RootBounds(bx, bx)
        print(f"bounds X = Y = {bx}: height W = {poly_height(f, b)}, "
              f"solvability margin {bound_margin(f, b):+.2f} bits")

    print()
    print(f"factor from the root: p = P0 + B*({x1}) + x0 = "
          f"{recover_factor(N, center, pr, x1)}")


if __name__ == "__main__":
    sys.exit(run_piped(main))
