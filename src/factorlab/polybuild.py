"""Bilinear factoring polynomials from a partial residue of one factor.

Writing the factors of N as p = P0 + B*x + x0 and q = Q0 + B*y + y0 around a
center (P0, Q0) turns p*q = N into a bilinear equation f(x, y) = 0 whose
integer root recovers p.  This module builds f, solves the mod-B congruence
that pins down the companion residue y0, and computes the height/bound
diagnostics that decide whether a lattice small-root solver can take over.

The constant term here is c0 = (P0 + x0)(Q0 + y0) - N.  Expanding the product
with the naive constant term (x0 + y0)*P0 + x0*y0 instead silently assumes
P0*Q0 = N; the resulting polynomial does not vanish at the planted root.
Both that variant and the matching congruence are available behind the
ignore_center_defect flag for comparison runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ntheory import PrimeModulus, iroot, isqrt, modinv


@dataclass(frozen=True)
class FactorCenter:
    """Approximation pair (P0, Q0) around which the factors are expanded."""

    P0: int
    Q0: int

    def __post_init__(self) -> None:
        if self.P0 < 2:
            raise ValueError("P0 must be >= 2")
        if self.P0 > self.Q0:
            raise ValueError("centers must satisfy P0 <= Q0")

    @classmethod
    def balanced(cls, N: int) -> "FactorCenter":
        """Symmetric center P0 = Q0 = isqrt(N)."""
        r = isqrt(N)
        return cls(r, r)


@dataclass(frozen=True)
class PartialResidue:
    """The given information about the factor p: its residue x0 mod B."""

    B: PrimeModulus
    x0: int

    def __post_init__(self) -> None:
        if not 0 <= self.x0 < self.B.value:
            raise ValueError("x0 must be canonical in [0, B)")

    @property
    def modulus(self) -> int:
        return self.B.value


@dataclass(frozen=True)
class BilinearPoly:
    """f(x, y) = c3*x*y + c2*x + c1*y + c0 with integer coefficients."""

    c3: int
    c2: int
    c1: int
    c0: int

    def evaluate(self, x: int, y: int) -> int:
        return self.c3 * x * y + self.c2 * x + self.c1 * y + self.c0

    def coefficients(self) -> tuple[int, int, int, int]:
        return (self.c3, self.c2, self.c1, self.c0)


@dataclass(frozen=True)
class RootBounds:
    """Search box |x| <= X, |y| <= Y for the small-root solvers."""

    X: int
    Y: int

    def __post_init__(self) -> None:
        if self.X < 1 or self.Y < 1:
            raise ValueError("bounds must be >= 1")

    @classmethod
    def balanced(cls, N: int) -> "RootBounds":
        r = max(iroot(N, 3), 1)
        return cls(r, r)


def solve_companion_residue(
    N: int,
    center: FactorCenter,
    pr: PartialResidue,
    *,
    ignore_center_defect: bool = False,
) -> int:
    """The unique y0 in [0, B) with (P0 + x0)(Q0 + y0) = N (mod B).

    y0 = (N - P0*Q0 - x0*Q0) * (P0 + x0)^-1 mod B.  With
    ignore_center_defect=True the N - P0*Q0 term is dropped, i.e. the center
    product is treated as if it were N; the two solutions agree exactly when
    N = P0*Q0 (mod B).  Raises NotInvertible when gcd(P0 + x0, B) > 1.
    """
    B = pr.modulus
    inv = modinv(center.P0 + pr.x0, B)
    if ignore_center_defect:
        return (-pr.x0 * center.Q0) * inv % B
    return (N - center.P0 * center.Q0 - pr.x0 * center.Q0) * inv % B


def build_polynomial(
    N: int,
    center: FactorCenter,
    pr: PartialResidue,
    y0: int,
    *,
    ignore_center_defect: bool = False,
) -> BilinearPoly:
    """Coefficients of f: c3 = B^2, c2 = B(Q0 + y0), c1 = B(P0 + x0), and
    c0 = (P0 + x0)(Q0 + y0) - N.

    f vanishes exactly at x1 = (p - P0 - x0)/B, y1 = (q - Q0 - y0)/B whenever
    p*q = N and the residues match.  With the y0 of solve_companion_residue,
    c0 = 0 (mod B), so f = B*g; select_modulus and enumerate_residues keep
    gcd(P0 + x0, B) = 1, so g is primitive and the content of f is exactly
    B.  Also c1*c2 - c0*c3 = B^2 N.  ignore_center_defect=True substitutes
    the naive constant term (x0 + y0)*P0 + x0*y0, which shifts c0 by
    N - P0*Q0 and breaks the root identity unless P0*Q0 = N.
    """
    if not 0 <= y0 < pr.modulus:
        raise ValueError("y0 must be canonical in [0, B)")
    B = pr.modulus
    ps = center.P0 + pr.x0
    qs = center.Q0 + y0
    if ignore_center_defect:
        c0 = (pr.x0 + y0) * center.P0 + pr.x0 * y0
    else:
        c0 = ps * qs - N
    return BilinearPoly(c3=B * B, c2=B * qs, c1=B * ps, c0=c0)


def is_reducible(f: BilinearPoly) -> bool:
    """True iff f factors as (a1*x + a0)(b1*y + b0) over the integers.

    For a bilinear form that holds iff c0*c3 = c1*c2.
    """
    if f.c3 == 0 and f.c2 == 0 and f.c1 == 0 and f.c0 == 0:
        raise ValueError("f must not be identically zero")
    return f.c0 * f.c3 == f.c1 * f.c2


def poly_height(f: BilinearPoly, b: RootBounds) -> int:
    """W = max(|c3|XY, |c2|X, |c1|Y, |c0|): the height of f(xX, yY)."""
    return max(
        abs(f.c3) * b.X * b.Y, abs(f.c2) * b.X, abs(f.c1) * b.Y, abs(f.c0)
    )


def log2_int(n: int) -> float:
    """log2 for arbitrarily large positive integers."""
    if n <= 0:
        raise ValueError("log2 of nonpositive integer")
    if n.bit_length() <= 53:
        return math.log2(n)
    shift = n.bit_length() - 53
    return math.log2(n >> shift) + shift


def bound_margin(f: BilinearPoly, b: RootBounds) -> float:
    """(2/3)*log2(W) - log2(X*Y), in bits.

    Positive means the small-root solvability hypothesis XY < W**(2/3)
    holds with that many bits of slack.  It reads W on f as given.  A
    pipeline f is B times its primitive part g (build_polynomial), whose
    height is W/B, so the margin on g is (2/3)*log2(B) lower (about
    -(1/9)*log2(N) with the default box and B near N^(1/6)).  That gap is
    why the paper's exponent reads 1/6: with B = N^e and a box matched to B
    (X = Y about sqrt(N)/B), the bound on f needs e > 1/6, while Coppersmith
    on g, the polynomial the lattice pass reduces, needs e > 1/4.
    """
    W = poly_height(f, b)
    if W < 2:
        raise ValueError("height must be >= 2")
    return (2.0 / 3.0) * log2_int(W) - log2_int(b.X * b.Y)


def recover_factor(
    N: int, center: FactorCenter, pr: PartialResidue, x: int
) -> int | None:
    """Candidate p = P0 + B*x + x0; returned iff 1 < p < N and p | N."""
    candidate = center.P0 + pr.modulus * x + pr.x0
    if 1 < candidate < N and N % candidate == 0:
        return candidate
    return None
