import math
import random

import pytest

from factorlab import ntheory
from factorlab.ntheory import NotInvertible, PrimeModulus, next_prime, select_modulus
from factorlab.polybuild import (
    BilinearPoly,
    FactorCenter,
    PartialResidue,
    RootBounds,
    bound_margin,
    build_polynomial,
    is_reducible,
    poly_height,
    recover_factor,
    solve_companion_residue,
)


def balanced_instance(bits, rng):
    half = bits // 2
    while True:
        p = next_prime(rng.randrange(1 << (half - 1), 1 << half))
        q = next_prime(rng.randrange(p + 1, 2 * p))
        if p < q < 2 * p and (p * q).bit_length() == bits:
            return p * q, p, q


def full_construction(N, p):
    B, x0 = select_modulus(N, p)
    center = FactorCenter.balanced(N)
    pr = PartialResidue(B, x0)
    y0 = solve_companion_residue(N, center, pr)
    f = build_polynomial(N, center, pr, y0)
    return center, pr, y0, f


def test_factor_center_constructors():
    c = FactorCenter.balanced(11639)
    assert (c.P0, c.Q0) == (107, 107)
    with pytest.raises(ValueError):
        FactorCenter(10, 5)
    with pytest.raises(ValueError):
        FactorCenter(1, 5)


def test_partial_residue_validation():
    pr = PartialResidue(PrimeModulus(5), 1)
    assert pr.modulus == 5
    with pytest.raises(ValueError):
        PartialResidue(PrimeModulus(5), 5)
    with pytest.raises(ValueError):
        PartialResidue(PrimeModulus(5), -1)


def test_solve_companion_residue_worked_instance():
    center = FactorCenter(107, 107)
    pr = PartialResidue(PrimeModulus(5), 1)
    y0 = solve_companion_residue(11639, center, pr)
    assert y0 == 1
    # brute force: unique y0 in [0, 5) with (107+1)(107+y0) = 11639 mod 5
    hits = [y for y in range(5) if (108 * (107 + y) - 11639) % 5 == 0]
    assert hits == [1]


def test_solve_companion_residue_zero_case():
    # x0 = 0 and N = P0*Q0 (mod B) force y0 = 0
    center = FactorCenter(11, 13)
    pr = PartialResidue(PrimeModulus(3), 0)
    assert (11 * 13 - 143) % 3 == 0
    assert solve_companion_residue(143, center, pr) == 0


def test_solve_companion_residue_not_invertible():
    center = FactorCenter(10, 10)
    pr = PartialResidue(PrimeModulus(5), 0)
    with pytest.raises(NotInvertible):
        solve_companion_residue(101, center, pr)


def test_build_polynomial_worked_instance():
    center = FactorCenter(107, 107)
    pr = PartialResidue(PrimeModulus(5), 1)
    f = build_polynomial(11639, center, pr, 1)
    assert f.coefficients() == (25, 540, 540, 25)
    assert f.evaluate(-1, 1) == 0
    naive = build_polynomial(11639, center, pr, 1, ignore_center_defect=True)
    assert naive.c0 == 215
    assert naive.evaluate(-1, 1) == 190


def test_build_polynomial_exact_center():
    # N = P0*Q0 with zero residues: constant term vanishes, (0,0) is a root
    f = build_polynomial(143, FactorCenter(11, 13), PartialResidue(PrimeModulus(3), 0), 0)
    assert f.c0 == 0
    assert f.evaluate(0, 0) == 0


def test_root_identity_random_balanced():
    rng = random.Random(21)
    for _ in range(300):
        N, p, q = balanced_instance(rng.randrange(20, 44), rng)
        try:
            center, pr, y0, f = full_construction(N, p)
        except ntheory.SelectionExhausted:
            continue
        B = pr.modulus
        assert (p - center.P0 - pr.x0) % B == 0
        assert (q - center.Q0 - y0) % B == 0
        x1 = (p - center.P0 - pr.x0) // B
        y1 = (q - center.Q0 - y0) // B
        assert f.evaluate(x1, y1) == 0
        # f = B*g with g primitive, and c1*c2 - c0*c3 = B^2 N
        c3, c2, c1, c0 = f.coefficients()
        assert math.gcd(c3, c2, c1, c0) == B
        assert c1 * c2 - c0 * c3 == B * B * N
        # congruence consistency with the true cofactor
        assert y0 == (q - center.Q0) % B
        # the mod-B reduction identity for the computed y0
        assert ((pr.x0 + y0) * center.P0 + pr.x0 * y0 + center.P0 * center.Q0 - N) % B == 0
        # irreducible unless the centers already multiply to N
        if (center.P0 + pr.x0) * (center.Q0 + y0) != N:
            assert not is_reducible(f)
        # symmetric-root property
        if pr.x0 == y0:
            assert f.evaluate(y1, x1) == 0
        # recovery from the planted root
        assert recover_factor(N, center, pr, x1) == p


def test_is_reducible_examples():
    assert is_reducible(BilinearPoly(1, 1, 1, 1))
    assert not is_reducible(BilinearPoly(25, 540, 540, 25))
    assert 25 * 25 != 540 * 540
    assert is_reducible(BilinearPoly(1, 2, 3, 6))
    with pytest.raises(ValueError):
        is_reducible(BilinearPoly(0, 0, 0, 0))


def test_poly_height_examples():
    f = BilinearPoly(25, 540, 540, 25)
    assert poly_height(f, RootBounds(22, 22)) == 12100
    assert max(25 * 484, 540 * 22, 540 * 22, 25) == 12100
    assert poly_height(BilinearPoly(0, 0, 0, -7), RootBounds(3, 9)) == 7


def test_height_floor_balanced():
    # real arithmetic gives W >= N at X = Y = N**(1/3); exact floors can lose
    # up to O(N**(5/6)), so assert the floor-true bound and require the
    # unweakened inequality generically
    rng = random.Random(10)
    at_least_n = 0
    total = 0
    for _ in range(100):
        N, p, q = balanced_instance(40, rng)
        try:
            center, pr, y0, f = full_construction(N, p)
        except ntheory.SelectionExhausted:
            continue
        total += 1
        W = poly_height(f, RootBounds.balanced(N))
        assert W >= N - 3 * ntheory.iroot(N**5, 6)
        at_least_n += W >= N
    assert at_least_n >= total * 3 // 4


def test_bound_margin_examples():
    f = BilinearPoly(25, 540, 540, 25)
    m22 = bound_margin(f, RootBounds(22, 22))
    assert abs(m22 - ((2 / 3) * math.log2(12100) - math.log2(484))) < 1e-12
    assert abs(m22 - 0.123) < 5e-3
    m4 = bound_margin(f, RootBounds(4, 4))
    assert abs(m4 - ((2 / 3) * math.log2(2160) - 4)) < 1e-12
    assert abs(m4 - 3.385) < 5e-3
    m1 = bound_margin(f, RootBounds(1, 1))
    assert m1 == (2 / 3) * math.log2(poly_height(f, RootBounds(1, 1)))
    assert m1 >= 0


def test_recover_factor_examples():
    center = FactorCenter(107, 107)
    pr = PartialResidue(PrimeModulus(5), 1)
    assert recover_factor(11639, center, pr, -1) == 103
    assert recover_factor(11639, center, pr, 0) is None
    exact = PartialResidue(PrimeModulus(5), 0)
    assert recover_factor(103 * 113, FactorCenter(103, 103), exact, 0) == 103
