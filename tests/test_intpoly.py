import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab._intpoly import (
    Poly,
    integer_roots,
    padd,
    pdivexact,
    peval,
    pmul,
    pneg,
    ptrim,
    sylvester_resultant,
)
from factorlab.lattice import gram_det
from factorlab.ntheory import sieve_primes


def bareiss_det(m: list[list[Poly]]) -> Poly:
    """Fraction-free determinant of a square matrix of integer polynomials,
    whose interior divisions are exact over any integral domain: the
    reference for the closed-form resultant and for lattice.gram_det."""
    n = len(m)
    if n == 0:
        return [1]
    a = [[list(e) for e in row] for row in m]
    sign = 1
    prev: Poly = [1]
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return []
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = padd(pmul(a[k][k], a[i][j]), pneg(pmul(a[i][k], a[k][j])))
                a[i][j] = pdivexact(num, prev)
            a[i][k] = []
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else pneg(det)


def test_poly_arithmetic_basics():
    a = [1, 2]  # 1 + 2y
    b = [3, 0, 1]  # 3 + y^2
    assert padd(a, b) == [4, 2, 1]
    assert pmul(a, b) == [3, 6, 1, 2]
    assert pdivexact(pmul(a, b), a) == b
    assert peval([1, 2, 3], 2) == 1 + 4 + 12
    with pytest.raises(ArithmeticError):
        pdivexact([1, 1], [2])


def test_bareiss_det_matches_cofactor_expansion():
    rng = random.Random(4)

    def naive_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = []
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = pmul(m[0][j], naive_det(minor))
            total = padd(total, term if j % 2 == 0 else [-c for c in term])
        return total

    for _ in range(30):
        n = rng.randrange(1, 5)
        m = [
            [[rng.randrange(-5, 6) for _ in range(rng.randrange(1, 3))] for _ in range(n)]
            for _ in range(n)
        ]
        assert bareiss_det(m) == naive_det(m)


def test_gram_det_matches_bareiss_on_the_gram_matrix():
    # square, rectangular and dependent bases (fewer columns than rows, or a
    # last row that combines the others): the checker's fraction-free
    # Gram-Schmidt against Bareiss on B B^T, every integer a constant
    # polynomial
    rng = random.Random(25)
    for trial in range(120):
        n = rng.randrange(1, 7)
        width = max(1, n + rng.randrange(-1, 3))
        bits = rng.choice((2, 8, 60, 200))
        rows = [
            [rng.randrange(-(1 << bits), 1 << bits) for _ in range(width)]
            for _ in range(n)
        ]
        if trial % 4 == 3 and n >= 2:
            c = [rng.randrange(-3, 4) for _ in range(n - 1)]
            rows[-1] = [
                sum(ci * row[t] for ci, row in zip(c, rows)) for t in range(width)
            ]
        gram = [[sum(x * y for x, y in zip(u, v)) for v in rows] for u in rows]
        det = bareiss_det([[[g] if g else [] for g in row] for row in gram])
        assert gram_det(rows) == (det[0] if det else 0)


def test_resultant_shares_factor_iff_zero():
    # f = (y + 2)x + (y - 1), h = x*(y + 2) - 5: no common factor
    f = [[-1, 1], [2, 1]]
    h = [[-5], [2, 1]]
    assert sylvester_resultant(f, h) != []
    # h2 = y*f shares f entirely: resultant vanishes
    h2 = [[0, -1, 1], [0, 2, 1]]
    assert sylvester_resultant(f, h2) == []


def test_resultant_vanishes_at_common_root():
    # f and h share the root (x, y) = (3, -2)
    # f = x - 3, h = x^2 - 3x + (y + 2)
    f = [[-3], [1]]
    h = [[2, 1], [-3], [1]]
    res = sylvester_resultant(f, h)  # polynomial in y
    assert res != []
    assert peval(res, -2) == 0


def _sylvester_matrix(fx, hx):
    """The Sylvester matrix of two polynomials in x over Z[y], given with
    ascending x-coefficients: deg h shifted rows of f, then deg f of h."""
    dm, dn = len(fx) - 1, len(hx) - 1
    size = dm + dn
    rows = []
    for p, d, shifts in ((fx, dm, dn), (hx, dn, dm)):
        for i in range(shifts):
            rows.append([p[d - (c - i)] if 0 <= c - i <= d else [] for c in range(size)])
    return rows


_YPOLY = st.lists(st.integers(-60, 60), max_size=4).map(ptrim)  # degree <= 3 in y
_NONZERO_YPOLY = _YPOLY.filter(bool)


@settings(deadline=None, max_examples=300)
@given(a=_NONZERO_YPOLY, c=_YPOLY, h=st.lists(_YPOLY, max_size=4), lead=_NONZERO_YPOLY)
def test_resultant_against_linear_f_matches_bareiss(a, c, h, lead):
    # f = a*x + c takes the closed form; Bareiss on the Sylvester matrix,
    # built here, stays the reference, signs included
    fx, hx = [c, a], h + [lead]
    assert sylvester_resultant(fx, hx) == bareiss_det(_sylvester_matrix(fx, hx))


@settings(deadline=None, max_examples=200)
@given(a=_NONZERO_YPOLY, c=_YPOLY, g=st.lists(_YPOLY, min_size=1, max_size=4))
def test_resultant_against_linear_f_vanishes_on_its_multiples(a, c, g):
    # h = g*f has x-degree up to 4 and shares the factor f
    hx = [[] for _ in range(len(g) + 1)]
    for i, gi in enumerate(g):
        hx[i] = padd(hx[i], pmul(gi, c))
        hx[i + 1] = padd(hx[i + 1], pmul(gi, a))
    assert sylvester_resultant([c, a], hx) == []


def test_resultant_requires_f_linear_in_x():
    h = [[1], [2]]
    for fx in ([[1, 2]], [[1], []], [[1], [2], [3]]):
        with pytest.raises(ValueError):
            sylvester_resultant(fx, h)


def test_integer_roots_scan():
    # (y - 3)(y + 5)(2y - 1) = 0: integer roots 3, -5
    poly = pmul(pmul([-3, 1], [5, 1]), [-1, 2])
    assert integer_roots(poly, 10) == [-5, 3]
    assert integer_roots(poly, 4) == [3]
    assert integer_roots([0, 0, 1], 5) == [0]
    with pytest.raises(ValueError):
        integer_roots([], 5)


def test_integer_roots_bisection_path():
    # large bound forces the sign-change search; roots far apart
    r1, r2 = 123_456, -654_321
    poly = pmul([-r1, 1], [-r2, 1])
    assert integer_roots(poly, 10**6) == sorted((r1, r2))


def test_integer_roots_double_root_scan():
    poly = pmul([-7, 1], [-7, 1])
    assert integer_roots(poly, 100) == [7]


def _from_roots(roots, lead=1):
    poly = [lead]
    for r in roots:
        poly = pmul(poly, [-r, 1])
    return poly


def test_integer_roots_clustered_roots():
    # two roots 10 apart with no sign change of p between them: bisection
    # over [-2**17, 2**17] never looked inside that interval
    poly = pmul(_from_roots([40000, 40010]), [1, 0, 1])
    assert integer_roots(poly, 2**17) == [40000, 40010]


def test_integer_roots_at_the_bound():
    poly = _from_roots([17, -17, 3])
    assert integer_roots(poly, 17) == [-17, 3, 17]
    assert integer_roots(poly, 16) == [3]
    big = 2**40 + 3
    assert integer_roots(_from_roots([big, -big]), big) == [-big, big]
    assert integer_roots(_from_roots([big, -big]), big - 1) == []


def test_integer_roots_zero_root_multiplicity_three():
    poly = pmul([0, 0, 0, 1], _from_roots([5, -2]))
    assert integer_roots(poly, 10) == [-2, 0, 5]
    assert integer_roots(poly, 1) == [0]


def test_integer_roots_repeated_nonzero_roots():
    poly = pmul(_from_roots([6, 6, -9, -9, -9]), [1, 1, 1])
    assert integer_roots(poly, 100) == [-9, 6]
    assert integer_roots(_from_roots([123457] * 4, lead=-3), 2**20) == [123457]


def test_integer_roots_leading_coefficient_skips_small_primes():
    # 3, 5 and 7 divide the leading coefficient, and the roots 1 and 211
    # coincide modulo 2, 3, 5 and 7, so the first usable prime is 11
    poly = pmul([1, 105], _from_roots([1, 211, -4]))
    assert integer_roots(poly, 1000) == [-4, 1, 211]
    assert integer_roots(pmul([1, 2 * 3 * 5 * 7], _from_roots([9])), 9) == [9]


def test_integer_roots_congruent_modulo_every_prime_below_101():
    # 1 and 1 + P coincide modulo every prime below 101, so no such prime
    # has simple roots only, and the root finder must go on to 101
    P = math.prod(sieve_primes(100))
    assert integer_roots(_from_roots([1, 1 + P, -5]), P + 1) == [-5, 1, 1 + P]

def test_integer_roots_bound_zero():
    assert integer_roots(_from_roots([0, 1]), 0) == [0]
    assert integer_roots(_from_roots([1, -1]), 0) == []
    assert integer_roots([5], 0) == []
    assert integer_roots([5], -1) == []


def test_integer_roots_bound_2_80():
    b = 2**80
    roots = [b, -b, b - 1, 2**79 + 12345, -(3**50), b + 1]
    poly = pmul(_from_roots(roots, lead=7), [3, 0, 2])
    assert integer_roots(poly, b) == sorted(r for r in roots if abs(r) <= b)


_COEFFS = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=5).filter(any)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(-400, 400)), max_size=4),
    _COEFFS,
    st.integers(0, 300),
)
def test_integer_roots_match_brute_force(factors, cofactor, bound):
    # linear factors a*x - b plant integer roots (a = 1 or a | b) and
    # rational non-integer ones next to them
    poly = cofactor
    for a, b in factors:
        poly = pmul(poly, [-b, a])
    expected = [r for r in range(-bound, bound + 1) if peval(poly, r) == 0]
    assert integer_roots(poly, bound) == expected


@settings(deadline=None, max_examples=200)
@given(
    st.dictionaries(st.integers(-(2**65), 2**65), st.integers(1, 3), max_size=4),
    st.integers(0, 2**64),
    st.integers(1, 10**9),
    st.integers(-(10**9), 10**9).filter(bool),
)
def test_integer_roots_planted_with_multiplicity(planted, bound, a, c):
    # the cofactor a*x^2 + c*x + c*c has no real root: c*c - 4*a*c*c < 0
    poly = [c * c, c, a]
    for r, mult in planted.items():
        poly = pmul(poly, _from_roots([r] * mult))
    roots = integer_roots(poly, bound)
    assert roots == sorted(r for r in planted if abs(r) <= bound)
    for r in roots:
        # r divides poly exactly as often as it was planted
        rest, mult = poly, 0
        while peval(rest, r) == 0:
            rest, mult = pdivexact(rest, [-r, 1]), mult + 1
        assert mult == planted[r]
