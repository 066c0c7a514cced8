import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import ntheory
from factorlab.ntheory import (
    NotInvertible,
    PrimeModulus,
    SelectionExhausted,
    iroot,
    is_perfect_square,
    is_prime,
    isqrt,
    modinv,
    next_prime,
    select_modulus,
)


def test_isqrt_examples():
    assert isqrt(0) == 0
    assert isqrt(11639) == 107
    assert 107 * 107 <= 11639 < 108 * 108
    assert isqrt(10**12) == 10**6


def test_isqrt_matches_exhaustive_up_to_2_20():
    # incremental exhaustive oracle: max s with s*s <= n
    s = 0
    for n in range(1 << 20):
        if (s + 1) * (s + 1) <= n:
            s += 1
        assert isqrt(n) == s


def test_isqrt_negative_rejected():
    with pytest.raises(ValueError):
        isqrt(-1)


def test_isqrt_huge_exact():
    n = (10**50 + 12345) ** 2
    assert isqrt(n) == 10**50 + 12345
    assert isqrt(n - 1) == 10**50 + 12344


def test_is_perfect_square():
    assert is_perfect_square(441) == 21
    assert is_perfect_square(282) is None
    assert 16 * 16 < 282 < 17 * 17
    assert is_perfect_square(0) == 0
    assert is_perfect_square(-4) is None


def test_iroot_small_and_large():
    assert iroot(0, 6) == 0
    assert iroot(11639, 6) == 4
    assert iroot(2**60, 6) == 2**10
    assert iroot(2**60 - 1, 6) == 2**10 - 1
    for k in (2, 3, 5, 7):
        for n in (1, 2, 10**12, 10**13 + 7):
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**4096 - 1), st.integers(1, 64))
def test_iroot_brackets_exactly_at_every_size(n, k):
    s = iroot(n, k)
    assert s**k <= n < (s + 1) ** k


def test_modinv_examples():
    assert modinv(3, 5) == 2
    assert modinv(1, 97) == 1
    with pytest.raises(NotInvertible):
        modinv(5, 5)


def test_modinv_property():
    rng = random.Random(1)
    for _ in range(500):
        m = rng.randrange(2, 10**4)
        a = rng.randrange(1, m)
        if math.gcd(a, m) != 1:
            with pytest.raises(NotInvertible):
                modinv(a, m)
            continue
        u = modinv(a, m)
        assert 1 <= u < m
        assert a * u % m == 1


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(11639)
    assert 11639 == 103 * 113
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_matches_sieve_up_to_10_6():
    limit = 10**6
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    for n in range(limit + 1):
        assert is_prime(n) == bool(flags[n]), n


def test_is_prime_known_strong_pseudoprimes():
    # composites that fool small fixed-base tests
    for n in (3215031751, 3825123056546413051, 341550071728321):
        assert not is_prime(n)


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_strong_probable_prime(n, base):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_pseudoprime_to_all_twelve_bases():
    # strong pseudoprimes to every base 2..37: the Miller-Rabin bases alone
    # call them prime, the strong Lucas step does not.  The second is the
    # smallest strong pseudoprime to every prime base 2..41 (the bound of
    # Jiang-Deng 2014), not an Arnault-style construction
    for n, p, q, bases in (
        (318665857834031151167461, 399165290221, 798330580441, 12),
        (3317044064679887385961981, 1287836182261, 2575672364521, 13),
    ):
        assert n == p * q
        assert all(is_strong_probable_prime(n, b) for b in _PRIME_BASES[:bases])
        assert not is_prime(n)
        assert is_prime(next_prime(n))


def test_strong_lucas_step_on_its_own_pseudoprimes():
    # the strong Lucas pseudoprimes below 10**5 with Selfridge's parameters
    # (OEIS A217255): the Lucas step passes them, base 2 rejects them
    slpsp = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
             58519, 75077, 97439)
    for n in range(53, 10**5, 2):
        if math.gcd(n, 614889782588491410) == 1:  # no prime factor below 50
            expect = is_prime(n) or n in slpsp
            assert ntheory._is_strong_lucas_prp(n) == expect, n
    assert not any(is_prime(n) for n in slpsp)


def test_is_prime_matches_sympy_above_the_proven_range():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    primes = 0
    for _ in range(2000):
        n = rng.randrange(1 << 78, 1 << 100) | 1
        expect = sympy.isprime(n)
        assert is_prime(n) == expect, n
        primes += expect
    assert primes >= 20  # the Lucas step really ran on primes


def test_next_prime():
    assert next_prime(2) == 2
    assert next_prime(4) == 5
    assert next_prime(14) == 17
    assert next_prime(10**12) == 10**12 + 39


def test_prime_modulus_validates():
    assert PrimeModulus(5).value == 5
    assert int(PrimeModulus(2)) == 2
    with pytest.raises(ValueError):
        PrimeModulus(4)
    with pytest.raises(ValueError):
        PrimeModulus(1)


def test_select_modulus_worked_instance():
    B, x0 = select_modulus(11639, 103)
    assert (B.value, x0) == (5, 1)
    assert math.gcd(5, 1) == math.gcd(107, 5) == math.gcd(108, 5) == 1


def test_select_modulus_gcd_conditions_hold():
    rng = random.Random(7)
    for _ in range(200):
        p = next_prime(rng.randrange(1 << 14, 1 << 15))
        q = next_prime(rng.randrange(p + 1, 2 * p))
        if q >= 2 * p or q == p:
            continue
        N = p * q
        try:
            B, x0 = select_modulus(N, p)
        except SelectionExhausted:
            continue
        r = isqrt(N)
        assert is_prime(B.value)
        assert B.value >= iroot(N, 6)
        assert 0 < x0 < B.value
        assert x0 == (p - r) % B.value
        assert math.gcd(B.value, x0) == 1
        assert math.gcd(r, B.value) == 1
        assert math.gcd(r + x0, B.value) == 1


def test_select_modulus_advances_past_zero_residue():
    # p = isqrt(N): every modulus gives x0 = 0, so the search must exhaust
    with pytest.raises(SelectionExhausted):
        select_modulus(35, 5)


def test_select_modulus_skips_failing_candidate():
    # find a case where the first candidate prime fails and a later one wins
    rng = random.Random(11)
    seen_advance = False
    for _ in range(500):
        p = next_prime(rng.randrange(1 << 12, 1 << 13))
        q = next_prime(rng.randrange(p + 1, 2 * p))
        if q >= 2 * p:
            continue
        N = p * q
        first = next_prime(max(iroot(N, 6), 2))
        try:
            B, _x0 = select_modulus(N, p)
        except SelectionExhausted:
            continue
        if B.value != first:
            seen_advance = True
            break
    assert seen_advance


def test_select_modulus_rejects_nondivisor():
    with pytest.raises(ValueError):
        select_modulus(35, 3)
