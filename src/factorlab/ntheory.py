"""Exact arbitrary-precision number-theoretic primitives.

Everything here is pure and total on its stated domain, at every size: all
arithmetic is exact integer arithmetic, with no float to overflow or to
round (iroot included, by integer Newton iteration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class NotInvertible(ValueError):
    """gcd(a, m) > 1: the requested modular inverse does not exist."""


class SelectionExhausted(RuntimeError):
    """No qualifying prime modulus was found within the candidate cap."""


def isqrt(n: int) -> int:
    """Integer square root: the unique s with s**2 <= n < (s+1)**2.

    Backed by math.isqrt (exact for arbitrary precision); kept as a named
    entry point so callers never reach for float sqrt by accident.
    """
    if n < 0:
        raise ValueError("isqrt of negative integer")
    return math.isqrt(n)


def is_perfect_square(n: int) -> int | None:
    """Return s if n == s*s, else None."""
    if n < 0:
        return None
    s = math.isqrt(n)
    return s if s * s == n else None


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root: the unique s with s**k <= n < (s+1)**k.

    Integer Newton iteration s -> ((k-1)*s + n // s**(k-1)) // k, with no
    float, from s = 2**ceil(b/k) for b the bit length of n: above the root,
    as n < 2**b.  By the AM-GM inequality no iterate falls below the floor
    root r, and from any s > r (s**k > n) the next iterate is smaller than
    s; so the iterates fall strictly to r, the first s whose successor is
    not smaller.
    """
    if n < 0:
        raise ValueError("iroot of negative integer")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if n == 0:
        return 0
    if k == 2:
        return math.isqrt(n)
    s = 1 << -(-n.bit_length() // k)
    while (t := ((k - 1) * s + n // s ** (k - 1)) // k) < s:
        s = t
    return s


def modinv(a: int, m: int) -> int:
    """Inverse of a modulo m, in [1, m). Raises NotInvertible if gcd > 1."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise NotInvertible(f"{a} is not invertible mod {m}") from exc


# Miller-Rabin with the first twelve primes as bases decides primality for
# every n below this bound (Jiang and Deng, Math. Comp. 2014).  The bound is
# itself composite and a strong pseudoprime to all twelve bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BELOW = 318665857834031151167461

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters: D is the
    first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  n must be odd and have no prime factor below 50."""
    if is_perfect_square(n) is not None:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # gcd(|D|, n) > 1 and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:  # x / 2 mod n, n odd
        return (x if x % 2 == 0 else x + n) // 2

    # U_k, V_k and Q^k for k = 1, then along the bits of d (P = 1)
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half((U + V) % n), half((D * U + V) % n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality by trial division, Miller-Rabin to the twelve prime bases
    2..37 and, for n >= 318665857834031151167461, a strong Lucas test.

    Below that bound the Miller-Rabin bases alone are a proof.  From it up
    the combination is the Baillie-PSW test: no composite is known to pass
    it, though that none does is not proven.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_PROVEN_BELOW or _is_strong_lucas_prp(n)


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    if n <= 2:
        return 2
    n |= 1
    while not is_prime(n):
        n += 2
    return n


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, by Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i in range(2, limit + 1) if flags[i]]


@dataclass(frozen=True)
class PrimeModulus:
    """A certified prime modulus."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 2 or not is_prime(self.value):
            raise ValueError(f"modulus {self.value} is not prime")

    def __int__(self) -> int:
        return self.value


_MODULUS_CANDIDATES = 64


def select_modulus(N: int, p: int) -> tuple[PrimeModulus, int]:
    """Pick the working prime modulus B and the residue x0 of the factor p.

    B starts at the first prime >= floor(N**(1/6)) and advances until
    x0 = (p - isqrt(N)) mod B satisfies gcd(B, x0) = gcd(isqrt(N), B) =
    gcd(isqrt(N) + x0, B) = 1.  x0 = 0 always forces advancement (gcd(B, 0)
    = B).  Raises SelectionExhausted after _MODULUS_CANDIDATES primes.
    """
    if p <= 1 or N % p != 0:
        raise ValueError("p must be a nontrivial divisor of N")
    root = isqrt(N)
    B = next_prime(max(iroot(N, 6), 2))
    for _ in range(_MODULUS_CANDIDATES):
        x0 = (p - root) % B
        if (
            x0 != 0
            and math.gcd(root, B) == 1
            and math.gcd(root + x0, B) == 1
        ):
            return PrimeModulus(B), x0
        B = next_prime(B + 1)
    raise SelectionExhausted(
        f"no qualifying modulus for N={N} within {_MODULUS_CANDIDATES} candidates"
    )
