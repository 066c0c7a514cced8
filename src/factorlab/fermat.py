"""Difference-of-squares factorization: the classic ascending search, its
restriction to one residue class of u, and the shifted-center variant with
exact cycle accounting.

Every search runs on one scan kernel, _scan_classic, a loop over numpy
windows of u that is exact at every size: a square-residue sieve (Knuth,
TAOCP vol. 2, 4.5.4; McKee, Math. Comp. 1999) keeps about 1 u in 10**4
of each window, and each survivor gets an exact big-int square test; no
float enters.  All searches count every square test performed ("steps"),
so measured costs can be compared against the predicted cycle counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ntheory import is_perfect_square, isqrt

DEFAULT_STEP_CAP = 1 << 20

_WINDOW_START = 256
_WINDOW_MAX = 1 << 16

# sieving moduli (Knuth, TAOCP vol. 2, 4.5.4): a square t is a square
# residue mod each m, and about 1 u in 10**4 passes them all.  The arrays
# below run k = 0..m-1 for each m in turn, 322 entries, with m's block at
# offset at; the lcm of the moduli fits in int64
_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31)
_LCM = math.lcm(*_MODULI)
_AT = np.cumsum((0,) + _MODULI[:-1])
_BLOCKS = list(zip(_AT.tolist(), _MODULI))
_SIEVE_M = np.repeat(_MODULI, _MODULI)
_SIEVE_AT = np.repeat(_AT, _MODULI)
_SIEVE_K = np.arange(_SIEVE_M.size) - _SIEVE_AT
_SIEVE_SQ = np.zeros(_SIEVE_M.size, dtype=bool)  # at + k: k is a square mod m
_SIEVE_SQ[_SIEVE_AT + _SIEVE_K * _SIEVE_K % _SIEVE_M] = True


class Exhausted(RuntimeError):
    """Search hit its step cap before finding a square."""

    def __init__(self, message: str, steps: int):
        super().__init__(message)
        self.steps = steps


class DegenerateDenominator(ValueError):
    """The center estimate's denominator is <= 0: x is out of range."""


@dataclass(frozen=True)
class FermatReport:
    """Outcome of one difference-of-squares search.

    p, q: the recovered factor pair (p <= q, p*q = N).
    steps: number of square tests performed.
    start_u: first center value probed (u for the classic search, U = p+q
    scale for the shifted search).
    """

    p: int
    q: int
    steps: int
    start_u: int


def _scan_classic(
    N: int, u0: int, step_cap: int, stride: int = 1
) -> tuple[int, int] | None:
    """Scan u = u0, u0+stride, u0+2*stride, ... testing u*u - N for squareness.

    stride may be negative (a descending scan); every u scanned must keep
    u*u >= N.  Returns (u_hit, steps) or None when step_cap tests all fail.
    The u run in numpy windows, 256 wide and doubling to 65,536.  A sieve
    keeps the u of a window whose t = u*u - N is a square residue mod each
    of _MODULI, read off u mod m and N mod m in int64, exact at any size;
    it drops only u whose t is no square, and every survivor gets an exact
    big-int square test.
    """
    n_lcm = N % _LCM
    k_lcm = stride % _LCM * _SIEVE_K  # stride*k for each entry's k < m, in int64
    steps = 0
    u = u0
    window = _WINDOW_START
    while steps < step_cap:
        w = min(window, step_cap - steps)
        # t mod m at u + stride*k repeats with period m in k: one period
        # per modulus, ANDed into each run of m consecutive k (keep runs
        # past w so that the last run is whole)
        um = (u % _LCM + k_lcm) % _SIEVE_M
        ok = _SIEVE_SQ[_SIEVE_AT + (um * um - n_lcm) % _SIEVE_M]
        keep = np.ones(w + max(_MODULI), dtype=bool)
        for at, m in _BLOCKS:
            rows = keep[: (w // m + 1) * m].reshape(-1, m)
            rows &= ok[at : at + m]
        for i in np.flatnonzero(keep[:w]).tolist():
            u_hit = u + stride * i
            if is_perfect_square(u_hit * u_hit - N) is not None:
                return u_hit, steps + i + 1
        steps += w
        u += stride * w
        window = min(window * 2, _WINDOW_MAX)
    return None


def fermat_factor(N: int, step_cap: int = DEFAULT_STEP_CAP) -> FermatReport:
    """Classic ascending search: u = ceil(sqrt(N)), u+1, ... until u*u - N is
    a perfect square v*v; then N = (u-v)(u+v): the class search with
    modulus 1.

    N must be odd and >= 3 (strip factors of 2 first).  steps counts square
    tests, so the first probe is step 1.  Raises Exhausted after step_cap
    tests.
    """
    if N < 3 or N % 2 == 0:
        raise ValueError("N must be an odd integer >= 3")
    if step_cap < 1:
        raise ValueError("step_cap must be positive")
    u0 = math.isqrt(N - 1) + 1  # ceil(sqrt(N)); isqrt(N)^2 - N < 0 is never a square
    return residue_class_fermat(N, 0, 1, u0 + step_cap - 1)


def residue_class_fermat(
    N: int, residue: int, modulus: int, u_max: int
) -> FermatReport:
    """Difference-of-squares search inside one residue class: u runs over
    u = residue (mod modulus) from ceil(sqrt(N)) up to u_max in steps of
    modulus, until u*u - N is a perfect square v*v; then N = (u-v)(u+v).

    Knowing p + q modulo m cuts the classic search by a factor m (Knuth,
    TAOCP vol. 2, 4.5.4; McKee, Math. Comp. 1999).  steps counts square
    tests.  Raises Exhausted, carrying the number of tests made, when no u
    in the range gives a square.
    """
    if N < 1 or modulus < 1:
        raise ValueError("need N >= 1 and modulus >= 1")
    u0 = math.isqrt(N - 1) + 1  # ceil(sqrt(N))
    u_start = u0 + (residue - u0) % modulus
    tests = max(0, (u_max - u_start) // modulus + 1)
    hit = _scan_classic(N, u_start, tests, modulus)
    if hit is None:
        raise Exhausted(
            f"no square in the class {residue} mod {modulus} for N={N}", tests
        )
    u, steps = hit
    v = math.isqrt(u * u - N)
    return FermatReport(p=u - v, q=u + v, steps=steps, start_u=u_start)


def compute_initial_u(N: int, x: int) -> int:
    """Estimate of U = p + q for factors offset by roughly x * N**(1/4).

    Evaluates 2*r + 2*f*x - (2*r*x + f*x*x) / (f + x) with r = isqrt(N),
    the unknown residual term in the denominator dropped, and f = F / 2**16
    a fixed-point fourth root of N.  Flooring f instead would leak an error
    that grows like 4|x| into the estimate and blow the shifted search's
    cycle bound; flooring r costs at most 2 and keeps
    compute_initial_u(N, 0) == 2*isqrt(N) exact.  The value is the integer
    ratio num / den = f*(2*r + 2*f*x + x*x) / (f + x) with den > 0, and it
    is positive, as f*f <= sqrt(N) < r + 1.  It is rounded to nearest and
    then moved to the nearest even integer (p + q is even for odd p, q).
    """
    if N < 16:
        raise ValueError("N must be >= 16 so that iroot(N, 4) >= 2")
    r = isqrt(N)
    F = isqrt(isqrt(N << 64))  # floor(N**(1/4) * 2**16), so F >> 16 is iroot(N, 4)
    if (F >> 16) + x <= 0:
        raise DegenerateDenominator(f"iroot(N,4) + x = {(F >> 16) + x} <= 0")
    num = F * (((2 * r + x * x) << 16) + 2 * F * x)
    den = (F + (x << 16)) << 16
    u0 = (2 * num + den) // (2 * den)
    if u0 % 2:
        u0 += 1 if num >= u0 * den else -1
    return u0


def shifted_fermat(N: int, x: int, step_cap: int = DEFAULT_STEP_CAP) -> FermatReport:
    """Search for U with U*U - 4N square, starting from the shifted center
    estimate and probing U0, U0+2, U0-2, U0+4, ...

    U0 = max(compute_initial_u(N, x), u_min), with u_min the least even U
    with U*U >= 4N; both are even, as p + q is for odd p, q.  Candidates
    below u_min are skipped without a square test; steps counts tests
    actually performed.

    U = 2u, and U*U - 4N is square exactly when u*u - N is.  With c = U0/2
    and below = (U0 - u_min)/2, u = c + i is test max(1, 2i) for i <= below
    and below + i + 1 past it, u = c - j is test 2j + 1: one ascending and
    one descending scan, run in rounds covering the tests up to 2, 6, 14,
    ... (capped at step_cap).  Each round runs the descending scan first,
    and a hit there at c - j stops the ascending scan at i = j, the last
    u = c + i that comes before it.  The first round with a hit returns its
    earlier hit, so a hit at test s costs at most 2s + 2 square tests.
    """
    if N < 16 or N % 2 == 0:
        raise ValueError("N must be an odd integer >= 16")
    if step_cap < 1:
        raise ValueError("step_cap must be positive")
    u_min = math.isqrt(4 * N - 1) + 1
    u_min += u_min % 2
    start_u = max(compute_initial_u(N, x), u_min)
    c, below = start_u // 2, (start_u - u_min) // 2
    up = down = limit = 0  # tests made above c (from c) and below it
    while limit < step_cap:
        limit = min(2 * limit + 2, step_cap)
        d = min(below, (limit - 1) // 2)
        # a descending hit c - j is test 2j + 1; c + i comes before it iff i <= j
        fall = _scan_classic(N, c - 1 - down, d - down, -1)
        j = c - fall[0] if fall else limit
        rise = _scan_classic(N, c + up, min(limit - d, j + 1) - up)
        if rise or fall:
            u = (rise or fall)[0]
            i = u - c  # max(2i, 1 - 2i): max(1, 2i) for i >= 0, 2j + 1 for i = -j
            steps = below + i + 1 if i > below else max(2 * i, 1 - 2 * i)
            v = math.isqrt(u * u - N)
            return FermatReport(p=u - v, q=u + v, steps=steps, start_u=start_u)
        up, down = limit - d, d
    raise Exhausted(f"no square within {step_cap} tests for N={N}, x={x}", step_cap)
