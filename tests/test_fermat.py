import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import ntheory
from factorlab.fermat import (
    DegenerateDenominator,
    Exhausted,
    FermatReport,
    _scan_classic,
    compute_initial_u,
    fermat_factor,
    residue_class_fermat,
    shifted_fermat,
)


def expected_steps(N, p, q):
    # independent count: u values from ceil(sqrt(N)) to (p+q)/2 inclusive
    return (p + q) // 2 - (math.isqrt(N - 1) + 1) + 1


def test_fermat_examples():
    assert fermat_factor(35, 10) == FermatReport(5, 7, 1, 6)
    assert fermat_factor(5959, 10) == FermatReport(59, 101, 3, 78)
    assert fermat_factor(9, 1) == FermatReport(3, 3, 1, 3)


def test_fermat_rejects_even_and_small():
    with pytest.raises(ValueError):
        fermat_factor(4)
    with pytest.raises(ValueError):
        fermat_factor(1)


def test_fermat_exhausts():
    # 3 * 101: needs (3+101)/2 - 18 + 1 = 35 steps
    with pytest.raises(Exhausted) as err:
        fermat_factor(303, 10)
    assert err.value.steps == 10
    rep = fermat_factor(303, 35)
    assert (rep.p, rep.q) == (3, 101)
    assert rep.steps == expected_steps(303, 3, 101) == 35


def test_fermat_prime_input_yields_unit_factor():
    rep = fermat_factor(7, 100)
    assert (rep.p, rep.q) == (1, 7)
    assert rep.p * rep.q == 7


def test_fermat_identity_and_step_oracle_sampled():
    rng = random.Random(5)
    for _ in range(100):
        p = ntheory.next_prime(rng.randrange(3, 1000))
        q = ntheory.next_prime(rng.randrange(p, 3000))
        N = p * q
        rep = fermat_factor(N, 1 << 22)
        assert rep.p * rep.q == N
        assert rep.p <= rep.q
        U, V = rep.p + rep.q, rep.q - rep.p
        assert U * U - V * V == 4 * N
        assert rep.steps == expected_steps(N, rep.p, rep.q)


def test_fermat_big_int_fallback_path():
    # u starts beyond the int64 window: exercise the big-int loop
    p = ntheory.next_prime((1 << 33) + 11)
    q = ntheory.next_prime(p + 2)
    N = p * q
    rep = fermat_factor(N, 1 << 16)
    assert (rep.p, rep.q) == (min(p, q), max(p, q))


def test_fermat_crosses_vector_window_boundary():
    # the search starts inside the int64 window and the hit lies past 2**31,
    # so the scan must hand over mid-search without losing count
    m = 1 << 31
    p = ntheory.next_prime(m - 16_000_000)
    q = ntheory.next_prime(m + 16_000_000)
    N = p * q
    u0 = math.isqrt(N - 1) + 1
    assert u0 < m < (p + q) // 2
    rep = fermat_factor(N, 1 << 20)
    assert (rep.p, rep.q) == (p, q)
    assert rep.steps == expected_steps(N, p, q)


def filtered_unit_scan(N, u0, cap, stride):
    """Reference for the strided scan: run the stride-1 scan over the same
    u range, hit by hit, and keep the first hit in u0's class mod stride."""
    u, end = u0, u0 + stride * cap
    while u < end:
        hit = _scan_classic(N, u, end - u)
        if hit is None:
            return None
        u_hit, _steps = hit
        if (u_hit - u0) % stride == 0:
            return u_hit, (u_hit - u0) // stride + 1
        u = u_hit + 1
    return None


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 1 << 20),
    st.integers(0, 1 << 13),
    st.integers(1, 60),
    st.integers(0, 200),
    st.integers(0, 59),
    st.integers(0, 400),
)
def test_strided_scan_is_the_filtered_unit_scan(half_d, g, stride, k, r, cap):
    # N = d*e with u = (d + e)/2 = d + g; start k class members (or, for
    # r > 0, off the class) below u, never below ceil(sqrt(N))
    d = 2 * half_d + 1
    N, u = d * (d + 2 * g), d + g
    u0 = max(math.isqrt(N - 1) + 1, u - stride * k - r % stride)
    assert _scan_classic(N, u0, cap, stride) == filtered_unit_scan(N, u0, cap, stride)


def test_strided_scan_crosses_vector_window_boundary():
    # the class search starts in the int64 window and its hit lies past
    # 2**31, in the big-int loop
    m = 1 << 31
    p = ntheory.next_prime(m - 16_000_000)
    q = ntheory.next_prime(m + 16_000_000)
    N, u_hit, stride = p * q, (p + q) // 2, 7
    u0 = math.isqrt(N - 1) + 1
    u0 += (u_hit - u0) % stride
    assert u0 < m < u_hit
    cap = (u_hit - u0) // stride + 5
    hit = _scan_classic(N, u0, cap, stride)
    assert hit == filtered_unit_scan(N, u0, cap, stride)
    assert hit == (u_hit, (u_hit - u0) // stride + 1)
    # the test just below the hit exhausts, counting every class member
    assert _scan_classic(N, u0, hit[1] - 1, stride) is None


def test_residue_class_fermat():
    # 11639 = 103 * 113: u = 108 = 3 (mod 5) is the first class member
    assert residue_class_fermat(11639, 3, 5, 114) == FermatReport(103, 113, 1, 108)
    # the class 4 (mod 5) holds u = 109 and 114, neither gives a square
    with pytest.raises(Exhausted) as err:
        residue_class_fermat(11639, 4, 5, 114)
    assert err.value.steps == 2
    # an empty range makes no test
    with pytest.raises(Exhausted) as err:
        residue_class_fermat(11639, 0, 5, 109)
    assert err.value.steps == 0
    # 64-bit N: the big-int loop, steps counts class members up to the hit
    p = ntheory.next_prime((1 << 32) + 7)
    q = ntheory.next_prime(p + (1 << 20))
    N, B = p * q, 1009
    u = (p + q) // 2
    rep = residue_class_fermat(N, u % B, B, u)
    u0 = math.isqrt(N - 1) + 1
    assert (rep.p, rep.q) == (p, q)
    assert rep.steps == (u - rep.start_u) // B + 1 and rep.start_u - u0 < B


def test_twin_prime_products_single_step():
    count = 0
    p = 3
    while count < 25:
        if ntheory.is_prime(p) and ntheory.is_prime(p + 2):
            rep = fermat_factor(p * (p + 2), 2)
            assert rep.steps == 1
            assert (rep.p, rep.q) == (p, p + 2)
            count += 1
        p += 2


def test_compute_initial_u_zero_offset():
    for N in (35, 11639, 999985999949):
        assert compute_initial_u(N, 0) == 2 * math.isqrt(N)
    assert compute_initial_u(999985999949, 0) == 1999984


def test_compute_initial_u_is_even():
    rng = random.Random(2)
    for _ in range(200):
        N = rng.randrange(16, 1 << 40) | 1
        x = rng.randrange(-8, 9)
        f = ntheory.iroot(N, 4)
        if f + x <= 0:
            continue
        assert compute_initial_u(N, x) % 2 == 0


def test_compute_initial_u_degenerate():
    with pytest.raises(DegenerateDenominator):
        compute_initial_u(10**12, -1000)
    with pytest.raises(ValueError):
        compute_initial_u(15, 0)


def build_offset_instance(rng, x, x0_target):
    """Construct N = p*q with p = isqrt(N) + iroot(N,4)*x + x0, |x0| <= 64.

    Fixed-point iteration pins the center, then nearby primes are tried and
    the first whose exactly-implied offset stays within budget wins.
    """
    q = ntheory.next_prime(rng.randrange(1 << 19, 1 << 20))
    p = q
    for _ in range(8):
        N = p * q
        p_new = math.isqrt(N) + ntheory.iroot(N, 4) * x + x0_target
        if p_new == p:
            break
        p = p_new
    if p <= 2:
        return None
    for delta in sorted(range(-96, 97), key=abs):
        cand = p + delta
        if cand <= 2 or not ntheory.is_prime(cand):
            continue
        N = cand * q
        x0 = cand - math.isqrt(N) - ntheory.iroot(N, 4) * x
        if abs(x0) <= 64:
            assert math.isqrt(N) + ntheory.iroot(N, 4) * x + x0 == cand
            return N, cand, q, x0
    return None


def test_compute_initial_u_tracks_true_sum():
    rng = random.Random(9)
    built = 0
    for _ in range(60):
        x = rng.randrange(-8, 9)
        inst = build_offset_instance(rng, x, rng.randrange(-48, 49))
        if inst is None:
            continue
        N, p, q, x0 = inst
        built += 1
        u0 = compute_initial_u(N, x)
        slack = x0 * x0 // p + abs(x) + 6
        assert abs((p + q) - u0) <= slack, (N, p, q, x0, u0)
    assert built >= 30


def test_shifted_fermat_examples():
    rep = shifted_fermat(999985999949, 0, 10)
    assert (rep.p, rep.q) == (999983, 1000003)
    assert rep.steps <= 3
    rep35 = shifted_fermat(35, 0, 5)
    assert (rep35.p, rep35.q) == (5, 7)


# (N, x, cap) -> (p, q, steps, start_u), or the Exhausted steps
_SHIFTED_GOLDEN = {
    (8833443187, -3, 3): 3,
    (3644861055503, -5, 4096): (1908601, 1909703, 25, 3818328),
    (70187068811429, 4, 4096): (8374363, 8381183, 15, 16755560),
    (142606176827, 10, 64): 64,
    (24608664799, -6, 4096): (150649, 163351, 129, 313778),
    (16502955637393, -6, 64): (4062347, 4062419, 35, 8124800),
    (869107, 2, 3): (877, 991, 1, 1868),
    (1799928235409, -2, 64): (1340011, 1343219, 3, 2683232),
    (145800928993, -6, 3): 3,
    (2313176353469, 4, 64): (1520903, 1520923, 15, 3041840),
    (10764329, -2, 64): (3121, 3449, 5, 6564),
    (4095835241389, 10, 3): 3,
    (601901827, -10, 3): 3,
    (70565699, 3, 4096): (7873, 8963, 18, 16808),
    (15900727, 1, 64): (3539, 4493, 29, 7976),
    (1558490075881, 1, 3): (1248383, 1248407, 1, 2496790),
    (2196636083, -12, 4096): (43223, 50821, 154, 93888),
    # one-sided: the estimate lies below the least feasible U
    (8658938761639, 1, 64): (2940853, 2944363, 1, 5885216),
    (24608664799, 0, 4096): (150649, 163351, 129, 313744),
    (70565699, 0, 4096): (7873, 8963, 18, 16802),
    (142606176827, 0, 3): (376511, 378757, 2, 755266),
}


def test_shifted_fermat_golden():
    for (N, x, cap), expected in _SHIFTED_GOLDEN.items():
        if isinstance(expected, int):
            with pytest.raises(Exhausted) as err:
                shifted_fermat(N, x, cap)
            assert err.value.steps == expected
            continue
        rep = shifted_fermat(N, x, cap)
        assert (rep.p, rep.q, rep.steps, rep.start_u) == expected, (N, x, cap)


def test_shifted_fermat_constructed_instances_cycle_bound():
    rng = random.Random(13)
    built = 0
    for _ in range(80):
        x = rng.randrange(-16, 17)
        inst = build_offset_instance(rng, x, rng.randrange(-64, 65))
        if inst is None:
            continue
        N, p, q, x0 = inst
        built += 1
        rep = shifted_fermat(N, x, 1 << 16)
        assert rep.p * rep.q == N
        assert rep.steps <= 4 * x0 * x0 // p + 8
    assert built >= 40


def test_shifted_fermat_exhausts():
    with pytest.raises(Exhausted):
        # x far off for a balanced instance: cap must trip
        shifted_fermat(1097395555379, 5000, 4)
