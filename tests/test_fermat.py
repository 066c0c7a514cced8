import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorlab import fermat, ntheory
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


def plain_scan(N, u0, cap, stride):
    """Reference for a scan of either direction: one exact square test per
    u = u0, u0+stride, ..., no filter and no window."""
    for k in range(cap):
        u = u0 + stride * k
        t = u * u - N
        if math.isqrt(t) ** 2 == t:
            return u, k + 1
    return None


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 1 << 20) | st.integers((1 << 30) - (1 << 16), (1 << 30) + (1 << 16)),
    st.integers(0, 1 << 13),
    st.sampled_from([-1, -7]) | st.integers(-60, -1),
    st.integers(0, 200),
    st.integers(0, 59),
    st.integers(0, 400),
)
def test_descending_scan_is_the_plain_scan(half_d, g, stride, k, r, cap):
    # N = d*e with u = (d + e)/2 = d + g; start k class members (or, for
    # r > 0, off the class) above u, and stop at ceil(sqrt(N))
    d = 2 * half_d + 1
    N, u = d * (d + 2 * g), d + g
    u0 = u - stride * k + r % -stride
    cap = min(cap, (u0 - (math.isqrt(N - 1) + 1)) // -stride + 1)
    assert _scan_classic(N, u0, cap, stride) == plain_scan(N, u0, cap, stride)


@pytest.mark.parametrize("stride", [-1, -7])
def test_descending_scan_from_above_the_vector_window(stride):
    # the scan starts above 2**31, so it runs the big-int loop, and its hit
    # lies below 2**31; a start below 2**31 runs the int64 window instead.
    # u_hit is the least u with u*u >= N, so the scan ends at the hit
    m = 1 << 31
    p = ntheory.next_prime(m - 40_000)
    q = ntheory.next_prime(m + 30_000)
    N, u_hit = p * q, (p + q) // 2
    assert u_hit < m and u_hit == math.isqrt(N - 1) + 1
    for u0 in (m + 2_000, m - 1_000):
        u0 -= (u0 - u_hit) % -stride
        cap = (u0 - u_hit) // -stride + 1
        hit = _scan_classic(N, u0, cap, stride)
        assert hit == plain_scan(N, u0, cap, stride) == (u_hit, cap)
        assert _scan_classic(N, u0, cap - 1, stride) is None


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


def reference_initial_u(N, x):
    """compute_initial_u's estimate in exact rationals, rounded half up and
    then moved to the nearest even integer."""
    r = math.isqrt(N)
    F = math.isqrt(math.isqrt(N << 64))
    if (F >> 16) + x <= 0:
        raise DegenerateDenominator(f"iroot(N,4) + x = {(F >> 16) + x} <= 0")
    f = Fraction(F, 1 << 16)
    value = 2 * r + 2 * f * x - (2 * r * x + f * x * x) / (f + x)
    u0 = math.floor(value + Fraction(1, 2))
    if u0 % 2:
        u0 += 1 if value >= u0 else -1
    return u0


def initial_u_outcome(fn, N, x):
    try:
        return fn(N, x)
    except DegenerateDenominator as exc:
        return str(exc)


def test_compute_initial_u_is_the_rational_estimate_small():
    for N in range(16, 3000):
        for x in range(-12, 13):
            assert initial_u_outcome(compute_initial_u, N, x) == initial_u_outcome(
                reference_initial_u, N, x
            ), (N, x)


@settings(deadline=None, max_examples=500)
@given(st.integers(16, 1 << 400), st.integers(-(1 << 20), 1 << 20))
def test_compute_initial_u_is_the_rational_estimate(N, x):
    assert initial_u_outcome(compute_initial_u, N, x) == initial_u_outcome(
        reference_initial_u, N, x
    )


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


def reference_shifted_fermat(N, x, step_cap):
    """The alternating scalar loop: one exact square test per candidate U0,
    U0+2, U0-2, U0+4, ..., candidates below u_min skipped."""
    four_n = 4 * N
    u_min = math.isqrt(four_n - 1) + 1
    u_min += u_min % 2
    start_u = max(compute_initial_u(N, x), u_min)

    def candidates():
        yield start_u
        for k in itertools.count(2, 2):
            yield start_u + k
            if start_u - k >= u_min:
                yield start_u - k

    for steps, U in enumerate(candidates(), start=1):
        t = U * U - four_n
        s = math.isqrt(t)
        if s * s == t:
            return FermatReport((U - s) // 2, (U + s) // 2, steps, start_u)
        if steps >= step_cap:
            break
    raise Exhausted(f"no square within {step_cap} tests for N={N}, x={x}", step_cap)


def shifted_outcome(fn, N, x, cap):
    try:
        return fn(N, x, cap)
    except Exhausted as exc:
        return "Exhausted", str(exc), exc.steps
    except DegenerateDenominator as exc:
        return "DegenerateDenominator", str(exc)


@settings(deadline=None, max_examples=400)
@given(
    st.integers(2, 1 << 20)
    | st.integers((1 << 30) - (1 << 20), (1 << 30) + (1 << 20))
    | st.integers(1 << 40, 1 << 60),
    st.integers(0, 1 << 13),
    st.integers(-40, 40),
    st.integers(1, 4096),
)
# the hit is the last ascending test that alternates with a descending one
@example(half_d=1212, g=189, x=3, cap=4096)
@example(half_d=1020, g=237, x=4, cap=4096)
def test_shifted_fermat_is_the_alternating_loop(half_d, g, x, cap):
    # N = d*e with (d + e)/2 = d + g: the estimate can sit above or below
    # the hit, or at u_min (one-sided), and N crosses 2**62
    d = 2 * half_d + 1
    N = d * (d + 2 * g)
    expected = shifted_outcome(reference_shifted_fermat, N, x, cap)
    assert shifted_outcome(shifted_fermat, N, x, cap) == expected
    if isinstance(expected, FermatReport) and expected.steps > 1:
        # one test fewer exhausts at the cap, with nothing scanned past it
        cap = expected.steps - 1
        assert shifted_outcome(shifted_fermat, N, x, cap) == shifted_outcome(
            reference_shifted_fermat, N, x, cap
        )


def test_shifted_fermat_early_descending_hit_bounded_cost(monkeypatch):
    # the hit lies 18529 tests into the alternation, below the start: the
    # rounds stop the ascending scan near it instead of running to the cap
    p = ntheory.next_prime(1 << 69)
    q = ntheory.next_prime(p + (1 << 52))
    counts = []

    def counting_scan(N, u0, step_cap, stride=1):
        counts.append(step_cap)
        return _scan_classic(N, u0, step_cap, stride)

    monkeypatch.setattr(fermat, "_scan_classic", counting_scan)
    rep = shifted_fermat(p * q, 92682)
    assert (rep.p, rep.q, rep.steps) == (p, q, 18529)
    assert p + q < rep.start_u
    assert sum(counts) <= 2 * rep.steps + 2


@settings(deadline=None, max_examples=200)
@given(
    st.integers(2, 1 << 20) | st.integers((1 << 30) - (1 << 20), 1 << 40),
    st.integers(0, 1 << 14),
    st.integers(1, 4096),
)
def test_one_sided_shifted_search_is_the_classic_search(half_d, g, cap):
    # at x = 0 the estimate 2*isqrt(N) lies at or below u_min, so the shifted
    # search only ascends, from 2*ceil(sqrt(N)), as fermat_factor does
    d = 2 * half_d + 1
    N = d * (d + 2 * g)
    shifted = shifted_outcome(shifted_fermat, N, 0, cap)
    try:
        rep = fermat_factor(N, cap)
    except Exhausted as exc:
        assert shifted[0] == "Exhausted" and shifted[2] == exc.steps
        return
    assert (shifted.p, shifted.q, shifted.steps) == (rep.p, rep.q, rep.steps)
    assert shifted.start_u == 2 * rep.start_u
