"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime (run with -s to see them inline).

Budgets are asserted as stated; instance families are generated here with
fixed seeds so the whole suite is reproducible.
"""

import random
import time

from factorlab import ntheory
from factorlab.fermat import fermat_factor, shifted_fermat
from factorlab.harness import (
    Method,
    SemiprimeSpec,
    bound_scan,
    experiment_run,
    factor_auto,
    gen_semiprime,
)
from factorlab.lattice import (
    LatticeFailure,
    check_reduction,
    coppersmith_bivariate,
    exhaustive_roots,
    lll_reduce,
)
from factorlab.ntheory import is_prime, isqrt, next_prime, select_modulus
from factorlab.polybuild import (
    FactorCenter,
    PartialResidue,
    RootBounds,
    bound_margin,
    build_polynomial,
    solve_companion_residue,
)


def _report(num: int, detail: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {num}: PASS - {detail} ({elapsed:.2f}s)")


_CORPUS: list | None = None


def balanced_corpus():
    """1000 balanced semiprimes, 20-60 bits, with their residue selections.

    Built lazily inside the first timed criterion so generation cost counts
    against that criterion's budget; reused by the next one.
    """
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(0xFAC70)
        out = []
        while len(out) < 1000:
            bits = rng.randrange(20, 61)
            spec = SemiprimeSpec(bits=bits, seed=rng.randrange(1 << 60))
            try:
                N, p, q = gen_semiprime(spec)
                B, x0 = select_modulus(N, p)
            except Exception:
                continue
            out.append((N, p, q, B, x0))
        _CORPUS = out
    return _CORPUS


def test_criterion_1_twin_prime_single_step():
    t0 = time.perf_counter()
    twins = []
    p = (1 << 20) - 1
    while len(twins) < 50 and p > 3:
        if is_prime(p) and is_prime(p + 2):
            twins.append(p)
        p -= 2
    assert len(twins) == 50
    for p in twins:
        rep = fermat_factor(p * (p + 2), 4)
        assert rep.steps == 1
        assert (rep.p, rep.q) == (p, p + 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "50 twin-prime products factored in exactly 1 step each", elapsed)


def test_criterion_2_brute_force_step_equivalence():
    t0 = time.perf_counter()
    limit = 10**5
    primes = ntheory.sieve_primes(limit // 3)
    odd_primes = [p for p in primes if p > 2]
    checked = 0
    for i, p in enumerate(odd_primes):
        if p * p > limit:
            break
        for q in odd_primes[i:]:
            N = p * q
            if N > limit:
                break
            rep = fermat_factor(N, 1 << 22)
            assert rep.p * rep.q == N
            assert (rep.p, rep.q) == (p, q)
            # independent count of u values from ceil(sqrt(N)) to (p+q)/2
            expected = (p + q) // 2 - (isqrt(N - 1) + 1) + 1
            assert rep.steps == expected, (N, rep.steps, expected)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 18245
    assert elapsed < 10.0
    _report(2, f"step counts match the u-range count on {checked} semiprimes", elapsed)


def _offset_instance(rng, x):
    """N = p*q with p = isqrt(N) + iroot(N,4)*x + x0, |x0| <= 64, N ~ 40 bits."""
    q = next_prime(rng.randrange(1 << 19, 1 << 20))
    p = q
    for _ in range(8):
        N = p * q
        p_new = isqrt(N) + ntheory.iroot(N, 4) * x
        if p_new == p:
            break
        p = p_new
    if p <= 2:
        return None
    for delta in sorted(range(-96, 97), key=abs):
        cand = p + delta
        if cand <= 2 or not is_prime(cand):
            continue
        N = cand * q
        x0 = cand - isqrt(N) - ntheory.iroot(N, 4) * x
        if abs(x0) <= 64:
            return N, cand, q, x0
    return None


def test_criterion_3_shifted_center_cycle_bound():
    t0 = time.perf_counter()
    rng = random.Random(303)
    done = 0
    while done < 100:
        x = rng.randrange(-16, 17)
        inst = _offset_instance(rng, x)
        if inst is None:
            continue
        N, p, q, x0 = inst
        rep = shifted_fermat(N, x, 1 << 16)
        assert rep.p * rep.q == N
        assert rep.steps <= 4 * x0 * x0 // p + 8, (N, x, x0, rep.steps)
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, "100 offset instances within the 4*x0^2/p + 8 cycle bound", elapsed)


def test_criterion_4_root_identity():
    t0 = time.perf_counter()
    for (N, p, q, B, x0) in balanced_corpus():
        center = FactorCenter.balanced(N)
        pr = PartialResidue(B, x0)
        y0 = solve_companion_residue(N, center, pr)
        assert y0 == (q - center.Q0) % B.value
        f = build_polynomial(N, center, pr, y0)
        x1 = (p - center.P0 - x0) // B.value
        y1 = (q - center.Q0 - y0) // B.value
        assert (p - center.P0 - x0) % B.value == 0
        assert (q - center.Q0 - y0) % B.value == 0
        assert f.evaluate(x1, y1) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, "corrected polynomial vanishes at the planted root, 1000/1000", elapsed)


def test_criterion_5_naive_constant_term_falsified():
    t0 = time.perf_counter()
    corpus = balanced_corpus()
    disagree = 0
    expected_rate = 0.0
    for (N, p, q, B, x0) in corpus:
        center = FactorCenter.balanced(N)
        pr = PartialResidue(B, x0)
        y0 = solve_companion_residue(N, center, pr)
        naive = build_polynomial(N, center, pr, y0, ignore_center_defect=True)
        x1 = (p - center.P0 - x0) // B.value
        y1 = (q - center.Q0 - y0) // B.value
        defect = N - center.P0 * center.Q0
        if defect % B.value != 0:
            # the naive constant term misses the planted root outright
            assert naive.evaluate(x1, y1) != 0
            # and the naive congruence disagrees about y0
            y0_naive = solve_companion_residue(
                N, center, pr, ignore_center_defect=True
            )
            assert y0_naive != y0
            disagree += 1
        expected_rate += 1.0 - 1.0 / B.value
    rate = disagree / len(corpus)
    expected_rate /= len(corpus)
    assert rate > 0.5
    assert abs(rate - expected_rate) < 0.1
    elapsed = time.perf_counter() - t0
    _report(
        5,
        f"naive constant term misses the root at rate {rate:.3f} "
        f"(expected about {expected_rate:.3f}); documented negative result",
        elapsed,
    )


def test_criterion_6_lll_invariant_suite():
    t0 = time.perf_counter()
    rng = random.Random(606)
    checked = 0
    while checked < 200:
        n = rng.randrange(2, 9)
        basis = [
            [rng.randrange(-(1 << 40), 1 << 40) for _ in range(n)] for _ in range(n)
        ]
        try:
            reduced = lll_reduce(basis)
        except Exception:
            continue
        assert check_reduction(basis, reduced) == []
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, "200 random bases: unimodular, size-reduced, Lovasz, b1 bound", elapsed)


def _planted_bilinear(rng, bits):
    while True:
        half = bits // 2
        p = next_prime(rng.randrange(1 << (half - 1), 1 << half))
        q = next_prime(rng.randrange(p + 1, 2 * p))
        if not (p < q < 2 * p) or (p * q).bit_length() != bits:
            continue
        N = p * q
        try:
            B, x0 = select_modulus(N, p)
        except Exception:
            continue
        center = FactorCenter.balanced(N)
        pr = PartialResidue(B, x0)
        y0 = solve_companion_residue(N, center, pr)
        f = build_polynomial(N, center, pr, y0)
        x1 = (p - center.P0 - x0) // B.value
        y1 = (q - center.Q0 - y0) // B.value
        return f, x1, y1


def test_criterion_7_coppersmith_soundness_and_completeness():
    t0 = time.perf_counter()
    rng = random.Random(707)
    done = 0
    certified = 0
    while done < 200:
        f, x1, y1 = _planted_bilinear(rng, rng.randrange(18, 33))
        base = max(abs(x1), abs(y1), 1)
        bounds = RootBounds(base * rng.choice((1, 1, 2)), base * rng.choice((1, 1, 2)))
        if max(bounds.X, bounds.Y) > 1 << 10:
            continue
        if bound_margin(f, bounds) < 2.0:
            continue
        result = coppersmith_bivariate(f, bounds)
        oracle = exhaustive_roots(f, bounds)
        assert result.roots == oracle, (f, bounds, result.roots, oracle)
        assert (x1, y1) in result.roots
        for (x, y) in result.roots:
            assert f.evaluate(x, y) == 0
            assert abs(x) <= bounds.X and abs(y) <= bounds.Y
        certified += result.certified
        done += 1
    # soundness at any margin, including hopeless boundary boxes
    sound_checked = 0
    for _ in range(40):
        f, x1, y1 = _planted_bilinear(rng, rng.randrange(20, 40))
        bounds = RootBounds(max(abs(x1), 1), max(abs(y1), 1))
        try:
            result = coppersmith_bivariate(f, bounds, recenter_depth=1)
        except LatticeFailure:
            continue
        for (x, y) in result.roots:
            assert f.evaluate(x, y) == 0
            assert abs(x) <= bounds.X and abs(y) <= bounds.Y
        sound_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(
        7,
        f"200/200 margin>=+2 instances match the exhaustive oracle "
        f"({certified} certified); soundness verified on {sound_checked} extra",
        elapsed,
    )


def test_criterion_8_pipeline_end_to_end():
    t0 = time.perf_counter()
    records = experiment_run(SemiprimeSpec(bits=40, seed=808), 100)
    assert len(records) == 100
    assert all(r.success for r in records)
    assert all(r.p * r.q == r.N for r in records)
    methods = {m: sum(1 for r in records if r.method is m) for m in Method}
    # balanced instances: the band search finds every factor the lattice
    # leaves, so no trial reaches the x-sweep
    assert (
        methods[Method.COPPERSMITH], methods[Method.RESIDUE_FERMAT],
        methods[Method.X_SWEEP],
    ) == (8, 92, 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        8,
        "100/100 oracle pipelines succeeded "
        f"(COPPERSMITH {methods[Method.COPPERSMITH]}, "
        f"RESIDUE_FERMAT {methods[Method.RESIDUE_FERMAT]}, "
        f"X_SWEEP {methods[Method.X_SWEEP]})",
        elapsed,
    )


def test_criterion_9_bound_margin_scan():
    t0 = time.perf_counter()
    rows = bound_scan(20, 60, 8, 8, seed=909)
    assert [r.bits for r in rows] == [20, 28, 36, 44, 52, 60]
    report = " ".join(f"{r.bits}:{r.mean_margin_bits:+.2f}" for r in rows)
    means = [r.mean_margin_bits for r in rows]
    assert all(-5.0 <= m <= 5.0 for m in means)
    half = len(means) // 2
    drift = sum(means[half:]) / (len(means) - half) - sum(means[:half]) / half
    assert abs(drift) < 2.5  # the margin does not grow with the modulus size
    elapsed = time.perf_counter() - t0
    _report(
        9,
        f"margins sit at the solvability boundary, mean per size [{report}], "
        f"drift {drift:+.2f} bits",
        elapsed,
    )


def test_criterion_10_factor_auto_totality():
    t0 = time.perf_counter()
    for n in range(2, 10**4 + 1):
        res = factor_auto(n)
        assert res.complete
        assert res.product() == n
        prod = 1
        for f in res.factors:
            assert is_prime(f)
            prod *= f
        assert prod == n
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(10, "every N <= 10^4 factored into certified primes", elapsed)
