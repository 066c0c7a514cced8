import dataclasses
import json
import math
import time
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import fermat, harness, ntheory, polybuild
from factorlab.harness import (
    Balance,
    GenerationExhausted,
    Method,
    PipelineFailure,
    SemiprimeSpec,
    TrialRecord,
    bound_scan,
    experiment_run,
    factor_auto,
    gen_semiprime,
    run_pipeline,
)
from factorlab.polybuild import FactorCenter, PartialResidue, RootBounds, recover_factor


def test_spec_validation():
    with pytest.raises(ValueError):
        SemiprimeSpec(bits=8)
    SemiprimeSpec(bits=16)


def test_gen_balanced_properties():
    for seed in range(10):
        N, p, q = gen_semiprime(SemiprimeSpec(bits=20, seed=seed))
        assert p * q == N
        assert ntheory.is_prime(p) and ntheory.is_prime(q)
        assert p < q < 2 * p
        assert N.bit_length() == 20


def test_gen_deterministic():
    spec = SemiprimeSpec(bits=16, seed=99)
    assert gen_semiprime(spec) == gen_semiprime(spec)
    other = gen_semiprime(SemiprimeSpec(bits=16, seed=100))
    assert other != gen_semiprime(spec)


def test_gen_semiprime_golden():
    # exact draws, fixed for every release: a change here changes every
    # seeded experiment
    golden = {
        (24, Balance.BALANCED, 0): (12400799, 2521, 4919),
        (40, Balance.BALANCED, 3): (1019869978879, 898063, 1135633),
        (64, Balance.BALANCED, 7): (18411051418692312739, 4279732019, 4301916881),
        (16, Balance.UNBALANCED, 2): (33379, 29, 1151),
        (30, Balance.UNBALANCED, 1): (980881613, 881, 1113373),
        # bits = 2 (mod 3)
        (32, Balance.UNBALANCED, 0): (2942866441, 1151, 2556791),
        (44, Balance.UNBALANCED, 5): (10974065861909, 20089, 546272381),
    }
    for (bits, balance, seed), expected in golden.items():
        spec = SemiprimeSpec(bits=bits, balance=balance, seed=seed)
        assert gen_semiprime(spec) == expected


def test_gen_unbalanced_properties():
    N, p, q = gen_semiprime(SemiprimeSpec(bits=36, balance=Balance.UNBALANCED, seed=7))
    assert p * q == N and N.bit_length() == 36
    # p sits strictly inside ((N/2)^(1/3), N^(1/3)]
    assert 2 * p**3 > N and p**3 <= N
    assert p.bit_length() in (11, 12)
    assert q.bit_length() in (24, 25)


def test_gen_unbalanced_every_size():
    # every residue class of bits mod 3, including bits = 2 (mod 3)
    for bits in range(16, 97):
        for seed in range(3):
            spec = SemiprimeSpec(bits=bits, balance=Balance.UNBALANCED, seed=seed)
            N, p, q = gen_semiprime(spec)
            assert p * q == N and N.bit_length() == bits and p < q
            assert 2 * p**3 > N >= p**3


def test_run_pipeline_worked_instance():
    rec = run_pipeline(11639, 103)
    assert rec.success
    assert (rec.p, rec.q) == (103, 113)
    assert rec.method in (Method.COPPERSMITH, Method.X_SWEEP)
    assert abs(rec.margin_bits - 0.123) < 5e-3
    assert (rec.B, rec.x0, rec.y0) == (5, 1, 1)


def test_run_pipeline_minimal_case():
    rec = run_pipeline(35, 5)
    assert rec.success and (rec.p, rec.q) == (5, 7)


def test_run_pipeline_degenerate_center():
    # N = p*p: isqrt(N) = p divides N, so no residue or lattice is needed
    for p in (7, ntheory.next_prime((1 << 39) + 12345)):
        rec = run_pipeline(p * p, p)
        assert rec.success and (rec.p, rec.q) == (p, p)
        assert (rec.method, rec.steps) == (Method.X_SWEEP, 1)
        assert (rec.B, rec.x0, rec.y0) == (0, 0, 0)


def alternating_sweep(N, hint):
    """The residue stage as it was before the band search, for reference: an
    alternating x-sweep over the whole box |x| <= N^(1/3).  Its lattice
    roots were box points too, so the sweep alone decides its success."""
    center = FactorCenter.balanced(N)
    if N % center.P0 == 0:
        return center.P0
    B, x0 = ntheory.select_modulus(N, hint)
    pr = PartialResidue(B, x0)
    for k in range(RootBounds.balanced(N).X + 1):
        for x in (k, -k) if k else (0,):
            d = recover_factor(N, center, pr, x)
            if d is not None:
                return d
    return None


@settings(deadline=None, max_examples=100)
@given(
    st.integers(16, 36),
    st.integers(0, 1 << 20),
    st.sampled_from([Balance.BALANCED, Balance.UNBALANCED]),
    st.booleans(),
)
def test_residue_stage_finds_a_factor_where_the_sweep_did(bits, seed, balance, hint_q):
    N, p, q = gen_semiprime(SemiprimeSpec(bits=bits, balance=balance, seed=seed))
    hint = q if hint_q else p
    try:
        rec = run_pipeline(N, hint)
    except PipelineFailure:
        rec = None
    if alternating_sweep(N, hint) is not None:
        assert rec is not None
    if rec is None:
        return
    assert rec.success and 1 < rec.p <= rec.q and rec.p * rec.q == N
    if balance is Balance.BALANCED:
        assert rec.method is not Method.X_SWEEP
        if rec.method is Method.RESIDUE_FERMAT:
            u0, u_max = math.isqrt(N - 1) + 1, math.isqrt(9 * N // 8)
            assert rec.steps <= (u_max - u0) // rec.B + 1


def test_run_pipeline_80bit_balanced_within_budget():
    # measured worst case 0.58 s per trial (seed 2, 5.0M square tests,
    # 2-core x86-64 host, Python 3.11); the budget is over 4x that
    for seed in range(5):
        N, p, q = gen_semiprime(SemiprimeSpec(bits=80, seed=seed))
        t0 = time.perf_counter()
        rec = run_pipeline(N, p)
        elapsed = time.perf_counter() - t0
        assert (rec.p, rec.q) == (p, q)
        assert rec.method is Method.RESIDUE_FERMAT
        assert elapsed < 2.5, (seed, elapsed)


def test_run_pipeline_rejects_bad_hint():
    with pytest.raises(ValueError):
        run_pipeline(35, 4)


def test_run_pipeline_40bit_sweep_bound():
    N, p, q = gen_semiprime(SemiprimeSpec(bits=40, seed=3))
    rec = run_pipeline(N, p)
    assert rec.success
    assert {rec.p, rec.q} == {p, q}
    if rec.method is Method.X_SWEEP:
        assert rec.steps <= 2 * ntheory.iroot(N, 3) + 1


def test_trial_record_roundtrip():
    t0 = time.perf_counter()
    shifted = fermat.shifted_fermat(11639, 3)
    with pytest.raises(PipelineFailure) as failure:
        run_pipeline(40571, 29)  # the failed trial of the 16-bit unbalanced batch
    records = [
        run_pipeline(11639, 103),  # COPPERSMITH
        run_pipeline(143, 11),  # X_SWEEP: isqrt(143) = 11 divides N
        factor_auto(3166868267, fermat_cap=4).splits[0],  # RESIDUE_FERMAT
        factor_auto(60).splits[0],  # TRIAL_DIVISION
        factor_auto(10007**2).splits[0],  # PERFECT_POWER
        factor_auto(1000000016000000063).splits[0],  # FERMAT
        harness._record(11639, shifted.p, t0, Method.SHIFTED_FERMAT, shifted.steps),
        failure.value.record,
    ]
    assert {r.method for r in records} == set(Method)
    assert not records[-1].success
    names = [f.name for f in dataclasses.fields(TrialRecord)]
    for rec in records:
        line = rec.to_json()
        parsed = json.loads(line)
        assert list(parsed) == names
        # integers travel as decimal strings; the bool and floats do not
        for key in ("N", "p", "q", "B", "x0", "y0", "steps"):
            assert parsed[key] == str(getattr(rec, key))
        assert parsed["method"] == rec.method.value
        assert parsed["success"] is rec.success
        assert parsed["margin_bits"] == rec.margin_bits
        assert TrialRecord.from_json(line) == rec


def test_factor_auto_examples():
    assert factor_auto(60).factors == [2, 2, 3, 5]
    assert factor_auto(5959).factors == [59, 101]
    assert factor_auto(11639).factors == [103, 113]


def test_factor_auto_prime_powers_and_primes():
    assert factor_auto(2**20).factors == [2] * 20
    assert factor_auto(3**7).factors == [3] * 7
    p = ntheory.next_prime(10**7)
    assert factor_auto(p).factors == [p]
    assert factor_auto(p).splits == []
    square, cube = factor_auto(p * p), factor_auto(p**3)
    assert square.factors == [p, p] and cube.factors == [p, p, p]
    assert [(r.method, r.steps) for r in square.splits] == [(Method.PERFECT_POWER, 1)]
    assert [(r.N, r.method, r.steps) for r in cube.splits] == [
        (p**3, Method.PERFECT_POWER, 2), (p**2, Method.PERFECT_POWER, 1)
    ]


def test_factor_auto_255bit_near_square_splits_at_first_square_test():
    # no perfect-power root stands between trial division and the square
    # search that splits this in one test
    p = ntheory.next_prime(2**127)
    q = ntheory.next_prime(p + 2**30)
    N = 28948022309329048855892746252354664678192330038813755517855169602419458835331
    assert N == p * q
    t0 = time.perf_counter()
    result = factor_auto(N)
    elapsed = time.perf_counter() - t0
    assert result.factors == [p, q]
    assert [(r.method, r.steps) for r in result.splits] == [(Method.FERMAT, 1)]
    assert elapsed < 0.5  # about 2 ms


def test_factor_auto_splits_golden():
    # every split (N, p, q, method, steps, B, x0, y0, margin_bits), in order,
    # as the driver made them before its stages moved into _split
    def splits(n, **kw):
        return [
            (r.N, r.p, r.q, r.method, r.steps, r.B, r.x0, r.y0, r.margin_bits)
            for r in factor_auto(n, **kw).splits
        ]

    TD, PP = Method.TRIAL_DIVISION, Method.PERFECT_POWER
    assert splits(2**20) == [
        (2**k, 2, 2 ** (k - 1), TD, 1, 0, 0, 0, 0.0) for k in range(20, 1, -1)
    ]
    assert splits(2**3 * 3**2 * 10007**2) == [
        (7210083528, 2, 3605041764, TD, 1, 0, 0, 0, 0.0),
        (3605041764, 2, 1802520882, TD, 1, 0, 0, 0, 0.0),
        (1802520882, 2, 901260441, TD, 1, 0, 0, 0, 0.0),
        (901260441, 3, 300420147, TD, 2, 0, 0, 0, 0.0),
        (300420147, 3, 100140049, TD, 2, 0, 0, 0, 0.0),
        (100140049, 10007, 10007, PP, 1, 0, 0, 0, 0.0),
    ]
    p = ntheory.next_prime(10**7)  # 10000019
    assert splits(p**5) == [
        (p**5, p, p**4, PP, 4, 0, 0, 0, 0.0),
        (p**4, p**2, p**2, PP, 1, 0, 0, 0, 0.0),
        (p**2, p, p, PP, 1, 0, 0, 0, 0.0),
        (p**2, p, p, PP, 1, 0, 0, 0, 0.0),
    ]
    assert splits(3 * 5 * 1000000016000000063) == [
        (15000000240000000945, 3, 5000000080000000315, TD, 2, 0, 0, 0, 0.0),
        (5000000080000000315, 5, 1000000016000000063, TD, 3, 0, 0, 0, 0.0),
        (1000000016000000063, 1000000007, 1000000009, Method.FERMAT, 1, 0, 0, 0, 0.0),
    ]
    # 10007**7 is a perfect power at the largest exponent the stage tries,
    # 10000**7 < 10007**7
    p, p3 = 10007, 10007**3
    assert splits(p**7) == [
        (p**7, p, p**6, PP, 6, 0, 0, 0, 0.0),
        (p**6, p3, p3, PP, 1, 0, 0, 0, 0.0),
        (p3, p, p**2, PP, 2, 0, 0, 0, 0.0),
        (p**2, p, p, PP, 1, 0, 0, 0, 0.0),
        (p3, p, p**2, PP, 2, 0, 0, 0, 0.0),
        (p**2, p, p, PP, 1, 0, 0, 0, 0.0),
    ]
    assert splits(10009**3) == [
        (10009**3, 10009, 10009**2, PP, 2, 0, 0, 0, 0.0),
        (10009**2, 10009, 10009, PP, 1, 0, 0, 0, 0.0),
    ]
    # 32-bit balanced, seed 0: the capped square search gives up
    assert splits(3166868267, fermat_cap=4) == [
        (3166868267, 40123, 78929, Method.RESIDUE_FERMAT, 80, 41, 3, 23,
         0.13031183759530052),
    ]


def test_factor_auto_product_invariant_sampled():
    for n in range(2, 500):
        res = factor_auto(n)
        assert res.complete
        assert res.product() == n
        assert all(ntheory.is_prime(f) for f in res.factors)
        # one record per split into two factors, the first one splitting n
        assert len(res.splits) == len(res.factors) - 1
        assert all(1 < r.p <= r.q and r.p * r.q == r.N for r in res.splits)
        assert not res.splits or res.splits[0].N == n


_PRIMES_10_20 = st.integers(1 << 10, 1 << 20).map(ntheory.next_prime)


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 1 << 40) | st.builds(mul, _PRIMES_10_20, _PRIMES_10_20))
def test_factor_auto_product_and_primality(n):
    res = factor_auto(n)
    assert res.product() == n
    assert all(ntheory.is_prime(f) for f in res.factors)


def test_factor_auto_pipeline_stage():
    # both factors beyond the trial-division limit and too far apart for the
    # capped square search: forces the residue-enumeration pipeline
    res = factor_auto(21937688359, fermat_cap=4)  # 104729 * 209471
    assert res.complete
    assert res.factors == [104729, 209471]
    [split] = res.splits
    assert (split.N, split.p, split.q) == (21937688359, 104729, 209471)
    assert (split.B, split.x0, split.y0) == (53, 23, 37)
    assert (split.method, split.steps) == (Method.X_SWEEP, 170)
    assert split.margin_bits == 0.003430091702320226 and split.success


def test_enumerate_residues_past_the_first_modulus():
    # 1095 = 15 * 73: the first modulus, 3, divides P0 = isqrt(1095) = 33
    # and every residue of the next one, 5, fails, so B = 7 splits it
    rec = harness.enumerate_residues(1095)
    assert (rec.N, rec.p, rec.q, rec.B, rec.x0, rec.y0) == (1095, 15, 73, 7, 3, 5)
    assert (rec.method, rec.steps) == (Method.COPPERSMITH, 1)
    assert rec.margin_bits == 1.5285211661518963 and rec.success
    # 1090 is even, so there is no band: the x-sweep finds 2
    rec = harness.enumerate_residues(1090)
    assert (rec.N, rec.p, rec.q, rec.B, rec.x0, rec.y0) == (1090, 2, 545, 5, 4, 2)
    assert (rec.method, rec.steps) == (Method.X_SWEEP, 15)
    assert rec.margin_bits == 0.8812853965915748 and rec.success


def test_trial_division_is_the_least_prime_factor():
    # the gcd with the primes' product gives what dividing by each prime in
    # turn gives: the least prime factor up to 10^4 and its index
    primes = ntheory.sieve_primes(10_000)
    products = [10007 * 10009, 65537 * 99991, 10007**3, 2 * 10007, 9973 * 10007]
    for n in [*range(4, 20_000), *products]:
        if ntheory.is_prime(n):
            continue
        least = next((p for p in primes if n % p == 0), None)
        rec = harness._split(n, 1)
        if least is None:
            assert rec is None or rec.method != Method.TRIAL_DIVISION
        else:
            assert (rec.p, rec.method, rec.steps) == (
                least, Method.TRIAL_DIVISION, primes.index(least) + 1
            )


def test_factor_auto_incomplete_flagged(monkeypatch):
    # every stage fails: the square search is capped and the residue
    # enumeration finds nothing
    monkeypatch.setattr(harness, "enumerate_residues", lambda n: None)
    p = ntheory.next_prime(1 << 15)
    q = ntheory.next_prime(1 << 19)  # far from balanced
    res = factor_auto(p * q, fermat_cap=4)
    assert not res.complete
    assert res.product() == p * q
    assert res.factors == []


def test_factor_auto_rejects_small():
    with pytest.raises(ValueError):
        factor_auto(1)


def test_experiment_run_count_and_determinism():
    spec = SemiprimeSpec(bits=20, seed=5)
    records = experiment_run(spec, 10)
    assert len(records) == 10
    assert all(r.success for r in records)
    again = experiment_run(spec, 10)
    for a, b in zip(records, again):
        assert (a.N, a.p, a.q, a.B, a.x0, a.y0, a.method, a.steps) == (
            b.N, b.p, b.q, b.B, b.x0, b.y0, b.method, b.steps
        )
        assert a.margin_bits == b.margin_bits and a.success == b.success


def test_experiment_run_empty():
    assert experiment_run(SemiprimeSpec(bits=20, seed=1), 0) == []


def test_experiment_run_unbalanced_instances():
    # cube-root-scale factors lie outside the balanced band, and the tail
    # sweep reaches these three: p = P0 + B*x + x0 with |x| <= X.  It does not
    # reach every unbalanced instance: the 16-bit seed-0 batch holds
    # 40571 = 29 * 1399, whose p lies just outside the box, and 30-bit seed 6
    # fails the same way (test_experiment_run_records_a_failed_trial)
    spec = SemiprimeSpec(bits=36, balance=Balance.UNBALANCED, seed=0)
    records = experiment_run(spec, 3)
    assert len(records) == 3
    for rec in records:
        assert rec.success
        assert rec.p * rec.q == rec.N
        assert rec.method is Method.X_SWEEP


def test_experiment_run_records_a_failed_trial():
    # 40571 = 29 * 1399: p lies outside the band and the box, so the batch
    # records the trivial split with the stage's real B, x0, y0 and margin
    # and goes on with the other nine trials
    records = experiment_run(SemiprimeSpec(bits=16, balance=Balance.UNBALANCED), 10)
    assert len(records) == 10
    assert [r.N for r in records if not r.success] == [40571]
    assert all(r.p * r.q == r.N and 1 < r.p for r in records if r.success)
    rec = records[1]
    assert (rec.p, rec.q, rec.method) == (1, 40571, Method.X_SWEEP)
    center = FactorCenter.balanced(rec.N)
    bounds = RootBounds.balanced(rec.N)
    pr = PartialResidue(ntheory.PrimeModulus(rec.B), rec.x0)
    assert (rec.B, rec.x0) == (5, 3)
    assert rec.y0 == polybuild.solve_companion_residue(rec.N, center, pr)
    f = polybuild.build_polynomial(rec.N, center, pr, rec.y0)
    assert rec.margin_bits == polybuild.bound_margin(f, bounds)
    # steps: every band test plus every sweep point outside the band
    _, tests, band_xs = harness._band_search(rec.N, center, pr, rec.y0)
    sweep = [x for x in range(-bounds.X, bounds.X + 1) if x not in band_xs]
    assert rec.steps == tests + len(sweep) == 42
    with pytest.raises(PipelineFailure) as info:
        run_pipeline(rec.N, 29)
    failed = info.value.record
    assert (failed.p, failed.q, failed.B, failed.x0, failed.y0, failed.steps) == (
        rec.p, rec.q, rec.B, rec.x0, rec.y0, rec.steps
    )
    assert not failed.success


def test_bound_scan_rows():
    rows = bound_scan(20, 28, 4, 3, seed=2)
    assert [r.bits for r in rows] == [20, 24, 28]
    for row in rows:
        assert row.trials == 3
        assert row.min_margin_bits <= row.mean_margin_bits <= row.max_margin_bits
        payload = json.loads(row.to_json())
        assert payload["bits"] == row.bits


def test_bound_scan_at_256_bits():
    # every root the scan takes (N^(1/3) for the box, N^(1/6) for the
    # modulus) is exact at this size
    rows = bound_scan(256, 256, 1, 1)
    assert [(r.bits, r.trials) for r in rows] == [(256, 1)]


def test_bound_scan_margin_definition_identity():
    # the scan's margin is (2/3)log2(W) - log2(XY) by construction: recompute
    # one instance end to end
    from factorlab.polybuild import (
        FactorCenter,
        PartialResidue,
        RootBounds,
        bound_margin,
        build_polynomial,
        poly_height,
        solve_companion_residue,
    )

    N, p, _q = gen_semiprime(SemiprimeSpec(bits=24, seed=0))
    B, x0 = ntheory.select_modulus(N, p)
    center = FactorCenter.balanced(N)
    pr = PartialResidue(B, x0)
    y0 = solve_companion_residue(N, center, pr)
    f = build_polynomial(N, center, pr, y0)
    b = RootBounds.balanced(N)
    W = poly_height(f, b)
    assert abs(
        bound_margin(f, b) - ((2 / 3) * math.log2(W) - math.log2(b.X * b.Y))
    ) < 1e-9


def test_bound_scan_validation():
    with pytest.raises(ValueError):
        bound_scan(8, 20, 4, 3)
    with pytest.raises(ValueError):
        bound_scan(20, 24, 0, 3)
