"""Semiprime generators, the partial-residue factoring pipeline, the general
auto-factor driver, and batch experiment runners.

One residue stage (companion residue -> bilinear polynomial -> lattice small
roots -> difference-of-squares search of the residue class over the balanced
band -> x-sweep over the rest of the box) serves both run_pipeline, which
feeds it the oracle residue of a known factor, and factor_auto, which feeds
it every candidate residue of a few moduli.

All randomness is seeded and splittable (splitmix64 over the user seed), so
every run is bit-for-bit reproducible except for elapsed_ms fields.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum

from . import fermat, lattice, ntheory, polybuild
from .polybuild import FactorCenter, PartialResidue, RootBounds


class GenerationExhausted(RuntimeError):
    """The semiprime generator hit its retry cap."""


class PipelineFailure(RuntimeError):
    """The lattice stage, the band search and the x-sweep all failed: no
    factor of the residue class lies in the balanced band or in the box.
    record is the residue stage's failed TrialRecord."""

    def __init__(self, message: str, record: TrialRecord):
        super().__init__(message)
        self.record = record


class Balance(Enum):
    BALANCED = "balanced"  # p < q < 2p
    UNBALANCED = "unbalanced"  # N/2 < p^3 <= N


class Method(str, Enum):
    FERMAT = "FERMAT"
    SHIFTED_FERMAT = "SHIFTED_FERMAT"
    COPPERSMITH = "COPPERSMITH"
    X_SWEEP = "X_SWEEP"
    RESIDUE_FERMAT = "RESIDUE_FERMAT"
    TRIAL_DIVISION = "TRIAL_DIVISION"
    PERFECT_POWER = "PERFECT_POWER"


@dataclass(frozen=True)
class SemiprimeSpec:
    """Parameters for one reproducible semiprime draw."""

    bits: int
    balance: Balance = Balance.BALANCED
    seed: int = 0

    def __post_init__(self) -> None:
        if self.bits < 16:
            raise ValueError("bits must be >= 16")


@dataclass
class TrialRecord:
    """One experiment outcome; integer fields serialize as decimal strings."""

    N: int
    p: int
    q: int
    B: int
    x0: int
    y0: int
    method: Method
    steps: int
    margin_bits: float
    success: bool
    elapsed_ms: float

    def to_json(self) -> str:
        """Keys in field order; ints (not bools) as decimal strings and the
        method, a str enum, as its value."""
        return json.dumps(
            {k: str(v) if type(v) is int else v for k, v in asdict(self).items()}
        )

    @classmethod
    def from_json(cls, line: str) -> "TrialRecord":
        raw = json.loads(line)
        hints = typing.get_type_hints(cls)  # each field's type parses its value
        return cls(**{f.name: hints[f.name](raw[f.name]) for f in fields(cls)})


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _rng_for(seed: int, stream: int) -> random.Random:
    return random.Random(_splitmix64(seed ^ _splitmix64(stream)))


_GEN_RETRY_CAP = 4096


def gen_semiprime(spec: SemiprimeSpec) -> tuple[int, int, int]:
    """Deterministic (N, p, q) with N.bit_length() == spec.bits, p < q primes,
    and the declared balance-class predicate holding exactly.

    BALANCED: p < q < 2p.  UNBALANCED: N/2 < p**3 <= N (p near the cube
    root, q near the two-thirds power).  Raises GenerationExhausted
    after a fixed retry cap.
    """
    rng = _rng_for(spec.seed, 0xBA1A)
    lo_n, hi_n = 1 << (spec.bits - 1), (1 << spec.bits) - 1
    for _ in range(_GEN_RETRY_CAP):
        if spec.balance is Balance.BALANCED:
            half = spec.bits // 2
            p = ntheory.next_prime(rng.randrange(1 << (half - 1), 1 << half))
        else:
            # (bits + 1) // 3: for bits = 2 (mod 3), p < 2**(bits // 3) would
            # force p**3 < N/2
            third = max((spec.bits + 1) // 3, 4)
            p = ntheory.next_prime(rng.randrange(1 << (third - 1), 1 << third))
        lo_q = max(p + 1, -(-lo_n // p))
        hi_q = hi_n // p
        if spec.balance is Balance.BALANCED:
            hi_q = min(hi_q, 2 * p - 1)
        if lo_q > hi_q:
            continue
        # lo_q and hi_q give p < q, N of spec.bits bits and, balanced, q < 2p
        q = ntheory.next_prime(rng.randrange(lo_q, hi_q + 1))
        if q > hi_q:
            continue
        N = p * q
        if spec.balance is Balance.UNBALANCED and not 2 * p**3 > N >= p**3:
            continue
        return N, p, q
    raise GenerationExhausted(f"no {spec.balance.value} semiprime after cap: {spec}")


def _record(
    N: int, p: int, t0: float, method: Method, steps: int,
    B: int = 0, x0: int = 0, y0: int = 0, margin: float = 0.0,
    success: bool = True,
) -> TrialRecord:
    p, q = sorted((p, N // p))
    return TrialRecord(
        N=N, p=p, q=q, B=B, x0=x0, y0=y0, method=method, steps=steps,
        margin_bits=margin, success=success,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


def _band_search(
    N: int, center: FactorCenter, pr: PartialResidue, y0: int
) -> tuple[int | None, int, range]:
    """The difference-of-squares search over the balanced band.

    A divisor d = P0 + x0 (mod B) of N has cofactor e = Q0 + y0 (mod B), so
    u = (d + e)/2 is fixed mod B and the search steps u by B from
    ceil(sqrt(N)) to u_max = isqrt(9N // 8).  8u^2 <= 9N holds exactly when
    (2d - e)(d - 2e) <= 0, that is N <= 2d^2 and d^2 <= 2N: the band holds
    every divisor of the class in [sqrt(N/2), sqrt(2N)], so every balanced
    instance (q < 2p).  Returns (d or None, square tests, xs), where xs are
    the sweep offsets x whose candidate P0 + B*x + x0 lies in the band: when
    the search finds nothing, none of them divides N.  Even N has no band
    (u = (d + e)/2 needs d and e odd); B is an odd prime on every path.
    """
    if N % 2 == 0:
        return None, 0, range(0)
    B = pr.modulus
    base = center.P0 + pr.x0
    u_class = (base + center.Q0 + y0) * ((B + 1) // 2) % B
    u_max = ntheory.isqrt(9 * N // 8)
    try:
        report = fermat.residue_class_fermat(N, u_class, B, u_max)
    except fermat.Exhausted as exc:
        d_lo = ntheory.isqrt((N - 1) // 2) + 1  # the least d with 2d^2 >= N
        d_hi = ntheory.isqrt(2 * N)
        return None, exc.steps, range(-((base - d_lo) // B), (d_hi - base) // B + 1)
    d = report.p if 1 < report.p < N else None
    return d, report.steps, range(0)


def _solve_residue(
    N: int, center: FactorCenter, bounds: RootBounds, pr: PartialResidue,
    t0: float,
) -> TrialRecord:
    """The residue stage: companion residue y0 -> bilinear f -> lattice small
    roots -> factor recovery, then the difference-of-squares search over the
    balanced band (_band_search), then an x-sweep over x = 0, +1, -1, ... up
    to |x| <= bounds.X that skips the x the band search has covered.

    steps counts the lattice roots tried (COPPERSMITH), the band's square
    tests (RESIDUE_FERMAT), or all band tests plus the sweep points tried
    (X_SWEEP), each up to and including the hit.  The band is bounded by
    construction (about 0.061*N^(1/3) tests for B near N^(1/6)), and the
    stage finds a factor whenever some |x| <= bounds.X or lattice root
    recovers one.  When nothing finds a factor the record has success
    False, the trivial split p = 1, q = N, method X_SWEEP (the last stage
    run) and steps = band tests plus sweep points tried.
    """
    y0 = polybuild.solve_companion_residue(N, center, pr)
    f = polybuild.build_polynomial(N, center, pr, y0)
    margin = polybuild.bound_margin(f, bounds)

    def record(
        d: int, method: Method, steps: int, success: bool = True
    ) -> TrialRecord:
        return _record(
            N, d, t0, method, steps, pr.modulus, pr.x0, y0, margin, success
        )

    try:
        roots = lattice.coppersmith_bivariate(f, bounds, recenter_depth=0).roots
    except lattice.LatticeFailure:
        roots = []
    for steps, (x, _y) in enumerate(roots, start=1):
        hit = polybuild.recover_factor(N, center, pr, x)
        if hit is not None:
            return record(hit, Method.COPPERSMITH, steps)
    hit, tests, band_xs = _band_search(N, center, pr, y0)
    if hit is not None:
        return record(hit, Method.RESIDUE_FERMAT, tests)
    sweep_xs = (
        x for k in range(bounds.X + 1) for x in ((k, -k) if k else (0,))
        if x not in band_xs
    )
    steps = tests
    for steps, x in enumerate(sweep_xs, start=tests + 1):
        hit = polybuild.recover_factor(N, center, pr, x)
        if hit is not None:
            return record(hit, Method.X_SWEEP, steps)
    return record(1, Method.X_SWEEP, steps, success=False)


def run_pipeline(N: int, p_hint: int) -> TrialRecord:
    """Factor N using only the residue oracle derived from p_hint.

    Stages: modulus selection -> residue oracle (p_hint is discarded) ->
    the residue stage (companion residue, bilinear polynomial, bound margin,
    lattice small roots, factor recovery, the difference-of-squares search
    of the residue class over the balanced band, which always finds a factor
    of a balanced instance, and an x-sweep over the rest of the box
    |x| <= N^(1/3)).  Raises PipelineFailure, carrying the failed record,
    when p lies outside both, which unbalanced instances can do.
    """
    t0 = time.perf_counter()
    if N < 4 or p_hint <= 1 or N % p_hint != 0:
        raise ValueError("need N >= 4 and p_hint a nontrivial divisor")
    center = FactorCenter.balanced(N)
    # degenerate center: isqrt(N) itself divides N (covers p = q and the
    # residue-free case where every modulus would give x0 = 0)
    if N % center.P0 == 0:
        return _record(N, center.P0, t0, Method.X_SWEEP, 1)
    modulus, x0 = ntheory.select_modulus(N, p_hint)
    del p_hint  # the remaining stages operate on (N, B, x0) only
    bounds = RootBounds.balanced(N)
    record = _solve_residue(N, center, bounds, PartialResidue(modulus, x0), t0)
    if not record.success:
        raise PipelineFailure(
            f"lattice, band search and sweep all failed for N={N}: "
            "the factor lies outside the balanced band and the sweep box",
            record,
        )
    return record


@dataclass
class Factorization:
    """Prime factors with multiplicity; cofactor > 1 flags an incomplete run.

    splits holds one TrialRecord per split of a composite into two factors,
    in the order the driver made them, each built by the stage that made it;
    for a composite N, splits[0] is the split of N itself.
    """

    factors: list[int] = field(default_factory=list)
    cofactor: int = 1
    splits: list[TrialRecord] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def product(self) -> int:
        return math.prod(self.factors, start=self.cofactor)


_TRIAL_LIMIT = 10_000  # _split divides by the primes up to this
_MODULUS_COUNT = 8  # moduli tried by the residue enumeration


@functools.cache
def _trial_primes() -> tuple[int, ...]:
    return tuple(ntheory.sieve_primes(_TRIAL_LIMIT))


@functools.cache
def _trial_product() -> int:
    return math.prod(_trial_primes())


def enumerate_residues(n: int) -> TrialRecord | None:
    """Enumerate candidate residues x0 in [0, B) for _MODULUS_COUNT moduli B
    and run the residue stage on each; B is about n**(1/6), so this realizes
    the residue-enumeration outer loop literally.  Per residue the lattice
    pass runs without recentering, the band search is bounded by construction
    (about 0.061*n^(1/3) square tests) and the x-sweep covers the full box.
    Returns the first successful record, or None."""
    t0 = time.perf_counter()
    center = FactorCenter.balanced(n)
    if n % center.P0 == 0:  # degenerate center, as in run_pipeline
        return _record(n, center.P0, t0, Method.X_SWEEP, 1)
    bounds = RootBounds.balanced(n)
    B = ntheory.next_prime(max(ntheory.iroot(n, 6), 2))
    for _ in range(_MODULUS_COUNT):
        if math.gcd(center.P0, B) == 1:
            modulus = ntheory.PrimeModulus(B)
            for x0 in range(1, B):
                if math.gcd(center.P0 + x0, B) != 1:
                    continue
                record = _solve_residue(
                    n, center, bounds, PartialResidue(modulus, x0), t0
                )
                if record.success:
                    return record
        B = ntheory.next_prime(B + 1)
    return None


def _split(n: int, fermat_cap: int) -> TrialRecord | None:
    """The record of the first stage that splits the composite n, or None
    when every stage fails.  The stages, in order:

    1. trial division: the least prime up to _TRIAL_LIMIT that divides n,
       read off one gcd of n with the product of those primes (steps: the
       index of that prime, as no smaller prime divides n);
    2. perfect powers, n = r**k split as r * r**(k-1) (steps: the exponents
       tried), only at the k with _TRIAL_LIMIT**k < n: a part that gets
       here has no prime factor up to _TRIAL_LIMIT;
    3. the difference-of-squares search, capped at fermat_cap square tests;
    4. the residue enumeration (enumerate_residues).
    """
    t0 = time.perf_counter()
    g = math.gcd(n, _trial_product())
    if g > 1:
        for tried, p in enumerate(_trial_primes(), start=1):
            if g % p == 0:
                return _record(n, p, t0, Method.TRIAL_DIVISION, tried)
    k = 2
    while _TRIAL_LIMIT**k < n:
        r = ntheory.iroot(n, k)
        if r**k == n:
            return _record(n, r, t0, Method.PERFECT_POWER, k - 1)
        k += 1
    try:
        report = fermat.fermat_factor(n, fermat_cap)
    except fermat.Exhausted:
        return enumerate_residues(n)
    return _record(n, report.p, t0, Method.FERMAT, report.steps)


def factor_auto(
    N: int, fermat_cap: int = fermat.DEFAULT_STEP_CAP
) -> Factorization:
    """Full factorization into certified primes: each composite part is split
    by the first stage of _split that succeeds, fermat_cap capping its
    square search, and both parts are factored in turn.  product() always
    equals N; cofactor > 1 (with complete = False) holds the parts no stage
    could split.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    result = Factorization()
    stack = [N]
    while stack:
        n = stack.pop()
        if ntheory.is_prime(n):
            result.factors.append(n)
        elif (record := _split(n, fermat_cap)) is not None:
            result.splits.append(record)
            stack += [record.p, record.q]
        else:
            result.cofactor *= n
    result.factors.sort()
    return result


def experiment_run(spec: SemiprimeSpec, count: int) -> list[TrialRecord]:
    """Generate count instances from seeds spec.seed, spec.seed+1, ... and run
    the pipeline on each.  Records are emitted in trial order; a trial the
    pipeline cannot factor is recorded with success False, and a generator
    failure skips that trial, neither aborting the batch."""
    records: list[TrialRecord] = []
    for i in range(count):
        try:
            N, p, _q = gen_semiprime(replace(spec, seed=spec.seed + i))
        except GenerationExhausted:
            continue
        try:
            records.append(run_pipeline(N, p))
        except PipelineFailure as exc:
            records.append(exc.record)
    return records


@dataclass(frozen=True)
class BoundScanRow:
    """Aggregate bound-margin statistics for one modulus size."""

    bits: int
    trials: int
    mean_margin_bits: float
    min_margin_bits: float
    max_margin_bits: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def bound_scan(
    bits_min: int,
    bits_max: int,
    step: int,
    trials_per_size: int,
    seed: int = 0,
) -> list[BoundScanRow]:
    """Measure the bound margin of the generated polynomial with the default
    box X = Y = floor(N**(1/3)) across modulus sizes.

    The margin is the solvability headroom of the lattice stage; this scan
    is the lab's instrument for how much slack the construction actually
    leaves (empirically: almost none, at every size).
    """
    if not 16 <= bits_min <= bits_max:
        raise ValueError("need 16 <= bits_min <= bits_max")
    if step < 1 or trials_per_size < 1:
        raise ValueError("step and trials_per_size must be >= 1")
    rows = []
    for bits in range(bits_min, bits_max + 1, step):
        margins = []
        attempts = 0
        while len(margins) < trials_per_size and attempts < 8 * trials_per_size:
            spec = SemiprimeSpec(bits=bits, seed=seed + attempts)
            attempts += 1
            try:
                N, p, _q = gen_semiprime(spec)
                modulus, x0 = ntheory.select_modulus(N, p)
            except (GenerationExhausted, ntheory.SelectionExhausted):
                continue
            center = FactorCenter.balanced(N)
            pr = PartialResidue(modulus, x0)
            y0 = polybuild.solve_companion_residue(N, center, pr)
            f = polybuild.build_polynomial(N, center, pr, y0)
            margins.append(polybuild.bound_margin(f, RootBounds.balanced(N)))
        if not margins:
            continue
        rows.append(
            BoundScanRow(
                bits=bits,
                trials=len(margins),
                mean_margin_bits=sum(margins) / len(margins),
                min_margin_bits=min(margins),
                max_margin_bits=max(margins),
            )
        )
    return rows
