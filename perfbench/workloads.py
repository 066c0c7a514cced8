"""The benchmark's workloads: seeded inputs, the operation each times, and the
independent check of every result.

Operations call the program through module attributes (harness.run_pipeline,
lattice.coppersmith_bivariate, harness.factor_auto) so that a traced run sees
the wrappers of layers.tracer().
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from factorlab import harness, lattice, ntheory
from factorlab.polybuild import (
    BilinearPoly,
    FactorCenter,
    PartialResidue,
    RootBounds,
    bound_margin,
    build_polynomial,
    solve_companion_residue,
)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Callable[[int], list]  # seed -> inputs, run in order and cycled
    warmup: Callable[[], list]  # small fixed inputs run once in set-up
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]  # (input, result) -> correct?
    summary: Callable[[Any], dict]  # machine-independent facts of a result


def _rng(seed: int, stream: int) -> random.Random:
    return random.Random((seed << 16) | stream)


# --- pipeline: run_pipeline(N, p) on balanced semiprimes ---------------------


def _semiprimes(bits: int, seed: int, count: int, stream: int) -> list:
    """Balanced (N, p, q) from the program's own generator, one spec seed per
    item so that items do not depend on each other."""
    base = (seed << 20) | (stream << 12)
    return [
        harness.gen_semiprime(harness.SemiprimeSpec(bits=bits, seed=base + i))
        for i in range(count)
    ]


def _pipeline_op(item):
    N, p, _q = item
    return harness.run_pipeline(N, p)


def _pipeline_check(item, record) -> bool:
    _N, p, q = item
    return record.success and (record.p, record.q) == (p, q)


def _pipeline_summary(record) -> dict:
    return {"method": record.method.value, "steps": record.steps}


def pipeline(bits: int, count: int = 64) -> Workload:
    return Workload(
        name=f"pipeline-{bits}",
        corpus=lambda seed: _semiprimes(bits, seed, count, 1),
        warmup=lambda: _semiprimes(24, 0, 1, 2),
        op=_pipeline_op,
        check=_pipeline_check,
        summary=_pipeline_summary,
    )


# --- solver: coppersmith_bivariate(f, box) on planted instances --------------


def planted_bilinear(rng: random.Random, bits: int) -> tuple[BilinearPoly, int, int]:
    """A balanced bits-bit N = p*q, a residue of p and the bilinear f with its
    planted root (x1, y1), built exactly as the pipeline builds it."""
    half = bits // 2
    while True:
        p = ntheory.next_prime(rng.randrange(1 << (half - 1), 1 << half))
        q = ntheory.next_prime(rng.randrange(p + 1, 2 * p))
        N = p * q
        if not q < 2 * p or N.bit_length() != bits:
            continue
        try:
            B, x0 = ntheory.select_modulus(N, p)
        except ntheory.SelectionExhausted:
            continue
        center = FactorCenter.balanced(N)
        pr = PartialResidue(B, x0)
        y0 = solve_companion_residue(N, center, pr)
        f = build_polynomial(N, center, pr, y0)
        return f, (p - center.P0 - x0) // B.value, (q - center.Q0 - y0) // B.value


def _planted_in_band(rng, bits_lo, bits_hi, margin_lo, margin_hi):
    """Planted instance with the tight box (the root on its edge), box at most
    2**10 and bound margin in [margin_lo, margin_hi)."""
    while True:
        f, x1, y1 = planted_bilinear(rng, rng.randrange(bits_lo, bits_hi + 1))
        side = max(abs(x1), abs(y1), 1)
        if side > 1 << 10:
            continue
        box = RootBounds(side, side)
        if margin_lo <= bound_margin(f, box) < margin_hi:
            return f, box, (x1, y1)


# Each block of eleven calls holds one low-margin instance (+2 to +2.25
# bits), which as a rule fails the top pass and recenters (6-18 LLL passes),
# and ten high-margin ones (>= +3.5 bits), which the first pass solves and as
# a rule certifies.  Recentering calls then take about half the run time and
# set op_ms_tail, direct calls set op_ms_p50, and the fixed mix keeps the
# recentering share from drifting with the seed: drawn freely from the
# margin >= +2 family it swings ops_per_s by a quarter between seeds.  The
# default 20-22-bit N keeps recentering calls near 0.4 s, so a run holds
# dozens of them.
RECENTER_MARGIN = (2.0, 2.25)
DIRECT_MARGIN = (3.5, float("inf"))


def _solver_corpus(seed: int, blocks: int, bits: tuple[int, int]) -> list:
    rng = _rng(seed, 3)
    out = []
    for _ in range(blocks):
        out.append(_planted_in_band(rng, *bits, *RECENTER_MARGIN))
        out.extend(_planted_in_band(rng, *bits, *DIRECT_MARGIN) for _ in range(10))
    return out


def _solver_op(item):
    f, box, _root = item
    return lattice.coppersmith_bivariate(f, box)


def _solver_check(item, result) -> bool:
    f, box, root = item
    return root in result.roots and result.roots == lattice.exhaustive_roots(f, box)


def _solver_summary(result) -> dict:
    return {"roots": len(result.roots), "certified": result.certified}


def solver(blocks: int = 48, bits: tuple[int, int] = (20, 22)) -> Workload:
    return Workload(
        name="solver",
        corpus=lambda seed: _solver_corpus(seed, blocks, bits),
        warmup=lambda: [_planted_in_band(_rng(0, 4), 18, 18, *DIRECT_MARGIN)],
        op=_solver_op,
        check=_solver_check,
        summary=_solver_summary,
    )


# --- auto: factor_auto(N) -------------------------------------------------------


def near_square(rng: random.Random, bits: int, gap_bits: int) -> tuple[int, int, int]:
    """N = p*q of exactly `bits` bits with q - p in [2**gap_bits, 2**(gap_bits+1))."""
    half = bits // 2
    lo = ntheory.isqrt(1 << (2 * half - 1)) + 1  # p*p >= 2**(bits-1)
    while True:
        p = ntheory.next_prime(rng.randrange(lo, (1 << half) - (1 << (gap_bits + 2))))
        q = ntheory.next_prime(p + rng.randrange(1 << gap_bits, 1 << (gap_bits + 1)))
        if (p * q).bit_length() == bits and q - p < 1 << (gap_bits + 1):
            return p * q, p, q


def _auto_corpus(seed: int, cycles: int, small_bits: int, big_bits: int, gap_bits: int) -> list:
    """Three balanced small_bits semiprimes (int64 Fermat scan) for each
    big_bits near-square semiprime (big-int scan)."""
    small = _semiprimes(small_bits, seed, 3 * cycles, 5)
    rng = _rng(seed, 6)
    out = []
    for c in range(cycles):
        out.extend(small[3 * c : 3 * c + 3])
        out.append(near_square(rng, big_bits, gap_bits))
    return out


def _auto_op(item):
    return harness.factor_auto(item[0])


def _auto_check(item, result) -> bool:
    _N, p, q = item
    return result.complete and result.factors == [p, q]


def _auto_summary(result) -> dict:
    return {"factors": len(result.factors)}


def auto(cycles: int = 128, small_bits: int = 44, big_bits: int = 96,
         gap_bits: int = 33) -> Workload:
    return Workload(
        name="auto",
        corpus=lambda seed: _auto_corpus(seed, cycles, small_bits, big_bits, gap_bits),
        warmup=lambda: _auto_corpus(0, 1, small_bits, big_bits, gap_bits),
        op=_auto_op,
        check=_auto_check,
        summary=_auto_summary,
    )


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "pipeline-40": lambda: pipeline(40, count=96),
    "pipeline-56": lambda: pipeline(56),
    "solver": solver,
    "auto": auto,
}
