"""Exact lattice reduction and a bivariate small-root solver.

lll_reduce is the all-integer LLL (Gram determinants d_i and scaled
Gram-Schmidt coefficients lambda_ij stay integral throughout), run on every
basis, so size reduction and the Lovasz condition of the result hold
exactly, not up to rounding.  Only its swap test is screened: _lovasz_swap
settles most tests from bit lengths or from doubles whose rounding error it
bounds, and multiplies the integers out only on near-ties, so its answer is
always the exact one.  A float-guided first pass would not speed up the
bases the solver and the pipeline build; it pays only on inputs no workload
runs (without one, uniform random bases and knapsack bases with 600-bit
entries reduce 1.2-1.3x slower, and those with 40-400-bit entries 1.05-1.9x
faster).  check_reduction re-derives every claimed property of a reduced
basis from scratch with rational arithmetic.

coppersmith_bivariate finds integer roots (x, y) of a bilinear f with |x| <=
X, |y| <= Y by lattice reduction: the lattice of the shift polynomials x^i
y^j f (0 <= i, j <= m) plus modulus-scaled monomials, columns scaled by X, Y
powers and ordered from x^(m+1) y^(m+1) down to 1.  The pass works on f's
primitive part, whose basis is written down in closed form, as in Coron
(2004): the working modulus is the least one above the usual bound that is
coprime to the pivot coefficient, so each shift divided by it mod the
modulus is a row, and every other monomial gets the modulus.  Short reduced
vectors are read as polynomials h with h(root) = 0 modulo the working
modulus; an h that is both independent of f and short enough vanishes at
every in-range root outright.  One resultant Res_x(f, h) per reduced row (in
closed form, f being linear in x) then pins the roots down: its integer
roots (all of them, by Hensel lifting) give every y, and f gives x.
Reduction stops at the first reduced prefix row that certifies: short, and
with R(0) != 0 for R(y) = A^(m+1) h(-C/A, y), f = A x + C, so not a multiple
of f; that row alone is then read (Howgrave-Graham's lemma needs a short
lattice vector, not a reduced basis).  Quadrant recentering (bounded
recursion) buys a few bits of slack per level, and one rule, read off each
box's bound margin, schedules every box: at or above _SCHEDULE_MARGIN_BITS a
degree-1 pass (9 dims) goes first, then the degree-2 pass (16 dims), then
the split; below it a box that can split sends its quadrants first, and its
own pass runs only if they do not all certify.
The solver has one configuration, the one every constant here was measured
at: Lovasz delta _DELTA = 3/4 and shift degree _SHIFT_DEGREE = 2.
Soundness is unconditional (every returned pair is verified by exact
evaluation); a certified result's root list is complete for the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, ldexp
from typing import Callable

from ._intpoly import Poly, bareiss_det, integer_roots, ptrim, sylvester_resultant
from .polybuild import BilinearPoly, RootBounds, bound_margin, is_reducible, poly_height

IntegerMatrix = list[list[int]]


class DependentRows(ValueError):
    """Input rows to lll_reduce are linearly dependent."""


class ReducibleInput(ValueError):
    """The small-root solver requires an irreducible polynomial."""


class BoundsTooLarge(ValueError):
    """Exhaustive enumeration over these bounds was refused."""


class LatticeFailure(RuntimeError):
    """No lattice pass produced roots or a completeness certificate."""

    def __init__(self, message: str, margin_bits: float):
        super().__init__(message)
        self.margin_bits = margin_bits


# The Lovasz constant of every reduction (_lovasz_swap has its 3 and 4
# written in), and the shift degree m of the solver's main pass (a
# high-margin box tries m = 1 first)
_DELTA = Fraction(3, 4)
_SHIFT_DEGREE = 2


def _validate_matrix(basis: IntegerMatrix) -> int:
    if not basis:
        raise ValueError("matrix must have at least one row")
    width = len(basis[0])
    if width == 0 or any(len(row) != width for row in basis):
        raise ValueError("matrix rows must be nonempty and equal-length")
    return width


def _lovasz_swap(a: int, c: int, m: int, l: int) -> bool:
    """4*a*c < 3*m*m - 4*l*l, for a, c, m > 0 and 2*|l| <= m.

    This is the exact loop's swap test, the Lovasz condition at delta = 3/4
    failing (a, c, m = d[k+1], d[k-1], d[k] and l = lam[k][k-1] of the
    size-reduced row k).  The answer is always the integer comparison's, but
    the products of numbers of thousands of bits are only formed when two
    cheaper screens leave the test open.
    """
    # Bit lengths: the right side lies in [2 m^2, 3 m^2], inside
    # [2^(2M-1), 2^(2M+2)), and the left side in [2^A, 2^(A+2)).
    M = m.bit_length()
    A = a.bit_length()
    C = c.bit_length()
    span = A + C - 2 * M
    if span <= -3:
        return True
    if span >= 2:
        return False
    # Doubles, from the top 60 bits of a, c and m; l shares m's shift.  Let
    # u = 2^-53 and scale both sides by 2^-2em, so m' = m 2^-em < 2^60 and,
    # with |span| <= 2, the left side L' < 2^123: nothing overflows.  A
    # truncated operand errs by less than 2^-59 of itself (its kept part is
    # at least 2^59, unless nothing was cut) and float() adds u, so the left
    # side, two operands and one rounded product, errs by under 3.1u.  On
    # the right, 3 m'^2 errs by under 4.1u (two roundings more), and 4 l'^2
    # by under 3.2u of m'^2: three roundings of a term at most m'^2, as
    # |l'| <= m'/2, plus the floor of l', off by less than 1, which moves
    # 4 l'^2 by at most 4(m' + 1) < 2^-56 m'^2 when m' >= 2^59 (and by
    # nothing when em = 0).  As the right side R' is at least 2 m'^2, its
    # terms err by under (12.3u + 3.2u) / 2 < 7.8u of R', 8.8u after the
    # subtraction rounds.  So the doubles lhs, rhs miss the true sides by
    # under 2^-49 (lhs + rhs) <= 2^-48 lhs + 2^-49 |lhs - rhs|, which is less
    # than |lhs - rhs| once that exceeds 2^-40 lhs: the sign of lhs - rhs is
    # then the integers'.  Closer ties go to the integers.
    ea = A - 60 if A > 60 else 0
    ec = C - 60 if C > 60 else 0
    em = M - 60 if M > 60 else 0
    lhs = ldexp(4 * float(a >> ea) * float(c >> ec), ea + ec - 2 * em)
    fm = float(m >> em)
    fl = float(l >> em)
    rhs = 3 * fm * fm - 4 * fl * fl
    if abs(lhs - rhs) > lhs * 2**-40:
        return lhs < rhs
    return 4 * a * c < 3 * m * m - 4 * l * l


def lll_reduce(
    basis: IntegerMatrix,
    *,
    stop: Callable[[IntegerMatrix, int], bool] | None = None,
) -> IntegerMatrix:
    """LLL-reduce a basis of row vectors with the all-integer LLL.

    Gram determinants d_k and scaled Gram-Schmidt coefficients lam stay
    integral throughout, so the returned basis spans the same lattice
    (unimodular row transform), is size-reduced (|mu_ij| <= 1/2) and
    satisfies the Lovasz condition with delta = _DELTA, exactly.  The swap
    test is _lovasz_swap, which answers as the integer comparison does but
    mostly from bit lengths and doubles.  Raises DependentRows if the rows
    are not independent.

    stop, if given, is called as stop(b, k) each time the loop first
    reaches row k (k = 1..n-1, in order).  At that point rows 0..k-1 of b
    are LLL-reduced and every row of b is a lattice vector, since only
    unimodular operations were applied; if stop returns True, b is returned
    as it stands, a basis of the input lattice whose first k rows are
    reduced.
    """
    _validate_matrix(basis)
    b = [[int(x) for x in row] for row in basis]
    n = len(b)
    d = [0] * (n + 1)  # d[k] = Gram determinant of the first k rows
    d[0] = 1
    lam = [[0] * n for _ in range(n)]  # lam[i][j] = d[j+1] * mu[i][j]

    def init_row(k: int) -> None:
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u <= 0:
                raise DependentRows("rows are linearly dependent")
            else:
                d[k + 1] = u

    def size_reduce(k: int, l: int) -> None:
        lkl, dl = lam[k][l], d[l + 1]
        if 2 * abs(lkl) > dl:
            q = (2 * lkl + dl) // (2 * dl) if lkl >= 0 else -((-2 * lkl + dl) // (2 * dl))
            bl = b[l]
            b[k] = [x - q * y for x, y in zip(b[k], bl)]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]
            lam[k][l] -= q * dl

    init_row(0)
    k = 1
    kmax = 0
    while k < n:
        if k > kmax:
            if stop is not None and stop(b, k):
                return b
            kmax = k
            init_row(k)
        while True:
            size_reduce(k, k - 1)
            if _lovasz_swap(d[k + 1], d[k - 1], d[k], lam[k][k - 1]):
                # swap rows k-1, k and patch the integral GS data
                b[k - 1], b[k] = b[k], b[k - 1]
                for j in range(k - 1):
                    lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
                lbar = lam[k][k - 1]
                dnew = (d[k - 1] * d[k + 1] + lbar * lbar) // d[k]
                for i in range(k + 1, kmax + 1):
                    t = lam[i][k]
                    lam[i][k] = (d[k + 1] * lam[i][k - 1] - lbar * t) // d[k]
                    lam[i][k - 1] = (dnew * t + lbar * lam[i][k]) // d[k + 1]
                d[k] = dnew
                k = max(1, k - 1)
            else:
                break
        for l in range(k - 2, -1, -1):
            size_reduce(k, l)
        k += 1
    return b


def integer_row_basis(rows: IntegerMatrix) -> IntegerMatrix:
    """Echelon basis of the lattice generated by possibly dependent rows.

    Uses only unimodular operations (swaps, integer row additions) plus
    removal of zero rows, so the span is preserved exactly.  The solver
    writes its basis down in closed form; this is the oracle it is checked
    against.
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][c]))
            piv = mat[i0][c]
            zeroed = False
            for i in nz:
                if i == i0:
                    continue
                q = mat[i][c] // piv
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[i0])]
                    zeroed = zeroed or not any(mat[i])
            if zeroed:
                mat = [row for row in mat if any(row)]
            if r >= len(mat):
                break
        nz = [i for i in range(r, len(mat)) if mat[i][c] != 0]
        if not nz:
            continue
        mat[r], mat[nz[0]] = mat[nz[0]], mat[r]
        r += 1
    return mat[:r]


def _det(m: IntegerMatrix) -> int:
    """Integer determinant via the polynomial Bareiss on constant entries."""
    det = bareiss_det([[[v] if v else [] for v in row] for row in m])
    return det[0] if det else 0


def gram_det(rows: IntegerMatrix) -> int:
    """Determinant of the Gram matrix B*B^T (squared lattice covolume)."""
    gram = [[sum(x * y for x, y in zip(u, v)) for v in rows] for u in rows]
    return _det(gram)


def _fraction_gs(
    rows: IntegerMatrix,
) -> tuple[list[list[Fraction]], list[list[Fraction]], list[Fraction]]:
    n = len(rows)
    bstar: list[list[Fraction]] = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms: list[Fraction] = []
    for i in range(n):
        v = [Fraction(x) for x in rows[i]]
        for j in range(i):
            if norms[j] == 0:
                raise DependentRows("rows are linearly dependent")
            mu_ij = sum(Fraction(a) * c for a, c in zip(rows[i], bstar[j])) / norms[j]
            mu[i][j] = mu_ij
            v = [a - mu_ij * c for a, c in zip(v, bstar[j])]
        bstar.append(v)
        norms.append(sum(x * x for x in v))
    return bstar, mu, norms


def _solve_rational(
    a: list[list[Fraction]], rhs: list[list[Fraction]]
) -> list[list[Fraction]]:
    """Solutions x of a x = r for every right-hand side r in rhs, by one
    Gauss-Jordan elimination of a augmented with all of them."""
    n = len(a)
    m = [row[:] + [r[i] for r in rhs] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise DependentRows("singular system")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return [[m[i][n + k] for i in range(n)] for k in range(len(rhs))]


def check_reduction(original: IntegerMatrix, reduced: IntegerMatrix) -> list[str]:
    """Re-derive every property a reduced basis must satisfy; return the list
    of violations (empty list means the output certifies).

    Checks: same lattice via an integer transform of determinant +-1, Gram
    determinant preservation, exact size reduction, exact Lovasz condition
    at delta = _DELTA = 3/4, and the first-vector bound ||b1|| <=
    alpha^((n-1)/4) * det^(1/n) with alpha = 4/(4*delta - 1) = 2, compared
    in integers after raising to the 4n-th power.
    """
    problems: list[str] = []
    if len(original) != len(reduced):
        return ["row count changed"]
    n = len(original)
    g_in = gram_det(original)
    g_out = gram_det(reduced)
    if g_in != g_out:
        problems.append(f"Gram determinant changed: {g_in} -> {g_out}")
    # transform: U with U * original = reduced, entries integral, det = +-1
    gram = [
        [Fraction(sum(x * y for x, y in zip(u, v))) for v in original]
        for u in original
    ]
    rhs = [
        [Fraction(sum(x * y for x, y in zip(row, v))) for v in original]
        for row in reduced
    ]
    try:
        transform = _solve_rational(gram, rhs)
    except DependentRows:
        problems.append("original rows are dependent; transform undefined")
        transform = []
    if transform:
        if any(c.denominator != 1 for trow in transform for c in trow):
            problems.append("reduced rows are not integer combinations of input")
        else:
            u_int = [[int(c) for c in trow] for trow in transform]
            det_u = _det(u_int)
            if det_u not in (1, -1):
                problems.append(f"transform determinant is {det_u}, not +-1")
    try:
        _, mu, norms = _fraction_gs(reduced)
    except DependentRows:
        problems.append("reduced rows are dependent")
        return problems
    for i in range(n):
        for j in range(i):
            if abs(mu[i][j]) > Fraction(1, 2):
                problems.append(f"size reduction violated at mu[{i}][{j}]")
    for k in range(1, n):
        if norms[k] < (_DELTA - mu[k][k - 1] ** 2) * norms[k - 1]:
            problems.append(f"Lovasz condition violated at row {k}")
    b1_sq = sum(x * x for x in reduced[0])
    # ||b1||^(4n) <= alpha^(n(n-1)) det^4, with alpha = 2 and det^4 = g_out^2
    if g_out > 0 and b1_sq ** (2 * n) > 2 ** (n * (n - 1)) * g_out**2:
        problems.append("first vector exceeds the alpha^((n-1)/4) det^(1/n) bound")
    return problems


# ---------------------------------------------------------------------------
# bivariate small roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoppersmithResult:
    """Roots found, the bound margin of the call, and whether the result is
    certified: a pass found a short-enough independent h, which vanishes at
    every root in the box, and every integer root of its resultant was
    found, so the root list is complete for the box."""

    roots: list[tuple[int, int]]
    margin_bits: float
    certified: bool


def _back_substitute(f: BilinearPoly, y: int) -> int | None:
    """The integer x with f(x, y) = 0, if there is one."""
    lead = f.c3 * y + f.c2
    if lead == 0:
        return None
    x, r = divmod(-(f.c1 * y + f.c0), lead)
    return None if r else x


def _is_root_in_box(f: BilinearPoly, x: int, y: int, X: int, Y: int) -> bool:
    return abs(x) <= X and abs(y) <= Y and f.evaluate(x, y) == 0


def _lattice_pass(
    f: BilinearPoly, X: int, Y: int, m: int
) -> tuple[set[tuple[int, int]], bool, bool]:
    """One build-reduce-extract pass at shift degree m, on a lattice of
    dimension (m + 2)^2.  Returns (roots, saw_independent_h, certified)."""
    # The pass works on f's primitive part, which has f's roots.  At a
    # modulus that is a multiple of the content, f's lattice is the content
    # times the primitive part's, so a pass on f and one on f / content
    # agree; a modulus coprime to f's own c3 would be about the content
    # times larger, and would not.
    c3, c2, c1, c0 = f.coefficients()
    content = gcd(c3, c2, c1, c0)
    c3, c2, c1, c0 = c3 // content, c2 // content, c1 // content, c0 // content
    # from the leading monomial down: x^a y^b f pivots on x^(a+1) y^(b+1),
    # or on x^(a+1) y^b when c3 = 0 (then c2 != 0, f being irreducible)
    mons = [(i, j) for i in range(m + 1, -1, -1) for j in range(m + 1, -1, -1)]
    midx = {mn: t for t, mn in enumerate(mons)}
    D = len(mons)
    scale = [X**i * Y**j for (i, j) in mons]
    W = max(abs(c3) * X * Y, abs(c2) * X, abs(c1) * Y, abs(c0))
    # Coron's working modulus: the least n_mod >= max(W, 2) (XY)^m coprime to
    # the pivot coefficient, found by stepping n_mod itself (steps of (XY)^m
    # never reach one when X or Y shares a factor with it)
    lead, pj = (c3, 1) if c3 else (c2, 0)
    n_mod = max(W, 2) * (X * Y) ** m
    while gcd(lead, n_mod) != 1:
        n_mod += 1
    inv = pow(lead, -1, n_mod)
    terms = []  # f / lead mod n_mod: (di, dj, coefficient in (-n_mod/2, n_mod/2])
    for di, dj, c in ((1, 1, c3), (1, 0, c2), (0, 1, c1), (0, 0, c0)):
        r = c * inv % n_mod
        if r:
            terms.append((di, dj, r - n_mod if 2 * r > n_mod else r))
    # The lattice of the shifts x^a y^b f plus n_mod times every monomial,
    # columns scaled, has this triangular basis: a pivot monomial gets its
    # shift divided by lead mod n_mod (pivot scale[t]), every other monomial
    # n_mod scale[t].  Last pivot first: each row adds one coordinate, so GS
    # norms start at the pivots.
    basis: IntegerMatrix = []
    for t in range(D - 1, -1, -1):
        i, j = mons[t]
        a, b = i - 1, j - pj
        row = [0] * D
        if a >= 0 and 0 <= b <= m:
            for di, dj, r in terms:
                u = midx[(a + di, b + dj)]
                row[u] = r * scale[u]
        else:
            row[t] = n_mod * scale[t]
        basis.append(row)
    # R(y) = A^(m+1) h(-C/A, y) for f = A x + C vanishes identically when h is
    # a multiple of f; R(0) = sum_i h_{i,0} (-c0)^i c2^(m+1-i) is read off
    # h's y^0 coefficients, which sit in columns (i, 0), scaled by X^i
    r0_terms = [
        (midx[(i, 0)], X**i, (-c0) ** i * c2 ** (m + 1 - i)) for i in range(m + 2)
    ]
    tested: dict[int, tuple[list[int], bool]] = {}  # id -> (row, certifies)
    hit: IntegerMatrix = []

    def certifies(b: IntegerMatrix, k: int) -> bool:
        # a short row with R(0) != 0 is independent of f and vanishes at every
        # root in the box; LLL replaces every row it changes, so each row
        # object is tested once (kept alive in tested, so ids are not reused)
        for row in b[:k]:
            seen = tested.get(id(row))
            if seen is None:
                ok = (
                    sum(map(abs, row)) < n_mod
                    and sum(row[t] // s * w for t, s, w in r0_terms) != 0
                )
                seen = tested[id(row)] = (row, ok)
            if seen[1]:
                hit.append(row)
                return True
        return False

    reduced = lll_reduce(basis, stop=certifies)
    fx = [[c0, c1], [c2, c3]]  # f as a poly in x over Z[y]
    roots: set[tuple[int, int]] = set()
    saw_independent = False
    # after an early stop, the certifying row alone gives the complete roots
    for row in hit or reduced:
        # every basis row's column t is a multiple of scale[t], so every row's is
        coeffs = {mn: row[t] // scale[t] for t, mn in enumerate(mons)}
        hx: list[Poly] = [
            ptrim([coeffs.get((i, j), 0) for j in range(m + 2)])
            for i in range(m + 2)
        ]
        res_y = sylvester_resultant(fx, hx)
        if not res_y:
            continue  # h is a multiple of f
        saw_independent = True
        certified = sum(abs(v) for v in row) < n_mod
        # every root's y is a root of res_y, and f is linear in x with
        # leading coefficient c3*y + c2, which vanishes at no root of an
        # irreducible f, so back-substitution recovers every x
        for y in integer_roots(res_y, Y):
            x = _back_substitute(f, y)
            if x is not None and _is_root_in_box(f, x, y, X, Y):
                roots.add((x, y))
        if certified:
            # a short independent h vanishes at every root in the box, so the
            # extraction above is provably complete: stop here
            return roots, True, True
    return roots, saw_independent, False


def _recentered(f: BilinearPoly, cx: int, cy: int) -> BilinearPoly:
    """f(x + cx, y + cy)."""
    return BilinearPoly(
        f.c3,
        f.c2 + f.c3 * cy,
        f.c1 + f.c3 * cx,
        f.evaluate(cx, cy),
    )


# Every box follows its bound margin (bits, bound_margin on the box in
# hand).  At or above this margin a degree-1 pass (9 dims) runs first, and
# the degree-2 pass only when it does not certify; below it a box that can
# split goes to its quadrants before its own pass.
# Every box the pass-first schedule (one pass at degree 2, then the split)
# visits on solver corpus seeds 1-5, each re-run at both degrees; the time
# ratio is summed over the band (2-core x86-64, CPython 3.11):
#   margin    deg-1 certifies  deg-2 certifies  deg-1 / deg-2 time
#   < 3.5         0/294            0/294             0.21
#   3.5-4       113/1013         368/1013            0.24
#   4-4.5       244/622          590/622             0.38
#   4.5-5       558/579          579/579             0.49
#   >= 5       1588/1588        1588/1588            0.48
# Solver seeds 1-2 in-process, best of 5, with separate degree-1 and split
# thresholds on {4.0, 4.5, 5.0}: 4.5 for both took 2.60 s, the other eight
# pairs 2.86-3.46 s.  The quadrants at the last level on seeds 1-5 (3,840,
# closed-form basis), each re-run at both degrees, all sit at >= 4.5 bits:
#   4.5-5       823/831          831/831             0.54
#   >= 5       3009/3009        3009/3009            0.68
# so such a quadrant tries degree 1 first, and so does every other box that
# cannot split: of 400 planted recenter_depth=0 calls (18-33 bits, boxes 1-4
# times the root's), the 47 at >= 4.5 bits certified 30 times at degree 1
# alone and kept every root and certificate of their one degree-2 pass.
_SCHEDULE_MARGIN_BITS = 4.5


def _solve_box(
    f: BilinearPoly, X: int, Y: int, depth: int, state: dict
) -> tuple[set[tuple[int, int]], bool]:
    """Returns (verified roots, resolved).  resolved means a certified pass
    covered this whole box (directly or via all sub-boxes).

    One rule for every box.  At or above _SCHEDULE_MARGIN_BITS a degree-1
    pass runs first, and the box is resolved by it if it certifies;
    otherwise the degree-2 pass runs and, if it neither certifies nor finds
    a root, the box splits where it can.  Below it, a box that can split
    sends its quadrants first; unless they all resolve, the box's own
    degree-2 pass runs and its roots join theirs.  Either way the result
    holds every root that one degree-2 pass followed by the split on failure
    finds, and is resolved whenever that is.
    """

    def run(m: int) -> tuple[set[tuple[int, int]], bool]:
        roots, indep, certified = _lattice_pass(f, X, Y, m)
        state["independent"] = state["independent"] or indep
        return roots, certified

    def split() -> tuple[set[tuple[int, int]], bool]:
        # the four quadrants, one level deeper: their roots, all resolved
        union: set[tuple[int, int]] = set()
        all_resolved = True
        for cx in sorted({-(X - hx), X - hx}):
            for cy in sorted({-(Y - hy), Y - hy}):
                sub_roots, sub_resolved = _solve_box(
                    _recentered(f, cx, cy), hx, hy, depth - 1, state
                )
                all_resolved = all_resolved and sub_resolved
                for (x, y) in sub_roots:
                    if _is_root_in_box(f, x + cx, y + cy, X, Y):
                        union.add((x + cx, y + cy))
        return union, all_resolved

    hx = (X + 1) // 2 if X > 1 else X
    hy = (Y + 1) // 2 if Y > 1 else Y
    splits = depth > 0 and (hx < X or hy < Y)
    # A box that can split is wider than 1 on some side, so its height is
    # at least 2 and its margin defined: an f of height below 2 there would
    # have c3 = 0 and c1 or c2 = 0, so c1*c2 = c0*c3 (recentering keeps
    # c1*c2 - c0*c3), and coppersmith_bivariate rejects such an f as
    # reducible.  A quadrant that cannot split may have height 1 (the 1x1
    # quadrants of xy - 1 at X = Y = 2); it counts as low-margin.
    box = RootBounds(X, Y)
    high = (
        poly_height(f, box) >= 2 and bound_margin(f, box) >= _SCHEDULE_MARGIN_BITS
    )
    if splits and not high:
        union, all_resolved = split()
        if all_resolved:
            return union, True
        roots, certified = run(_SHIFT_DEGREE)
        return roots | union, certified
    if high:
        roots, certified = run(1)
        if certified:
            return roots, True
    roots, certified = run(_SHIFT_DEGREE)
    if certified or roots or not splits:
        return roots, certified
    return split()


def coppersmith_bivariate(
    f: BilinearPoly, b: RootBounds, *, recenter_depth: int = 2
) -> CoppersmithResult:
    """All integer roots of f the lattice machinery can find inside the box.

    Every returned pair satisfies f(x, y) = 0 exactly with |x| <= X and
    |y| <= Y.  When the result is certified the list is complete for the
    box; otherwise completeness follows the bound margin empirically and the
    return may be partial.  Passes run on the closed-form triangular basis,
    and boxes split into quadrants recenter_depth levels deep.  Every box,
    this one included, follows one rule: at or above _SCHEDULE_MARGIN_BITS
    of margin a degree-1 pass, then the degree-2 pass, then the split where
    depth is left; below it the split first, then the box's own degree-2
    pass.  So recenter_depth=0 gives a low-margin box one 16-dim pass, and
    a high-margin box a 9-dim pass first.
    Raises ReducibleInput for reducible f and LatticeFailure when no pass
    yields roots or a certificate (callers fall back to sweeping).
    """
    if is_reducible(f):
        raise ReducibleInput("f must be irreducible (c0*c3 != c1*c2)")
    margin = bound_margin(f, b)
    state = {"independent": False}
    roots, resolved = _solve_box(f, b.X, b.Y, recenter_depth, state)
    if roots or resolved:
        return CoppersmithResult(sorted(roots), margin, resolved)
    raise LatticeFailure(
        f"no roots and no completeness certificate at margin "
        f"{margin:+.2f} bits (independent h seen: {state['independent']})",
        margin,
    )


def exhaustive_roots(f: BilinearPoly, b: RootBounds) -> list[tuple[int, int]]:
    """Ground-truth enumeration: every (x, y) in the box with f(x, y) = 0.

    Cost is O(X) (linear solve in y per x) except for degenerate columns.
    Refuses boxes with more than 2**28 points.
    """
    if (2 * b.X + 1) * (2 * b.Y + 1) > 1 << 28:
        raise BoundsTooLarge("search box exceeds 2**28 points")
    out: list[tuple[int, int]] = []
    for x in range(-b.X, b.X + 1):
        lead = f.c3 * x + f.c1
        rhs = -(f.c2 * x + f.c0)
        if lead == 0:
            if rhs == 0:  # whole column of roots
                out.extend((x, y) for y in range(-b.Y, b.Y + 1))
            continue
        y, r = divmod(rhs, lead)
        if r == 0 and -b.Y <= y <= b.Y:
            out.append((x, y))
    return sorted(set(out))
