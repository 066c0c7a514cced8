import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import harness, lattice
from factorlab.lattice import (
    BoundsTooLarge,
    DependentRows,
    LatticeFailure,
    ReducibleInput,
    check_reduction,
    coppersmith_bivariate,
    exhaustive_roots,
    gram_det,
    integer_row_basis,
    lll_reduce,
)
from factorlab.ntheory import PrimeModulus, next_prime, select_modulus, iroot
from factorlab.polybuild import (
    BilinearPoly,
    FactorCenter,
    PartialResidue,
    RootBounds,
    bound_margin,
    build_polynomial,
    is_reducible,
    poly_height,
    solve_companion_residue,
)

WORKED = BilinearPoly(25, 540, 540, 25)


def _lll_bases(monkeypatch):
    """Spy on lattice.lll_reduce: the list returned collects a copy of each
    call's basis."""
    bases = []
    real = lattice.lll_reduce

    def spy(basis, **kw):
        bases.append([row[:] for row in basis])
        return real(basis, **kw)

    monkeypatch.setattr(lattice, "lll_reduce", spy)
    return bases


def _lll_dims(bases):
    """The dimension of each basis the spy recorded."""
    return [len(b) for b in bases]


def test_lll_identity_fixed_point():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert lll_reduce(eye) == eye


def test_lll_two_dim_gauss():
    reduced = lll_reduce([[1, 0], [10, 1]])
    assert check_reduction([[1, 0], [10, 1]], reduced) == []
    assert max(abs(x) for row in reduced for x in row) <= 1


def test_lll_dependent_rows_rejected():
    with pytest.raises(DependentRows):
        lll_reduce([[1, 2], [2, 4]])
    with pytest.raises(DependentRows):
        lll_reduce([[0, 0], [1, 2]])


def test_lll_random_bases_pass_all_checks():
    rng = random.Random(12345)
    for trial in range(60):
        n = 2 + trial % 7
        basis = [
            [rng.randrange(-(1 << 40), 1 << 40) for _ in range(n)] for _ in range(n)
        ]
        try:
            reduced = lll_reduce(basis)
        except DependentRows:
            continue
        assert check_reduction(basis, reduced) == []


def test_lll_rectangular_basis():
    basis = [[3, 1, 4, 1], [5, 9, 2, 6]]
    reduced = lll_reduce(basis)
    assert check_reduction(basis, reduced) == []
    assert gram_det(basis) == gram_det(reduced)


@st.composite
def _bases(draw):
    """Integer bases of 2..6 rows, up to 6 columns and entries of up to 900
    bits, so that Gram entries pass the double range (2**1024)."""
    n = draw(st.integers(2, 6))
    width = draw(st.integers(n, 6))
    bits = draw(st.integers(1, 900))
    entry = st.integers(-(1 << bits), 1 << bits)
    row = st.lists(entry, min_size=width, max_size=width)
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(deadline=None)
@given(_bases())
def test_lll_output_passes_check_reduction(basis):
    if gram_det(basis) == 0:
        with pytest.raises(DependentRows):
            lll_reduce(basis)
        return
    assert check_reduction(basis, lll_reduce(basis)) == []


@settings(deadline=None)
@given(_bases(), st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_lll_dependent_rows_still_rejected(basis, coeffs):
    combo = [sum(c * row[t] for c, row in zip(coeffs, basis)) for t in range(len(basis[0]))]
    with pytest.raises(DependentRows):
        lll_reduce(basis + [combo])


@pytest.mark.parametrize("dim", range(6, 13))
@pytest.mark.parametrize("seed", range(2))
def test_lll_knapsack_bases_pass_check_reduction(dim, seed):
    # [I | M*a_i] with a_i of 300-600 bits: entries from 1 up to ~620 bits,
    # far from reduced as drawn, unlike uniform random square bases
    rng = random.Random(1000 * dim + seed)
    M = 1 << 20
    basis = [
        [int(i == j) for j in range(dim)] + [M * rng.getrandbits(rng.randint(300, 600))]
        for i in range(dim)
    ]
    reduced = lll_reduce(basis)
    assert check_reduction(basis, reduced) == []
    assert max(abs(v).bit_length() for row in reduced for v in row) < 320


def test_check_reduction_flags_bad_output():
    # one case for each problem the checker can report
    cases = [
        ([[1, 0], [0, 1]], [[1, 0]], ["row count changed"]),
        # was certified: zip truncated the input to the reduced width
        ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1]], ["row width changed"]),
        (
            [[1, 2], [2, 4]],
            [[1, 2], [2, 4]],
            [
                "original rows are dependent; transform undefined",
                "reduced rows are dependent",
            ],
        ),
        (
            [[1, 0], [0, 1]],
            [[1, 0], [1, 0]],
            [
                "Gram determinant changed: 1 -> 0",
                "transform determinant is +-0, not +-1",
                "reduced rows are dependent",
            ],
        ),
        # wrong lattice entirely: identity is not inside 2Z x 3Z
        (
            [[2, 0], [0, 3]],
            [[1, 0], [0, 1]],
            [
                "Gram determinant changed: 36 -> 1",
                "reduced rows are not integer combinations of input",
            ],
        ),
        # a row outside the input's span, although its projection onto it has
        # integer coordinates
        (
            [[1, 0, 0], [0, 1, 0]],
            [[1, 0, 1], [0, 1, 0]],
            [
                "Gram determinant changed: 1 -> 2",
                "reduced rows are not integer combinations of input",
                "Lovasz condition violated at row 1",
            ],
        ),
        # sublattice of index 2: transform determinant is not +-1
        (
            [[1, 0], [0, 1]],
            [[2, 0], [0, 1]],
            [
                "Gram determinant changed: 1 -> 4",
                "transform determinant is +-2, not +-1",
                "Lovasz condition violated at row 1",
                "first vector exceeds the alpha^((n-1)/4) det^(1/n) bound",
            ],
        ),
        # same lattice (det 1) but the rows are far from size-reduced
        (
            [[7, 3], [2, 1]],
            [[7, 3], [9, 4]],
            [
                "size reduction violated at mu[1][0]",
                "first vector exceeds the alpha^((n-1)/4) det^(1/n) bound",
            ],
        ),
        # |b2*|^2 = 2 < 3/4 |b1|^2 = 3, while |b1|^8 = 256 = 2^2 det^4
        (
            [[2, 0, 0], [0, 1, 1]],
            [[2, 0, 0], [0, 1, 1]],
            ["Lovasz condition violated at row 1"],
        ),
    ]
    for original, reduced, problems in cases:
        assert check_reduction(original, reduced) == problems


def test_checker_rejects_malformed_bases():
    with pytest.raises(ValueError):
        check_reduction([], [])  # was an IndexError
    with pytest.raises(ValueError):
        check_reduction([[1, 0], [0, 1]], [[1, 0], [1]])
    with pytest.raises(ValueError):
        gram_det([[1, 2], [3]])  # was 36


def _fraction_gs(rows):
    """Gram-Schmidt in Fractions: (b*, mu, |b*|^2); DependentRows if a
    later row meets a zero b*."""
    n = len(rows)
    bstar = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
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


def _solve_rational(a, rhs):
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


def _fraction_det(m):
    """Determinant by Gaussian elimination in Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def _fraction_gram(us, vs):
    return [[Fraction(sum(x * y for x, y in zip(u, v))) for v in vs] for u in us]


def _fraction_check(original, reduced):
    """The rational checker: the transform solved from the Gram system by
    Gauss-Jordan, Gram-Schmidt and every test in Fractions."""
    n = len(original)
    gram_in = _fraction_gram(original, original)
    g_in = _fraction_det(gram_in)
    g_out = _fraction_det(_fraction_gram(reduced, reduced))
    problems = []
    if g_in != g_out:
        problems.append("Gram determinant changed")
    try:
        transform = _solve_rational(gram_in, _fraction_gram(reduced, original))
    except DependentRows:
        problems.append("original rows are dependent")
        transform = []
    if transform:
        if any(c.denominator != 1 for trow in transform for c in trow):
            problems.append("not integer combinations")
        elif _fraction_det(transform) not in (1, -1):
            problems.append("transform determinant")
    try:
        _, mu, norms = _fraction_gs(reduced)
    except DependentRows:
        return problems + ["reduced rows are dependent"]
    for i in range(n):
        for j in range(i):
            if abs(mu[i][j]) > Fraction(1, 2):
                problems.append(f"size reduction violated at mu[{i}][{j}]")
    for k in range(1, n):
        if norms[k] < (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            problems.append(f"Lovasz condition violated at row {k}")
    b1_sq = sum(x * x for x in reduced[0])
    if g_out > 0 and b1_sq ** (2 * n) > 2 ** (n * (n - 1)) * g_out**2:
        problems.append("first vector exceeds the alpha^((n-1)/4) det^(1/n) bound")
    return problems


def _corruptions(basis, reduced, rng):
    """The output itself, the input, and copies of the output with one
    fault each."""
    n, width = len(reduced), len(reduced[0])
    i, j = rng.sample(range(n), 2)
    out = [reduced, basis]
    for edit in range(6):
        b = [row[:] for row in reduced]
        if edit == 0:
            b[i], b[j] = b[j], b[i]
        elif edit == 1:
            b[i] = [x + 3 * y for x, y in zip(b[i], b[j])]
        elif edit == 2:
            b[i] = b[j][:]
        elif edit == 3:
            b[i] = [2 * x for x in b[i]]
        elif edit == 4:
            b[i] = [-x for x in b[i]]
        else:
            step = rng.choice((1, 2 ** rng.randrange(1, 40)))
            b[i][rng.randrange(width)] += rng.choice((step, -step))
        out.append(b)
    return out


def test_check_reduction_agrees_with_the_fraction_checker():
    # LLL outputs of uniform and knapsack bases, and corruptions of each:
    # the integer checker flags a basis exactly when the rational one does,
    # with the same size-reduction, Lovasz and bound findings
    rng = random.Random(2025)
    cases = flagged = 0
    for trial in range(80):
        n = rng.randrange(2, 9)
        bits = rng.randrange(3, 201)
        if trial % 2 == 0:
            width = n + rng.randrange(3)
            basis = [
                [rng.randrange(-(1 << bits), 1 << bits) for _ in range(width)]
                for _ in range(n)
            ]
        else:
            extra = rng.randrange(1, 3)
            basis = [
                [int(i == j) for j in range(n)]
                + [rng.getrandbits(bits) for _ in range(extra)]
                for i in range(n)
            ]
        reduced = lll_reduce(basis)
        for candidate in _corruptions(basis, reduced, rng):
            ours = check_reduction(basis, candidate)
            theirs = _fraction_check(basis, candidate)
            assert bool(ours) == bool(theirs), (basis, candidate, ours, theirs)
            # the rational Gram-Schmidt goes on past a dependent last row
            if "reduced rows are dependent" not in ours:
                own = ("size", "Lovasz", "first")
                assert [p for p in ours if p.startswith(own)] == [
                    p for p in theirs if p.startswith(own)
                ]
            cases += 1
            flagged += bool(ours)
    assert 0 < flagged < cases


def _echelon_member(basis, row):
    """Exact lattice-membership test against an echelon basis with strictly
    increasing pivot columns."""
    work = list(row)
    for brow in basis:
        piv = next(i for i, v in enumerate(brow) if v)
        if any(work[:piv]):
            return False
        q, r = divmod(work[piv], brow[piv])
        if r:
            return False
        if q:
            work = [a - q * b for a, b in zip(work, brow)]
    return not any(work)


def test_integer_row_basis_spans_same_lattice():
    rng = random.Random(77)
    for _ in range(60):
        rows = [
            [rng.randrange(-50, 51) for _ in range(4)]
            for _ in range(rng.randrange(2, 7))
        ]
        basis = integer_row_basis(rows)
        if not basis:
            assert all(not any(r) for r in rows)
            continue
        # pivots strictly increase (echelon shape)
        pivots = [next(i for i, v in enumerate(b) if v) for b in basis]
        assert pivots == sorted(set(pivots))
        # every generator lies in the basis span, with integer coordinates
        for row in rows:
            assert _echelon_member(basis, row)
        # and every basis row is an integer combination of the generators:
        # gram determinants of the two spans then necessarily agree
        ext = integer_row_basis(rows + basis)
        assert gram_det(ext) == gram_det(basis)


def test_gram_det_invariance_under_unimodular():
    basis = [[4, 1, 0], [1, 3, 2], [0, 5, 7]]
    mixed = [
        basis[0],
        [a + 3 * b for a, b in zip(basis[1], basis[0])],
        [a - 2 * c for a, c in zip(basis[2], basis[1])],
    ]
    assert gram_det(basis) == gram_det(mixed)


def test_exhaustive_roots_worked_instance():
    roots = exhaustive_roots(WORKED, RootBounds(22, 22))
    assert roots == [(-1, 1), (1, -1)]


def test_exhaustive_roots_degenerate_column():
    # (x+1)(y+1): column x = -1 and row y = -1 inside |x|,|y| <= 3
    f = BilinearPoly(1, 1, 1, 1)
    roots = exhaustive_roots(f, RootBounds(3, 3))
    assert len(roots) == 13
    assert all(f.evaluate(x, y) == 0 for x, y in roots)


def test_exhaustive_roots_empty():
    assert exhaustive_roots(BilinearPoly(25, 540, 540, 26), RootBounds(2, 2)) == []


def test_exhaustive_roots_guard():
    with pytest.raises(BoundsTooLarge):
        exhaustive_roots(WORKED, RootBounds(1 << 14, 1 << 14))


def test_coppersmith_worked_instance_tight_bounds():
    res = coppersmith_bivariate(WORKED, RootBounds(4, 4))
    assert res.roots == [(-1, 1), (1, -1)]
    assert res.certified
    assert abs(res.margin_bits - 3.385) < 5e-3


def test_coppersmith_worked_instance_boundary_bounds():
    # margin ~ +0.12 bits: the box splits first, and its quadrants certify
    # the complete root list
    res = coppersmith_bivariate(WORKED, RootBounds(22, 22))
    assert res.roots == [(-1, 1), (1, -1)] == exhaustive_roots(WORKED, RootBounds(22, 22))
    assert res.certified


def test_coppersmith_origin_root():
    f = BilinearPoly(7, 3, 5, 0)
    res = coppersmith_bivariate(f, RootBounds(3, 3))
    assert (0, 0) in res.roots
    assert res.roots == exhaustive_roots(f, RootBounds(3, 3))


def test_coppersmith_rejects_reducible():
    with pytest.raises(ReducibleInput):
        coppersmith_bivariate(BilinearPoly(1, 1, 1, 1), RootBounds(3, 3))


def test_coppersmith_soundness_any_margin():
    rng = random.Random(99)
    for _ in range(25):
        f = BilinearPoly(
            rng.randrange(1, 50),
            rng.randrange(-2000, 2000),
            rng.randrange(-2000, 2000),
            rng.randrange(-5000, 5000),
        )
        try:
            if (f.c3, f.c2, f.c1, f.c0) == (0, 0, 0, 0) or f.c0 * f.c3 == f.c1 * f.c2:
                continue
            res = coppersmith_bivariate(f, RootBounds(64, 64), recenter_depth=1)
        except LatticeFailure:
            continue
        for (x, y) in res.roots:
            assert f.evaluate(x, y) == 0
            assert abs(x) <= 64 and abs(y) <= 64


def planted_instance(rng, bits):
    """A planted f with its root (x1, y1) and its modulus B."""
    half = bits // 2
    while True:
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
        return f, x1, y1, B.value


def test_coppersmith_completeness_at_margin_two_sampled():
    rng = random.Random(424242)
    done = 0
    while done < 30:
        f, x1, y1, _B = planted_instance(rng, rng.randrange(18, 34))
        base = max(abs(x1), abs(y1), 1)
        bounds = RootBounds(base, base)
        if base > 1 << 10 or bound_margin(f, bounds) < 2.0:
            continue
        res = coppersmith_bivariate(f, bounds)
        assert res.roots == exhaustive_roots(f, bounds)
        assert (x1, y1) in res.roots
        done += 1


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32))
def test_coppersmith_matches_exhaustive_at_margin_two(seed):
    # planted instances with the tight box (the root on its edge), box at
    # most 2**8 and margin >= +2 bits: the solver finds exactly the roots the
    # exhaustive scan finds
    rng = random.Random(seed)
    while True:
        f, x1, y1, _B = planted_instance(rng, rng.randrange(16, 27))
        side = max(abs(x1), abs(y1), 1)
        bounds = RootBounds(side, side)
        if side <= 1 << 8 and bound_margin(f, bounds) >= 2.0:
            break
    res = coppersmith_bivariate(f, bounds)
    assert res.roots == exhaustive_roots(f, bounds)
    assert (x1, y1) in res.roots


def _pipeline_poly(bits, seed):
    """The pipeline's f for a seeded semiprime, its default box and B."""
    N, p, _q = harness.gen_semiprime(harness.SemiprimeSpec(bits=bits, seed=seed))
    B, x0 = select_modulus(N, p)
    center = FactorCenter.balanced(N)
    pr = PartialResidue(B, x0)
    f = build_polynomial(N, center, pr, solve_companion_residue(N, center, pr))
    return f, RootBounds.balanced(N), B.value


def _solver_poly(seed):
    """A planted f at margin >= 2 in its tight box, the box and B."""
    rng = random.Random(seed)
    while True:
        f, x1, y1, B = planted_instance(rng, rng.randrange(20, 23))
        side = max(abs(x1), abs(y1), 1)
        bounds = RootBounds(side, side)
        if bound_margin(f, bounds) >= 2.0:
            return f, bounds, B


@pytest.mark.parametrize("depth, passes", [(0, 1), (1, 5)])
def test_one_lattice_pass_per_box(monkeypatch, depth, passes):
    # a low-margin box that fails costs one pass at depth 0; at depth 1 its
    # four quadrants fail first, then its own pass runs: five passes
    bases = _lll_bases(monkeypatch)
    f, bounds, _B = _pipeline_poly(40, 0)
    with pytest.raises(LatticeFailure):
        coppersmith_bivariate(f, bounds, recenter_depth=depth)
    assert len(bases) == passes


# 13x + 3 and 13y + 5 times each other, less their value at the root (2, -1).
# Its content is 13, and the primitive part's c3 = 13 shares that factor
# with X = Y = 13, so no multiple of (XY)^2 is coprime to it
_C3_169 = BilinearPoly(169, 65, 39, 15 - 29 * -8)
# c3 = 0: the shifts pivot on x^(a+1) y^b, with lead c2
_C3_ZERO = BilinearPoly(0, 37, -23, -(37 * 5 + 23 * 7))


def _generators(f, X, Y, m, n_mod):
    """The shift rows x^a y^b f and the rows n_mod * monomial, columns
    scaled and ordered from x^(m+1) y^(m+1) down to 1."""
    mons = [(i, j) for i in range(m + 1, -1, -1) for j in range(m + 1, -1, -1)]
    scale = _scale(X, Y, m)
    rows = []
    for a in range(m + 1):
        for b in range(m + 1):
            coeffs = {(a + 1, b + 1): f.c3, (a + 1, b): f.c2, (a, b + 1): f.c1, (a, b): f.c0}
            rows.append([coeffs.get(mn, 0) * s for mn, s in zip(mons, scale)])
    for t, s in enumerate(scale):
        rows.append([n_mod * s if u == t else 0 for u in range(len(mons))])
    return rows


def _scale(X, Y, m):
    """X^i Y^j for the monomials from x^(m+1) y^(m+1) down to 1."""
    return [X**i * Y**j for i in range(m + 1, -1, -1) for j in range(m + 1, -1, -1)]


@pytest.mark.parametrize(
    "make",
    [
        lambda: _pipeline_poly(40, 1),
        lambda: _pipeline_poly(56, 2),
        lambda: _solver_poly(3),
        lambda: (_C3_169, RootBounds(13, 13)),
        lambda: (_C3_ZERO, RootBounds(40, 40)),
    ],
    ids=["pipeline-40", "pipeline-56", "solver", "c3-169-X-13", "c3-zero"],
)
def test_lattice_pass_basis_is_triangular_and_spans_the_old_lattice(monkeypatch, make):
    # the closed-form basis spans the lattice that integer_row_basis
    # echelonizes from the generators at the same working modulus
    bases = _lll_bases(monkeypatch)
    f, bounds, *_ = make()
    X, Y, m = bounds.X, bounds.Y, 2
    try:
        coppersmith_bivariate(f, bounds, recenter_depth=0)
    except LatticeFailure:
        pass
    assert len(bases) == 1
    basis = bases[0]
    # square, and row k adds coordinate D-1-k to the rows before it
    D = len(basis)
    assert D == (m + 2) ** 2 and all(len(row) == D for row in basis)
    for k, row in enumerate(basis):
        assert not any(row[: D - 1 - k]) and row[D - 1 - k] != 0
    # the pass reads the primitive part g of f; its working modulus is the
    # least one from max(W, 2) (XY)^m up that is coprime to g's pivot
    # coefficient, and the pivots are scale[t] on the (m+1)^2 shifts and
    # n_mod * scale[t] on every other monomial
    g = BilinearPoly(*(c // math.gcd(*f.coefficients()) for c in f.coefficients()))
    scale = _scale(X, Y, m)
    pivots = [basis[D - 1 - t][t] for t in range(D)]
    n_mods = {p // s for p, s in zip(pivots, scale) if p != s}
    assert len(n_mods) == 1
    n_mod = n_mods.pop()
    lead = g.c3 or g.c2
    start = max(poly_height(g, bounds), 2) * (X * Y) ** m
    assert math.gcd(lead, n_mod) == 1
    assert all(math.gcd(lead, v) > 1 for v in range(start, n_mod))
    assert sum(p == s for p, s in zip(pivots, scale)) == (m + 1) ** 2
    assert all(p in (s, n_mod * s) for p, s in zip(pivots, scale))
    # the generators' echelon (built on ascending monomials, its columns put
    # back in descending order) spans the lattice LLL reduced
    gens = _generators(g, X, Y, m, n_mod)
    old = integer_row_basis([row[::-1] for row in gens])
    assert check_reduction([row[::-1] for row in old], lll_reduce(basis)) == []
    if f is _C3_169:
        assert g.c3 == 13 and math.gcd(13, start) > 1 and n_mod > start


@pytest.mark.parametrize(
    "make",
    [lambda: _pipeline_poly(40, 1), lambda: _pipeline_poly(56, 2), lambda: _solver_poly(3)],
    ids=["pipeline-40", "pipeline-56", "solver"],
)
def test_lattice_pass_reads_the_primitive_part(make):
    # a generated f has content exactly its modulus B; its pass equals the
    # pass on f / B
    f, bounds, B = make()
    assert math.gcd(*f.coefficients()) == B
    g = BilinearPoly(*(c // B for c in f.coefficients()))
    for m in (1, 2):
        assert lattice._lattice_pass(f, bounds.X, bounds.Y, m) == lattice._lattice_pass(
            g, bounds.X, bounds.Y, m
        )


def _is_triangular(basis):
    """Each row adds exactly one new nonzero coordinate to the rows before it."""
    seen = set()
    for row in basis:
        new = {t for t, v in enumerate(row) if v} - seen
        if len(new) != 1:
            return False
        seen |= new
    return True


def test_lll_every_basis_reduces_in_the_exact_loop(monkeypatch):
    # pipeline bases at 24, 40 and 56 bits, solver bases, the 25-dim basis
    # and uniform and knapsack bases all take the one exact loop: its stop
    # hook sees every row in order, and the result passes check_reduction
    cases = _lll_bases(monkeypatch)
    for bits in (24, 40, 56):
        N, p, _q = harness.gen_semiprime(harness.SemiprimeSpec(bits=bits, seed=0))
        harness.run_pipeline(N, p)
    for seed in (3, 4):
        f, bounds, _B = _solver_poly(seed)
        coppersmith_bivariate(f, bounds)
    # the 25-dim basis of shift degree 3, which only tests build
    f, bounds, _B = _pipeline_poly(18, 0)
    lattice._lattice_pass(f, bounds.X, bounds.Y, 3)
    assert len(cases[-1]) == 25
    rng = random.Random(77)
    for dim in (6, 10):
        cases.append([[rng.randrange(-(1 << 60), 1 << 60) for _ in range(dim)]
                      for _ in range(dim)])
        cases.append([[int(i == j) for j in range(dim)] + [(1 << 20) * rng.getrandbits(200)]
                      for i in range(dim)])
    assert {len(basis) for basis in cases} >= {6, 9, 10, 16, 25}
    assert {_is_triangular(basis) for basis in cases} == {True, False}
    for basis in cases:
        seen = []
        reduced = lll_reduce(basis, stop=lambda b, k: seen.append(k))
        assert seen == list(range(1, len(basis)))
        assert check_reduction(basis, reduced) == []


def _exact_swap(a, c, m, l):
    return 4 * a * c < 3 * m * m - 4 * l * l


def test_lovasz_swap_answers_as_the_integers_on_the_corpus_bases(monkeypatch):
    # every swap test made while reducing the bases of pipeline-40,
    # pipeline-56 and solver runs
    bases = _lll_bases(monkeypatch)
    for bits in (40, 56):
        for seed in range(3):
            N, p, _q = harness.gen_semiprime(harness.SemiprimeSpec(bits=bits, seed=seed))
            harness.run_pipeline(N, p)
    for seed in (3, 4, 5):
        f, bounds, _B = _solver_poly(seed)
        coppersmith_bivariate(f, bounds)
    monkeypatch.undo()
    tests = []
    real = lattice._lovasz_swap

    def spy(a, c, m, l):
        tests.append((a, c, m, l))
        return real(a, c, m, l)

    monkeypatch.setattr(lattice, "_lovasz_swap", spy)
    for basis in bases:
        lll_reduce(basis)
    assert len(bases) >= 9 and len(tests) > 1000
    assert all(2 * abs(l) <= m for _a, _c, m, l in tests)
    assert all(real(*t) == _exact_swap(*t) for t in tests)
    # the bit lengths settle tests both ways, and some tests get past them
    spans = [a.bit_length() + c.bit_length() - 2 * m.bit_length() for a, c, m, _l in tests]
    assert min(spans) <= -3 and max(spans) >= 2 and any(-3 < s < 2 for s in spans)


def _near_ties(rng, m_bits, count):
    """Swap-test operands (a, c, m, l) with 2|l| <= m whose two sides lie
    within 2**-s of each other, s drawn from 30..60 (so that the doubles
    decide some and the integers the rest), about half of them exact ties."""
    out = []
    for i in range(count):
        m = rng.getrandbits(m_bits) | 1 << (m_bits - 1)
        m -= m % 2
        l = rng.randint(-(m // 2), m // 2) if i % 3 else 0
        target = 3 * m * m - 4 * l * l  # divisible by 4, since m is even
        c = rng.getrandbits(rng.randint(1, max(1, 2 * m_bits - 60))) + 1
        if i % 2:
            c = math.gcd(c, target // 4) or 1
            a = target // (4 * c)  # an exact tie
        else:
            gap = target >> rng.randint(30, 60)
            a = (target + rng.randint(-gap, gap)) // (4 * c)
        if rng.random() < 0.5:
            a, c = c, a
        if a > 0:
            out.append((a, c, m, l))
    return out


def test_lovasz_swap_answers_as_the_integers_on_near_ties():
    rng = random.Random(23)
    cases = []
    for m_bits in (2, 20, 53, 61, 120, 700, 1100, 1500, 3500):
        cases += _near_ties(rng, m_bits, 200)
    # l = 0, and operands past 2**1100 with a and c more than 2**1024 apart
    for bits in (64, 1200, 3000):
        for _ in range(200):
            m = rng.getrandbits(bits) | 1 << (bits - 1)
            c = rng.getrandbits(rng.randint(1, 40)) + 1
            a = (3 * m * m) // (4 * c) + rng.randint(-2, 2)
            cases.append((a, c, m, 0))
            cases.append((c, a, m, rng.randint(-(m // 2), m // 2)))
    assert sum(max(a, c, m).bit_length() > 1100 for a, c, m, _l in cases) > 500
    assert sum(_exact_swap(*t) for t in cases) > 100
    assert sum(not _exact_swap(*t) for t in cases) > 100
    for t in cases:
        assert lattice._lovasz_swap(*t) == _exact_swap(*t), t


def test_lll_with_the_integer_swap_test_returns_the_same_bases(monkeypatch):
    rng = random.Random(9)
    bases = [_solver_basis(3)]
    f, bounds, _B = _pipeline_poly(56, 1)
    with pytest.MonkeyPatch.context() as mp:
        captured = _lll_bases(mp)
        lattice._lattice_pass(f, bounds.X, bounds.Y, 2)
    bases += captured
    for dim, bits in ((8, 60), (6, 700)):
        bases.append([[int(i == j) for j in range(dim)] + [(1 << 20) * rng.getrandbits(bits)]
                      for i in range(dim)])
    screened = [lll_reduce(basis) for basis in bases]
    monkeypatch.setattr(lattice, "_lovasz_swap", _exact_swap)
    assert [lll_reduce(basis) for basis in bases] == screened


def _solver_basis(seed):
    """The basis the solver's top pass hands to lll_reduce."""
    f, bounds, _B = _solver_poly(seed)
    with pytest.MonkeyPatch.context() as mp:
        captured = _lll_bases(mp)
        coppersmith_bivariate(f, bounds, recenter_depth=0)
    return captured[0]


def test_lll_stop_that_never_fires_sees_every_row():
    basis = _solver_basis(3)
    seen = []

    def stop(b, k):
        seen.append(k)
        return False

    assert lll_reduce(basis, stop=stop) == lll_reduce(basis)
    assert seen == list(range(1, len(basis)))


@pytest.mark.parametrize("at", [1, 6, 15])
def test_lll_stop_returns_the_lattice_with_a_reduced_prefix(at):
    basis = _solver_basis(3)
    out = lll_reduce(basis, stop=lambda b, k: k == at)
    # every row is a lattice vector and the covolume is the input's, so out
    # spans the input lattice
    echelon = integer_row_basis(basis)
    assert all(_echelon_member(echelon, row) for row in out)
    assert gram_det(out) == gram_det(basis)
    prefix = out[:at]
    assert check_reduction(prefix, prefix) == []


def test_early_exit_keeps_roots_and_certificates(monkeypatch):
    # planted instances at margins -1..+6, recenter_depth 0-2: the pass that
    # stops LLL at the first certifying prefix row returns the roots of a
    # pass that reduces in full, and certifies whenever that one does
    real = lattice.lll_reduce
    fired = []

    def full(basis, *, stop=None):
        return real(basis)

    def watched(basis, *, stop=None):
        def spy(b, k):
            hit = stop(b, k)
            if hit:
                fired.append(k)
            return hit

        return real(basis, stop=spy)

    def solve(lll, f, bounds, depth):
        monkeypatch.setattr(lattice, "lll_reduce", lll)
        try:
            res = coppersmith_bivariate(f, bounds, recenter_depth=depth)
        except LatticeFailure:
            return None
        return res.roots, res.certified

    rng = random.Random(1)
    want = dict.fromkeys(range(-1, 7), 5)
    stopped_high = []
    while any(want.values()):
        f, x1, y1, _B = planted_instance(rng, rng.randrange(18, 34))
        base = max(abs(x1), abs(y1), 1)
        bounds = RootBounds(base * rng.choice((1, 2, 4)), base * rng.choice((1, 2, 4)))
        margin = bound_margin(f, bounds)
        if max(bounds.X, bounds.Y) > 1 << 10 or want.get(math.floor(margin), 0) == 0:
            continue
        want[math.floor(margin)] -= 1
        depth = sum(want.values()) % 3
        ref = solve(full, f, bounds, depth)
        fired.clear()
        new = solve(watched, f, bounds, depth)
        if ref is not None:
            assert new is not None and new[0] == ref[0]
            assert new[1] or not ref[1]
        if new is not None and new[1]:
            assert new[0] == exhaustive_roots(f, bounds)
        if margin >= 3.5 and fired:
            stopped_high.append(min(fired))
    # the stop fires on high-margin instances, one of them halfway down the
    # 16-row basis or earlier
    assert stopped_high and min(stopped_high) <= 8


def _pass_first_box(f, X, Y, depth):
    """The schedule before margins, kept as the oracle: one pass at degree 2
    per box, and the four quadrants when it neither certifies nor finds a
    root.  Returns (roots, resolved)."""
    roots, _indep, certified = lattice._lattice_pass(f, X, Y, 2)
    if certified or roots:
        return roots, certified
    hx = (X + 1) // 2 if X > 1 else X
    hy = (Y + 1) // 2 if Y > 1 else Y
    if depth > 0 and (hx < X or hy < Y):
        union, all_resolved = set(), True
        for cx in sorted({-(X - hx), X - hx}):
            for cy in sorted({-(Y - hy), Y - hy}):
                sub_roots, sub_resolved = _pass_first_box(
                    lattice._recentered(f, cx, cy), hx, hy, depth - 1
                )
                all_resolved = all_resolved and sub_resolved
                union |= {
                    (x + cx, y + cy) for (x, y) in sub_roots
                    if lattice._is_root_in_box(f, x + cx, y + cy, X, Y)
                }
        if union or all_resolved:
            return union, all_resolved
    return set(), False


def _schedule_keeps_the_pass_first_result(f, bounds, depth):
    ref_roots, ref_resolved = _pass_first_box(f, bounds.X, bounds.Y, depth)
    try:
        res = coppersmith_bivariate(f, bounds, recenter_depth=depth)
    except LatticeFailure:
        assert not ref_roots and not ref_resolved
        return False
    assert set(res.roots) >= ref_roots
    assert res.certified or not ref_resolved
    for (x, y) in res.roots:
        assert f.evaluate(x, y) == 0 and abs(x) <= bounds.X and abs(y) <= bounds.Y
    if res.certified:
        assert res.roots == exhaustive_roots(f, bounds)
    return res.certified and not ref_resolved


def test_margin_schedule_keeps_every_pass_first_root_and_certificate():
    # planted instances at margins -1..+7 and depths 0-2, then small random
    # f: the result holds every root the pass-first schedule finds, and is
    # certified whenever that one is
    rng = random.Random(20)
    want = {(m, d): 2 for m in range(-1, 8) for d in range(3)}
    gained = 0
    while any(want.values()):
        f, x1, y1, _B = planted_instance(rng, rng.randrange(18, 34))
        base = max(abs(x1), abs(y1), 1)
        bounds = RootBounds(base * rng.choice((1, 2, 4)), base * rng.choice((1, 2, 4)))
        if max(bounds.X, bounds.Y) > 1 << 10:
            continue
        margin = math.floor(bound_margin(f, bounds))
        for depth in range(3):
            if want.get((margin, depth), 0):
                want[(margin, depth)] -= 1
                gained += _schedule_keeps_the_pass_first_result(f, bounds, depth)
    for _ in range(60):
        f = BilinearPoly(rng.randrange(1, 50), rng.randrange(-2000, 2000),
                         rng.randrange(-2000, 2000), rng.randrange(-5000, 5000))
        if is_reducible(f):
            continue
        bounds = RootBounds(rng.choice((1, 2, 3, 8, 64)), rng.choice((1, 2, 3, 8, 64)))
        _schedule_keeps_the_pass_first_result(f, bounds, rng.randrange(3))
    # splitting low-margin boxes first certifies some the old schedule left open
    assert gained > 0


def test_box_of_height_below_two_is_a_low_margin_box():
    # the quadrants of f = xy - 1 at X = Y = 2 recenter to xy + x + y and
    # xy - x - y, of height 1 on their 1x1 boxes, where bound_margin raises
    res = coppersmith_bivariate(BilinearPoly(1, 0, 0, -1), RootBounds(2, 2))
    assert res.roots == [(-1, -1), (1, 1)]


def test_high_margin_box_is_certified_by_one_degree_one_pass(monkeypatch):
    rng = random.Random(3)
    while True:
        f, x1, y1, _B = planted_instance(rng, rng.randrange(20, 23))
        side = max(abs(x1), abs(y1), 1)
        bounds = RootBounds(side, side)
        if bound_margin(f, bounds) >= 5:
            break
    bases = _lll_bases(monkeypatch)
    res = coppersmith_bivariate(f, bounds)
    assert _lll_dims(bases) == [9]
    assert res.certified and (x1, y1) in res.roots
    assert res.roots == exhaustive_roots(f, bounds)


def _planted_at_margin(rng, lo, hi):
    while True:
        f, x1, y1, _B = planted_instance(rng, rng.randrange(20, 23))
        side = max(abs(x1), abs(y1), 1)
        bounds = RootBounds(side, side)
        if lo <= bound_margin(f, bounds) < hi:
            return f, bounds


def test_split_leaf_tries_degree_one_first(monkeypatch):
    # a box at the last level, at >= 4.5 bits, makes a 9-dim call before
    # any 16-dim one
    bases = _lll_bases(monkeypatch)
    rng = random.Random(21)
    for lo in (lattice._SCHEDULE_MARGIN_BITS, 5.0, 6.0):
        f, bounds = _planted_at_margin(rng, lo, lo + 0.5)
        bases.clear()
        state = {"independent": False}
        roots, resolved = lattice._solve_box(f, bounds.X, bounds.Y, 0, state)
        calls = _lll_dims(bases)
        assert calls[0] == 9 and set(calls) <= {9, 16}
        assert resolved and sorted(roots) == exhaustive_roots(f, bounds)
    # through the split: a low-margin box at depth 1 goes to its quadrants
    # first, and every quadrant at >= 4.5 bits opens with a degree-1 pass
    while True:
        f, bounds = _planted_at_margin(rng, 4.0, lattice._SCHEDULE_MARGIN_BITS)
        hx, hy = (bounds.X + 1) // 2, (bounds.Y + 1) // 2
        quads = [
            (lattice._recentered(f, cx, cy), RootBounds(hx, hy))
            for cx in sorted({-(bounds.X - hx), bounds.X - hx})
            for cy in sorted({-(bounds.Y - hy), bounds.Y - hy})
        ]
        if all(bound_margin(q, qb) >= lattice._SCHEDULE_MARGIN_BITS for q, qb in quads):
            break
    bases.clear()
    res = coppersmith_bivariate(f, bounds, recenter_depth=1)
    calls = _lll_dims(bases)
    assert calls[0] == 9
    assert all(calls[i - 1] == 9 for i, dim in enumerate(calls) if dim == 16)
    assert calls.count(9) == len(quads)
    assert res.certified and res.roots == exhaustive_roots(f, bounds)


def test_depth_zero_call_follows_the_margin(monkeypatch):
    # recenter_depth=0 (the pipeline and the residue enumeration) follows the
    # rule of every box: below 4.5 bits one 16-dim pass, at or above it a
    # 9-dim pass first and the 16-dim one only if that does not certify
    bases = _lll_bases(monkeypatch)
    rng = random.Random(22)
    for lo, hi in ((2.0, 3.0), (3.5, 4.5), (4.5, 5.0), (6.0, 9.0)):
        f, bounds = _planted_at_margin(rng, lo, hi)
        bases.clear()
        try:
            coppersmith_bivariate(f, bounds, recenter_depth=0)
        except LatticeFailure:
            pass
        if lo < lattice._SCHEDULE_MARGIN_BITS:
            assert _lll_dims(bases) == [16]
        else:
            assert _lll_dims(bases) in ([9], [9, 16])


@pytest.mark.parametrize("depth", [0, 2])
def test_roots_for_every_choice_of_lead(depth):
    # c3 of 0 (lead c2, shifts pivot on x^(a+1) y^b), +-1 and random, with a
    # root planted in a box up to 40: the roots are the box's roots, all of
    # them when certified
    rng = random.Random(2100 + depth)
    drawn = certified = 0
    while drawn < 300:
        X, Y = rng.randint(1, 40), rng.randint(1, 40)
        x0, y0 = rng.randint(-X, X), rng.randint(-Y, Y)
        c3 = rng.choice((0, 1, -1, rng.randint(-(1 << 12), 1 << 12)))
        c2, c1 = (rng.choice((-1, 1)) * rng.randint(1, 1 << 12) for _ in range(2))
        f = BilinearPoly(c3, c2, c1, -(c3 * x0 * y0 + c2 * x0 + c1 * y0))
        if is_reducible(f):
            continue
        drawn += 1
        bounds = RootBounds(X, Y)
        try:
            res = coppersmith_bivariate(f, bounds, recenter_depth=depth)
        except LatticeFailure:
            continue
        want = exhaustive_roots(f, bounds)
        assert set(res.roots) <= set(want)
        if res.certified:
            certified += 1
            assert res.roots == want
    assert certified > 0
