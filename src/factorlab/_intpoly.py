"""Exact univariate integer-polynomial arithmetic used by the lattice solver.

Polynomials are lists of coefficients in ascending order ([] is the zero
polynomial).  The solver's resultants are taken against f = A*x + C, linear
in x, so Res_x(f, h) = A**deg(h) * h(-C/A) is evaluated in closed form, by
Horner in Z[y], with no Sylvester matrix.  bareiss_det is the fraction-free
determinant of a matrix of polynomials, whose interior divisions are exact
over any integral domain.
"""

from __future__ import annotations

from itertools import count
from math import gcd

from .ntheory import next_prime, sieve_primes

Poly = list[int]


def ptrim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a: Poly, b: Poly) -> Poly:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return ptrim(out)


def pneg(a: Poly) -> Poly:
    return [-x for x in a]


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return ptrim(out)


def pdivexact(a: Poly, b: Poly) -> Poly:
    """a / b when the division is exact; raises ArithmeticError otherwise."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    if len(a) < len(b):
        raise ArithmeticError("inexact polynomial division")
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(rem[i + len(b) - 1], b[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[i] = q
        if q:
            for j, y in enumerate(b):
                rem[i + j] -= q * y
    if any(rem[: len(b) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return ptrim(out)


def peval(p: Poly, x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def bareiss_det(m: list[list[Poly]]) -> Poly:
    """Fraction-free determinant of a square matrix of integer polynomials."""
    n = len(m)
    if n == 0:
        return [1]
    a = [[list(e) for e in row] for row in m]
    sign = 1
    prev: Poly = [1]
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return []
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = padd(pmul(a[k][k], a[i][j]), pneg(pmul(a[i][k], a[k][j])))
                a[i][j] = pdivexact(num, prev)
            a[i][k] = []
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else pneg(det)


def sylvester_resultant(fx: list[Poly], hx: list[Poly]) -> Poly:
    """Resultant w.r.t. the outer variable x of f = A*x + C and any h.

    Inputs are lists of inner-variable polynomials, ascending in x; f must
    have degree 1 in x.  Returns the determinant of the Sylvester matrix of
    f and h, sign included, as a polynomial in the inner variable y, in
    closed form: with d = deg_x h,
        Res_x(f, h) = A**d * h(-C/A) = sum_i h_i * (-C)**i * A**(d - i),
    evaluated by Horner in Z[y].  [] means the resultant is identically zero
    (f divides h, or h = 0).
    """
    if len(fx) != 2 or not any(fx[1]):
        raise ValueError("f must have degree 1 in the outer variable")
    hx = list(hx)
    while hx and not any(hx[-1]):
        hx.pop()
    if not hx:
        return []
    neg_c, a = pneg(fx[0]), fx[1]
    d = len(hx) - 1
    out, a_pow = ptrim(list(hx[d])), [1]
    for i in range(d - 1, -1, -1):
        a_pow = pmul(a_pow, a)
        out = padd(pmul(out, neg_c), pmul(hx[i], a_pow))
    return out


def _deriv(p: Poly) -> Poly:
    return ptrim([i * c for i, c in enumerate(p)][1:])


def _primitive(p: Poly) -> Poly:
    """p divided by its content, with a positive leading coefficient."""
    g = 0
    for c in p:
        g = gcd(g, c)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    """The remainder of lc(b)**(deg a - deg b + 1) * a on division by b."""
    rem = list(a)
    lb, db = b[-1], len(b) - 1
    while len(rem) > db:
        lr, shift = rem[-1], len(rem) - 1 - db
        rem = [c * lb for c in rem]
        for j, y in enumerate(b):
            rem[shift + j] -= lr * y
        ptrim(rem)
    return rem


def _pgcd(a: Poly, b: Poly) -> Poly:
    """The primitive part, with a positive leading coefficient, of the gcd
    over Z of nonzero a and b with deg a >= deg b (primitive polynomial
    remainder sequence)."""
    while True:
        rem = _pseudo_rem(a, b)
        if not rem:
            return _primitive(b)
        a, b = b, _primitive(rem)


# the primes tried as the Hensel modulus, in order: those below 100 at
# import, more from next_prime in the rare case a polynomial needs them
_PRIMES = sieve_primes(100)


def _nth_prime(i: int) -> int:
    while len(_PRIMES) <= i:
        _PRIMES.append(next_prime(_PRIMES[-1] + 1))
    return _PRIMES[i]


def integer_roots(p: Poly, bound: int) -> list[int]:
    """All integers r with |r| <= bound and p(r) = 0, for p not identically 0.

    After the zero root is taken out, p is made primitive and squarefree
    (divided by gcd(p, p') over Z).  The first prime l that does not divide
    the leading coefficient and at which every root of p mod l is simple
    exists, because only the primes dividing the leading coefficient or the
    discriminant fail.  Every integer root reduces to one of those roots mod
    l, and each lifts uniquely by Newton iteration (Hensel's lemma) until
    l**k > 2*bound; the symmetric representatives with |r| <= bound that are
    roots of p, checked exactly, are all the roots (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 15).
    """
    p = ptrim(list(p))
    if not p:
        raise ValueError("zero polynomial has every integer as a root")
    if bound < 0:
        return []
    v = 0
    while p[v] == 0:
        v += 1
    roots = [0] if v else []
    p = _primitive(p[v:])
    if len(p) == 1:
        return roots
    dp = _deriv(p)
    g = _pgcd(p, dp)
    if len(g) > 1:
        p = pdivexact(p, g)
        dp = _deriv(p)
    for i in count():
        l = _nth_prime(i)
        if p[-1] % l == 0:
            continue
        pl = [c % l for c in p]
        residues = [r for r in range(l) if peval(pl, r) % l == 0]
        if not residues:
            return roots
        if all(peval(dp, r) % l for r in residues):
            break
    for r in residues:
        m = l
        while m <= 2 * bound:
            m *= m
            r = (r - peval(p, r) * pow(peval(dp, r), -1, m)) % m
        if r > m // 2:
            r -= m
        if abs(r) <= bound and peval(p, r) == 0:
            roots.append(r)
    return sorted(roots)
