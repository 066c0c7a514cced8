#!/usr/bin/env python3
"""Difference-of-squares searches, with exact step accounting.

Walks the classic ascending search, shows why twin-prime products cost
exactly one square test, and compares the shifted-center search's measured
steps against the predicted cycle count.
"""

import sys

from factorlab import (
    compute_initial_u,
    fermat_factor,
    is_prime,
    isqrt,
    next_prime,
    shifted_fermat,
)
from factorlab.cli import run_piped


def main():
    print("=" * 64)
    print("Classic search: u = ceil(sqrt(N)), u+1, ... until u^2 - N = v^2")
    print("=" * 64)
    for N in (35, 5959, 11639, 1000009 * 1000033):
        rep = fermat_factor(N)
        print(f"  N={N}: {rep.p} * {rep.q}  in {rep.steps} square tests "
              f"(started at u={rep.start_u})")

    print()
    print("Twin primes p, p+2: ceil(sqrt(N)) = p+1 and (p+1)^2 - N = 1,")
    print("so the very first test hits:")
    p = 1000037
    while not (is_prime(p) and is_prime(p + 2)):
        p += 2
    rep = fermat_factor(p * (p + 2))
    print(f"  N = {p}*{p + 2}: steps = {rep.steps}")

    print()
    print("=" * 64)
    print("Shifted center: factors offset by about x * N^(1/4) from sqrt(N)")
    print("=" * 64)
    # build an instance with a known offset structure
    q = next_prime(1_000_003)
    x = 7
    pc = q
    for _ in range(6):
        n = pc * q
        pc = isqrt(n) + isqrt(isqrt(n)) * x
    while not is_prime(pc):
        pc += 1
    N = pc * q
    x0 = pc - isqrt(N) - isqrt(isqrt(N)) * x
    print(f"  p = {pc} = isqrt(N) + isqrt(isqrt(N))*{x} + {x0}")
    u0 = compute_initial_u(N, x)
    print(f"  center estimate U0 = {u0}, true p+q = {pc + q} "
          f"(off by {pc + q - u0})")
    rep = shifted_fermat(N, x, 1 << 16)
    bound = 4 * x0 * x0 // pc + 8
    print(f"  shifted search: {rep.p} * {rep.q} in {rep.steps} tests "
          f"(predicted cycle bound {bound})")
    print()
    print("The classic search from ceil(sqrt(N)) would have needed "
          f"{(pc + q) // 2 - (isqrt(N - 1) + 1) + 1} tests.")


if __name__ == "__main__":
    sys.exit(run_piped(main))
