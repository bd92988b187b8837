"""Exact primality testing and integer factorization, in pure Python.

``is_prime`` is exact below PSI_13 = 3317044064679887385961981 (about 3.3e24)
and BPSW above, where no BPSW pseudoprime is known. Below 2^64 it is BPSW too
(R. Baillie and S. S. Wagstaff Jr., "Lucas pseudoprimes", Math. Comp. 35,
1980): Miller-Rabin to base 2 plus a strong Lucas test with Selfridge's
parameters, the test sympy's ``isprime`` uses. There it is exact, as every
base-2 strong pseudoprime below 2^64 is on Feitsma and Galway's list and none
of them passes the Lucas test. From 2^64 up to PSI_13 it is Miller-Rabin with
the first k = 12 or 13 prime bases below psi_k, the least strong pseudoprime to
those bases.

``jacobi`` is the Jacobi symbol by quadratic reciprocity, with no modular
power; the Lucas test, the quadratic splitting symbols and the split
multiplicative reduction test all read it.

``factor`` is trial division up to 1000. A composite cofactor then meets a
short run of Pollard's rho in Brent's form with batched gcds (R. P. Brent, "An
improved Monte Carlo factorization algorithm", BIT 20, 1980), which finds
factors below about 10^6; then Lenstra's elliptic curve method (H. W. Lenstra
Jr., "Factoring integers with elliptic curves", Ann. Math. 126, 1987) on
Montgomery curves with Suyama's sigma = 6, 7, ... and a baby-step giant-step
stage 2 (P. L. Montgomery, "Speeding the Pollard and elliptic curve methods of
factorization", Math. Comp. 48, 1987); then Pollard-Brent with c = 1, 2, ...
A number with two large prime factors could take hours, so ``factor`` spends
at most RHO_BUDGET steps on one number and then raises
``FactorizationBudgetError``. A step is one rho iteration, one doubling or
addition on a curve, or one stage-2 product.
"""

from __future__ import annotations

import math

from .records import Refused

TRIAL_LIMIT = 1000


def _sieve(n: int) -> list:
    """The primes below n, by the sieve of Eratosthenes."""
    is_p = bytearray([1]) * n
    is_p[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if is_p[p]:
            is_p[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if is_p[p]]


_SMALL_PRIMES = _sieve(TRIAL_LIMIT)
_MR_BASES = _SMALL_PRIMES[:13]
PSI_13 = 3317044064679887385961981
_BPSW_EXACT = 1 << 64  # no BPSW pseudoprime below it
# psi_k, below which the first k prime bases decide primality; psi_7 and psi_9
# lie below 2^64, where BPSW is exact and cheaper
_MR_RANGES = ((318665857834031151167461, 12), (PSI_13, 13))

# Pollard-Brent and ECM steps allowed per factor() call: over 700 times the
# largest count that factoring any certify_mq benchmark discriminant or any
# row of data/curves.csv takes (29,364 steps, for 3 * 7614985397 * 11147729759;
# Pollard-Brent alone took up to 203,390)
RHO_BUDGET = 21_000_000
_BATCH = 128
_BRENT_FIRST = 2048  # Pollard-Brent steps before ECM
_ECM_CURVES = 200  # Suyama curves sigma = 6, 7, ... before Pollard-Brent again
_ECM_B1, _ECM_B2, _ECM_D = 150, 3750, 210  # stage-1 and stage-2 bounds, giant step
_ECM_K = math.lcm(*range(1, _ECM_B1 + 1))  # the product of the largest prime powers up to B1
# steps of one curve, as _ecm_curve takes them: the ladders over K and D, the
# baby and giant steps and a product per (giant, baby prime to D) pair
_ECM_BABY = sum(math.gcd(j, _ECM_D) == 1 for j in range(1, _ECM_D // 2, 2))
_ECM_STEPS = (2 * _ECM_K.bit_length() - 1 + 2 * _ECM_D.bit_length() - 1 + 1 + len(range(1, _ECM_D // 2, 2))
              + _ECM_B2 // _ECM_D + 2 + (_ECM_B2 // _ECM_D + 1) * _ECM_BABY)


class FactorizationBudgetError(ArithmeticError, Refused):
    """factor() gave up: the number has more than one large prime factor."""


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    # n - 1 = d * 2^s with d odd
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0: the Legendre symbol when n is prime."""
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):  # (2/n) = -1
            sign = -sign
        if a & n & 2:  # a = n = 3 mod 4
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    # odd n > 1 with no small factor; Selfridge: first D in 5, -7, 9, -11, ...
    # with (D/n) = -1, then P = 1 and Q = (1 - D) / 4
    if math.isqrt(n) ** 2 == n:
        return False  # no such D exists for a square
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False  # D and n share a proper factor of n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1 for P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _is_prime_no_small_factor(n: int) -> bool:
    # n has no prime factor below TRIAL_LIMIT
    if n < TRIAL_LIMIT * TRIAL_LIMIT:
        return n > 1
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n >= _BPSW_EXACT:
        for psi, k in _MR_RANGES:
            if n < psi:
                return all(_strong_probable_prime(n, a, d, s) for a in _MR_BASES[:k])
    return _strong_probable_prime(n, 2, d, s) and _strong_lucas_probable_prime(n)


def is_prime(n: int) -> bool:
    """Whether the integer n is prime (exact below PSI_13, BPSW above)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return _is_prime_no_small_factor(n)


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method on integers."""
    x = 1 << -(-n.bit_length() // k)  # at least the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _brent(n: int, c: int, steps: int) -> tuple:
    """(g, steps used) for the map x -> x^2 + c on the composite n.

    g is a proper factor of n; or n when this c fails; or 1 when finding a
    factor would take more than ``steps`` steps.
    """
    y, r, q, g, used = 2, 1, 1, 1, 0
    while g == 1:
        if used + r >= steps:
            return 1, used
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        used += r
        k = 0
        while k < r and g == 1:
            if used >= steps:
                return 1, used
            ys = y
            batch = min(_BATCH, r - k)
            for _ in range(batch):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += batch
            used += batch
        r *= 2
    if g == n:  # the batch overshot: step back one at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
    return g, used


def _xadd(P: tuple, Q: tuple, D: tuple, n: int) -> tuple:
    """P + Q on a Montgomery curve in x-only coordinates (X:Z), given D = P - Q."""
    (a, b), (c, d) = P, Q
    u, v = (a - b) * (c + d), (a + b) * (c - d)
    return D[1] * (u + v) ** 2 % n, D[0] * (u - v) ** 2 % n


def _xdbl(P: tuple, a24: int, n: int) -> tuple:
    """2P on the Montgomery curve By^2 = x^3 + Ax^2 + x with a24 = (A + 2) / 4."""
    X, Z = P
    s, d = (X + Z) ** 2 % n, (X - Z) ** 2 % n
    return s * d % n, (s - d) * (d + a24 * (s - d)) % n


def _ecm_curve(n: int, sigma: int) -> int:
    """gcd(n, .) after both stages of ECM on Suyama's curve sigma >= 6: a factor of n, 1 or n."""
    u, v = sigma * sigma - 5, 4 * sigma
    den = 16 * u ** 3 * v % n
    if (g := math.gcd(den, n)) != 1:
        return g
    a24 = (v - u) ** 3 * (3 * u + v) * pow(den, -1, n) % n
    P = u ** 3, v ** 3
    for m in _ECM_K, _ECM_D:  # Montgomery's ladder: Q = KP (stage 1), then G = DQ
        R, S = P, _xdbl(P, a24, n)
        for bit in bin(m)[3:]:
            if bit == "1":
                R, S = _xadd(S, R, P, n), _xdbl(S, a24, n)
            else:
                R, S = _xdbl(R, a24, n), _xadd(S, R, P, n)
        if (g := math.gcd(R[1], n)) != 1:  # stop before a later stage finds every factor
            return g
        Q, P = P, R
    # stage 2: if Q has prime order l = mD +- j modulo a factor p of n, with
    # j < D/2 prime to D, then x(mG) = x(jQ) mod p
    baby, prev, cur, Q2 = [], Q, Q, _xdbl(Q, a24, n)
    for j in range(1, _ECM_D // 2, 2):
        if math.gcd(j, _ECM_D) == 1:
            baby.append(cur)
        prev, cur = cur, _xadd(cur, Q2, prev, n)
    acc, cur, nxt = 1, P, _xdbl(P, a24, n)  # P is G now
    for _ in range(_ECM_B2 // _ECM_D + 1):  # m = 1, ..., B2 // D + 1
        X, Z = cur
        for Xj, Zj in baby:
            acc = acc * (X * Zj - Xj * Z) % n
        cur, nxt = nxt, _xadd(nxt, P, cur, n)
    return math.gcd(acc, n)


def _split(n: int, out: dict, budget: int, k: int = 1) -> int:
    """Add the prime factors of n**k (none below TRIAL_LIMIT) to out; return the budget left."""
    if n == 1:
        return budget
    if _is_prime_no_small_factor(n):
        out[n] = out.get(n, 0) + k
        return budget
    # rho finds the prime q of q^e in sqrt(q) steps; a root finds it at once
    for e in range(n.bit_length() // 9, 1, -1):  # every prime factor exceeds 2^9
        r = _integer_root(n, e)
        if r ** e == n:
            return _split(r, out, budget, k * e)
    g, used = _brent(n, 1, min(_BRENT_FIRST, budget))
    budget -= used
    sigma = 6
    while not 1 < g < n and sigma < 6 + _ECM_CURVES and budget >= _ECM_STEPS:
        g = _ecm_curve(n, sigma)
        budget -= _ECM_STEPS
        sigma += 1
    c = 1
    while not 1 < g < n:
        g, used = _brent(n, c, budget)
        budget -= used
        if g == 1:
            raise FactorizationBudgetError(
                f"factorization budget exhausted: {RHO_BUDGET} Pollard-Brent and ECM steps"
                f" did not split a {len(str(n))}-digit cofactor"
            )
        c += 1
    return _split(n // g, out, _split(g, out, budget, k), k)


def factor(n: int) -> dict:
    """The factorization {prime: exponent} of a positive integer, by increasing prime."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    out = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            if n > 1:
                out[n] = 1
            return out
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    large = {}
    _split(n, large, RHO_BUDGET)
    out.update(sorted(large.items()))
    return out
