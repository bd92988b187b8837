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
power; the Lucas test and ``is_unit_square``, which the quadratic splitting
symbols and the split multiplicative reduction test share, read it.

``factor`` divides out the primes below 1000 that one gcd with their product
finds. A composite cofactor meets a short run of Pollard's rho in Brent's form
(R. P. Brent, BIT 20, 1980), which finds most factors below 10^6, then a
perfect power check if that run fails; then Lenstra's elliptic curve method
(Ann. Math. 126, 1987) on Montgomery curves with Suyama's sigma = 6, 7, ...,
a ladder from a base point with Z = 1 and a baby-step giant-step stage 2 on
affine x after one batch inversion (P. L. Montgomery, Math. Comp. 48, 1987);
then Pollard-Brent with c = 1, 2, ... B1 and B2 rise with the curve (P.
Zimmermann and B. Dodson, ANTS VII, 2006): 30 curves at 150 and 3750, 20 at
300 and 12000, 50 at 600 and 30000. ``factor`` spends at most RHO_BUDGET
steps on one number, a step being one reduction modulo it, and then raises
``FactorizationBudgetError``. The budget is sized for every number whose
second-largest prime factor is below 10^12 (scripts/factor_need.py measures
it); spending all of it takes 1.1-1.6 s at 49 digits and 6.9 s at 199.
"""

from __future__ import annotations

import itertools
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
_PRIMORIAL = math.prod(_SMALL_PRIMES)
_MR_BASES = _SMALL_PRIMES[:13]
PSI_13 = 3317044064679887385961981
_BPSW_EXACT = 1 << 64  # no BPSW pseudoprime below it
# psi_k, below which the first k prime bases decide primality; psi_7 and psi_9
# lie below 2^64, where BPSW is exact and cheaper
_MR_RANGES = ((318665857834031151167461, 12), (PSI_13, 13))

# Pollard-Brent and ECM steps allowed per factor() call, a step being one
# reduction modulo the number factored: 5.1 times the largest need that
# scripts/factor_need.py measures (462,855 steps, for 474532848780245190198108137)
RHO_BUDGET = 2_350_000
_BATCH = 128
_BRENT_FIRST = 2048  # Pollard-Brent steps before ECM
_ECM_D = 210  # stage 2's giant step, with D/2 odd
_ECM_BABY = sum(math.gcd(j, _ECM_D) == 1 for j in range(1, _ECM_D // 2, 2))


def _ecm_level(B1: int, B2: int) -> tuple:
    """(bits, giants, steps) of an ECM curve with bounds B1 < TRIAL_LIMIT and B2.

    Stage 1 multiplies by K = lcm(1..B1), the largest power of each prime up to
    B1 (its exponent is exact: no power of p lies in (B1, B1 + 1/2]); ``steps``
    are the reductions of a curve that finds nothing: 7 + 4 per bit of K, 4 + 2
    per odd j < D/2, 8 + 2 per giant, 3 per point inverted, 1 per (giant, baby).
    """
    K = math.prod(p ** int(math.log(B1 + 0.5, p)) for p in _SMALL_PRIMES if p <= B1)
    bits, giants = bin(K)[3:], B2 // _ECM_D + 1
    return bits, giants, (7 + 4 * len(bits) + 4 + 2 * len(range(1, _ECM_D // 2, 2)) + 8 + 2 * giants
                          + 3 * (_ECM_BABY + giants) + _ECM_BABY * giants)


# (bits, giants, steps) for the curves sigma = 6, 7, ..., from (curves, B1, B2)
_ECM_SCHEDULE = [level for curves, B1, B2 in ((30, 150, 3750), (20, 300, 12000), (50, 600, 30000))
                 for level in [_ecm_level(B1, B2)] * curves]


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


def is_unit_square(x: int, v: int) -> bool:
    """Whether x, a unit at the prime v, is a square in Q_v."""
    if v == 2:
        return x % 8 == 1
    return jacobi(x, v) == 1


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
    # V_k, V_(k+1) and Q^k for P = 1, from k = 1 along the bits of d, by
    # V_2k = V_k^2 - 2 Q^k and V_(2k+1) = V_k V_(k+1) - Q^k
    V, W, Qk = 1, (1 - 2 * Q) % n, Q % n
    for bit in bin(d)[3:]:
        if bit == "1":
            V, W, Qk = (V * W - Qk) % n, (W * W - 2 * Qk * Q) % n, Qk * Qk * Q % n
        else:
            V, W, Qk = (V * V - 2 * Qk) % n, (V * W - Qk) % n, Qk * Qk % n
    # D U_d = 2 V_(d+1) - V_d, and D is prime to n: U_d = 0 iff 2 V_(d+1) = V_d
    if (2 * W - V) % n == 0 or V == 0:
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
    if math.gcd(n, _PRIMORIAL) != 1:
        return n < TRIAL_LIMIT and n in _SMALL_PRIMES
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
            used += 2 * batch
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


def _ecm_curve(n: int, sigma: int, bits: str, giants: int) -> int:
    """gcd(n, .) after both stages of ECM on Suyama's curve sigma >= 6, with the
    bits of K and the giant steps of an _ecm_level: a factor of n, 1 or n."""
    u, v = sigma * sigma - 5, 4 * sigma
    den = 16 * u ** 3 * v ** 3 % n
    if (g := math.gcd(den, n)) != 1:
        return g
    inv = pow(den, -1, n)
    a24 = (v - u) ** 3 * (3 * u + v) * v * v * inv % n  # (A + 2) / 4 of By^2 = x^3 + Ax^2 + x
    x = 16 * u ** 6 * inv % n  # u^3 / v^3: the base point P, with Z = 1
    # Montgomery's ladder on (X:Z) = kP and (S:T) = (k+1)P, which differ by P:
    # 2(U:V) = (s d : e (d + a24 e)) with s = (U + V)^2, d = (U - V)^2, e = s - d,
    # and kP + (k+1)P = ((a + b)^2 : x (a - b)^2) with a = (X - Z)(S + T), b = (X + Z)(S - T)
    X, Z, (S, T) = x, 1, _xdbl((x, 1), a24, n)
    for bit in bits:
        p, m, P, M = X + Z, X - Z, S + T, S - T
        a, b = m * P, p * M
        if bit == "1":  # (kP + (k+1)P, 2(k+1)P)
            s, d = P * P, M * M
            e = s - d
            S, T = s * d % n, e * (d + a24 * e) % n
            s, d = a + b, a - b
            X, Z = s * s % n, x * d * d % n
        else:  # (2kP, kP + (k+1)P)
            s, d = p * p, m * m
            e = s - d
            X, Z = s * d % n, e * (d + a24 * e) % n
            s, d = a + b, a - b
            S, T = s * s % n, x * d * d % n
    if (g := math.gcd(Z, n)) != 1:  # stop before stage 2 finds every factor
        return g
    # stage 2: if Q has prime order l = mD +- j modulo a factor p of n, with
    # j < D/2 prime to D, then x(mG) = x(jQ) mod p for G = DQ
    Q = X, Z
    points, prev, cur, Q2 = [], Q, Q, _xdbl(Q, a24, n)
    for j in range(1, _ECM_D // 2, 2):  # the babies jQ; then cur is (D/2)Q
        if math.gcd(j, _ECM_D) == 1:
            points.append(cur)
        prev, cur = cur, _xadd(cur, Q2, prev, n)
    G = _xdbl(cur, a24, n)
    cur, nxt = G, _xdbl(G, a24, n)
    for _ in range(giants):  # the giants G, 2G, ...
        points.append(cur)
        cur, nxt = nxt, _xadd(nxt, G, cur, n)
    # x = X / Z for every point, from one inversion (Montgomery's trick)
    prefix = [*itertools.accumulate((Z for _, Z in points), lambda acc, Z: acc * Z % n, initial=1)]
    if (g := math.gcd(prefix[-1], n)) != 1:
        return g
    inv, xs = pow(prefix[-1], -1, n), []
    for (X, Z), before in zip(reversed(points), reversed(prefix[:-1])):
        xs.append(X * before * inv % n)
        inv = inv * Z % n
    acc, babies = 1, xs[-_ECM_BABY:]  # xs runs backwards: the giants, then the babies
    for xg in xs[:-_ECM_BABY]:
        for xb in babies:
            acc = acc * (xg - xb) % n
    return math.gcd(acc, n)


def _split(n: int, out: dict, budget: int, k: int = 1) -> int:
    """Add the prime factors of n**k (none below TRIAL_LIMIT) to out; return the budget left."""
    if n == 1:
        return budget
    if _is_prime_no_small_factor(n):
        out[n] = out.get(n, 0) + k
        return budget
    g, used = _brent(n, 1, min(_BRENT_FIRST, budget))
    budget -= used
    if not 1 < g < n:
        # rho finds the prime q of q^e in sqrt(q) steps; a root finds it at once
        for e in range(n.bit_length() // 9, 1, -1):  # every prime factor exceeds 2^9
            r = _integer_root(n, e)
            if r ** e == n:
                return _split(r, out, budget, k * e)
    for sigma, (bits, giants, steps) in enumerate(_ECM_SCHEDULE, 6):
        if 1 < g < n or budget < steps:
            break
        g = _ecm_curve(n, sigma, bits, giants)
        budget -= steps
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
    # g holds n's prime factors below TRIAL_LIMIT: one gcd finds them, or n
    # itself below TRIAL_LIMIT^2, where the loop stops at the square root
    g = n if n < TRIAL_LIMIT * TRIAL_LIMIT else math.gcd(n, _PRIMORIAL)
    for p in _SMALL_PRIMES:
        if p * p > n:
            if n > 1:
                out[n] = 1
            return out
        if g == 1:
            break
        if g % p == 0:
            g //= p
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    large = {}
    _split(n, large, RHO_BUDGET)
    out.update(sorted(large.items()))
    return out
