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
finds. A composite cofactor loads the splitting kernel, ``factor_kernel``,
and meets a short run of Pollard's rho in Brent's form (R. P. Brent, BIT 20,
1980), which finds most factors below 10^6, then a perfect power check if
that run fails; then one run of Pollard's p - 1 with B1 = 2000 and B2 = 20000
(J. M. Pollard, 1974), its stage 2 on V_k = x^k + x^-k with baby and giant
steps (P. L. Montgomery, Math. Comp. 48, 1987); then Lenstra's elliptic curve
method (Ann. Math. 126, 1987) on Montgomery curves with Suyama's sigma = 6,
7, ..., B1 and B2 rising with the curve (P. Zimmermann and B. Dodson, ANTS
VII, 2006): 30 curves at 150 and 3750, 20 at 300 and 12000, 50 at 600 and
30000; then Pollard-Brent with c = 1, 2, ...

``factor`` spends at most RHO_BUDGET units on one number, and then raises
``FactorizationBudgetError``. A step, one reduction modulo a cofactor of b
bits, costs max(1, b^2 // 2^12) units, as a reduction costs more on a
longer number. A p - 1 run is charged its stage 1 squarings and window
products and its stage 2 reductions, an ECM curve its reductions. So
spending the whole budget takes at most about 0.7 s of CPU time at any
length (2 shared cores, Python 3.11.7). A cofactor of more than MAX_BITS =
4096 bits is refused at once. The budget is sized for every number whose
second-largest prime factor is below 10^12 (scripts/factor_need.py measures
it).
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
_PRIMORIAL = math.prod(_SMALL_PRIMES)
_MR_BASES = _SMALL_PRIMES[:13]
PSI_13 = 3317044064679887385961981
_BPSW_EXACT = 1 << 64  # no BPSW pseudoprime below it
# psi_k, below which the first k prime bases decide primality; psi_7 and psi_9
# lie below 2^64, where BPSW is exact and cheaper
_MR_RANGES = ((318665857834031151167461, 12), (PSI_13, 13))

# units of Pollard-Brent, p - 1 and ECM work allowed per factor() call, a
# step (one reduction modulo a cofactor of b bits) costing max(1, b^2 // 2^12)
# units: 5.0 times the largest need that scripts/factor_need.py measures
# (466,587 units, for 474532848780245190198108137)
RHO_BUDGET = 2_350_000
# longer cofactors are refused at once: their primality test and perfect
# power check, which the budget does not charge, grow as the cube of the length
MAX_BITS = 4096


class FactorizationBudgetError(ArithmeticError, Refused):
    """factor() gave up: the number has more than one large prime factor, or a
    cofactor longer than MAX_BITS."""


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


def _split(n: int, out: dict, budget: int, k: int = 1) -> int:
    """Add the prime factors of n**k (none below TRIAL_LIMIT) to out; return the budget left."""
    if n == 1:
        return budget
    if n.bit_length() > MAX_BITS:
        raise FactorizationBudgetError(f"a {n.bit_length()}-bit cofactor is longer than the {MAX_BITS} bits"
                                       " that factor() accepts")
    if _is_prime_no_small_factor(n):
        out[n] = out.get(n, 0) + k
        return budget
    from . import factor_kernel as fk  # compiled for the first composite cofactor only

    w = max(1, n.bit_length() ** 2 >> 12)  # units per step, as a reduction costs more on a longer n
    g, used = fk._brent(n, 1, min(fk._BRENT_FIRST, budget // w))
    budget -= used * w
    if not 1 < g < n:
        # rho finds the prime q of q^e in sqrt(q) steps; a root finds it at once. Prime e
        # suffice, largest first, as the root's own split finds its powers; q > 2^9, so 9e <= b
        for e in reversed([e for e in _SMALL_PRIMES if 9 * e <= n.bit_length()]):
            r = _integer_root(n, e)
            if r ** e == n:
                return _split(r, out, budget, k * e)
    for E, giants, steps in fk._PM1_RUNS:
        if 1 < g < n or budget < steps * w:
            break
        g = fk._pm1(n, E, giants)
        budget -= steps * w
    for sigma, (bits, giants, steps) in enumerate(fk._ECM_SCHEDULE, 6):
        if 1 < g < n or budget < steps * w:
            break
        g = fk._ecm_curve(n, sigma, bits, giants)
        budget -= steps * w
    c = 1
    while not 1 < g < n:
        g, used = fk._brent(n, c, budget // w)
        budget -= used * w
        if g == 1:
            raise FactorizationBudgetError(
                f"factorization budget exhausted: {RHO_BUDGET} units of Pollard-Brent, p-1 and ECM work"
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
