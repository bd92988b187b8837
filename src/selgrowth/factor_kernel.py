"""The splitting kernel of ``arith.factor``: Pollard-Brent, Pollard's p - 1 and ECM.

``arith._split`` imports this module only for a composite cofactor, so a
call whose numbers factor by trial division never compiles it. Each method
takes a composite n with no prime factor below ``arith.TRIAL_LIMIT`` and
returns a divisor of n; ``_split`` charges its steps to the budget. The
methods, their order and their references are in ``arith``'s docstring.
"""

from __future__ import annotations

import itertools
import math

from .arith import _sieve

_BATCH = 128
_BRENT_FIRST = 2048  # Pollard-Brent steps before p - 1 and ECM
_ECM_D = 210  # stage 2's giant step, with D/2 odd, for p - 1 and ECM
_ECM_BABY = sum(math.gcd(j, _ECM_D) == 1 for j in range(1, _ECM_D // 2, 2))


def _lcm_upto(B: int) -> int:
    """lcm(1..B): the largest power of each prime up to B (its exponent is
    exact, as no power of p lies in (B, B + 1/2])."""
    return math.prod(p ** int(math.log(B + 0.5, p)) for p in _sieve(B + 1))


def _ecm_level(B1: int, B2: int) -> tuple:
    """(bits, giants, steps) of an ECM curve with bounds B1 and B2.

    Stage 1 multiplies by K = lcm(1..B1); ``steps`` are the reductions of a
    curve that finds nothing: 7 + 4 per bit of K, 4 + 2 per odd j < D/2,
    8 + 2 per giant, 3 per point inverted, 1 per (giant, baby).
    """
    bits, giants = bin(_lcm_upto(B1))[3:], B2 // _ECM_D + 1
    return bits, giants, (7 + 4 * len(bits) + 4 + 2 * len(range(1, _ECM_D // 2, 2)) + 8 + 2 * giants
                          + 3 * (_ECM_BABY + giants) + _ECM_BABY * giants)


def _pm1_level(B1: int, B2: int) -> tuple:
    """(E, giants, steps) of a p - 1 run with bounds B1 and B2.

    ``steps`` charge a run that finds nothing. Stage 1 is charged 6 per 5
    bits of E = lcm(1..B1) and 32 more: pow's squarings, at most one window
    product per 5 bits, its table of powers and the inverse of x. Stage 2 is
    charged its reductions: 3 + 1 per odd j < D/2, then 2 per giant.
    """
    E = _lcm_upto(B1)
    giants = B2 // _ECM_D + 1
    return E, giants, E.bit_length() * 6 // 5 + 32 + 3 + len(range(1, _ECM_D // 2, 2)) + 2 * giants


# (bits, giants, steps) for the curves sigma = 6, 7, ..., from (curves, B1, B2)
_ECM_SCHEDULE = [level for curves, B1, B2 in ((30, 150, 3750), (20, 300, 12000), (50, 600, 30000))
                 for level in [_ecm_level(B1, B2)] * curves]
# (E, giants, steps) of each p - 1 run before the first curve
_PM1_RUNS = [_pm1_level(2000, 20000)]


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


def _pm1(n: int, E: int, giants: int) -> int:
    """gcd(n, .) after both stages of p - 1 with base 3, with the exponent and
    giant steps of a _pm1_level: a factor of n, 1 or n."""
    x = pow(3, E, n)
    if (g := math.gcd(x - 1, n)) != 1:  # n when stage 1 finds every prime of n
        return g
    # stage 2: if x has prime order l = mD +- j modulo a prime p of n, with j < D/2
    # prime to D, then p divides V_mD - V_j for V_k = x^k + x^-k; V_(a+b) =
    # V_a V_b - V_(a-b), with V_0 = 2 and V_-k = V_k, steps from V_-1 by 2 and from V_0 by D
    v = (x + pow(x, -1, n)) % n  # x is a unit: n has no factor 3
    v2 = (v * v - 2) % n
    babies, prev, cur = [], v, v
    for j in range(1, _ECM_D // 2, 2):  # the babies V_j; then cur is V_(D/2)
        if math.gcd(j, _ECM_D) == 1:
            babies.append(cur)
        prev, cur = cur, (cur * v2 - prev) % n
    vd = (cur * cur - 2) % n
    acc, prev, cur = 1, 2, vd
    for _ in range(giants):  # the giants V_D, V_2D, ...: one product per giant
        acc = acc * math.prod([cur - b for b in babies]) % n
        prev, cur = cur, (cur * vd - prev) % n
    return math.gcd(acc, n)


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
