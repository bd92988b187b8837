"""Local arithmetic of elliptic curves over Q, restricted to the semistable case.

Covers the standard Weierstrass formulary, global minimal models by the
Laska-Kraus-Connell method, and per-prime reduction types with the split
versus non-split classification; the Tamagawa numbers come from Tate's rule,
``records.tamagawa``. Ranks, torsion orders and Tate-Shafarevich data are
never computed here; they are ingested alongside the model and carried as
assumptions.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import MAX_BITS, factor, is_prime, is_unit_square, jacobi
from .records import ADDITIVE, GOOD, NONSPLIT_MULT, SPLIT_MULT, Record, Refused, tamagawa


class SingularModelError(ValueError):
    pass


class CurveCheckError(ArithmeticError, Refused):
    """A guard of the curve arithmetic failed: a formulary identity or a stated precondition."""


def _check(ok: bool, what: str) -> None:
    # a raised error, unlike assert, still guards the output under python -O
    if not ok:
        raise CurveCheckError(what)


class WeierstrassModel(Record):
    """The model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over the integers.

    Building one converts the coefficients to int, computes the invariants
    once (kept as ``invariants``) and refuses a singular model. Models are
    immutable and compare and hash by their a-invariants alone.
    """

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "invariants")

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int):
        self._set(int(a1), int(a2), int(a3), int(a4), int(a6))
        inv = compute_invariants(self)
        if inv.delta == 0:
            raise SingularModelError(f"singular model {self.ainvs()}")
        object.__setattr__(self, "invariants", inv)

    def ainvs(self) -> tuple:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    _values = ainvs  # the record's fields: invariants derive from them

    @staticmethod
    def from_ainvs(ainvs) -> "WeierstrassModel":
        a1, a2, a3, a4, a6 = (int(x) for x in ainvs)
        return WeierstrassModel(a1, a2, a3, a4, a6)


class Invariants(NamedTuple):
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    delta: int


def compute_invariants(m: WeierstrassModel) -> Invariants:
    """Standard b, c and discriminant invariants of an integral model."""
    b2 = m.a1 * m.a1 + 4 * m.a2
    b4 = 2 * m.a4 + m.a1 * m.a3
    b6 = m.a3 * m.a3 + 4 * m.a6
    b8 = (
        m.a1 * m.a1 * m.a6
        + 4 * m.a2 * m.a6
        - m.a1 * m.a3 * m.a4
        + m.a2 * m.a3 * m.a3
        - m.a4 * m.a4
    )
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    _check(4 * b8 == b2 * b6 - b4 * b4, "4 b8 != b2 b6 - b4^2")
    _check(1728 * delta == c4 ** 3 - c6 ** 2, "1728 delta != c4^3 - c6^2")
    return Invariants(b2, b4, b6, b8, c4, c6, delta)


def _ord(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _kraus_ok_at_2(c4: int, c6: int) -> bool:
    # existence of an integral model with these invariants, 2-adic condition
    return c6 % 4 == 3 or (c4 % 16 == 0 and c6 % 32 in (0, 8))


def _kraus_ok_at_3(c6: int) -> bool:
    return c6 % 27 not in (9, 18)


def _ainvs_from_c_invariants(c4: int, c6: int) -> tuple:
    """The a-invariants of the normalized integral model with given c4, c6
    (Kraus conditions assumed)."""
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    if b2 % 4 not in (0, 1):
        raise SingularModelError(f"no integral model with c4={c4}, c6={c6}")
    if (b2 * b2 - c4) % 24 != 0:
        raise SingularModelError(f"no integral model with c4={c4}, c6={c6}")
    b4 = (b2 * b2 - c4) // 24
    num = -(b2 ** 3) + 36 * b2 * b4 - c6
    if num % 216 != 0:
        raise SingularModelError(f"no integral model with c4={c4}, c6={c6}")
    b6 = num // 216
    a1 = b2 % 2
    a2 = (b2 - a1) // 4
    a3 = b6 % 2
    _check((b4 - a1 * a3) % 2 == 0 and (b6 - a3) % 4 == 0,
           "no integral a4, a6 (Kraus conditions fail)")
    a4 = (b4 - a1 * a3) // 2
    a6 = (b6 - a3) // 4
    return a1, a2, a3, a4, a6


def minimal_model(m: WeierstrassModel) -> WeierstrassModel:
    """Global minimal model over Q via Laska-Kraus-Connell.

    The output discriminant divides the input discriminant, the quotient is
    a perfect 12th power, and the model is in the standard normalized form
    (a1, a3 in {0,1} and a2 in {-1,0,1}). An input that is already that
    model comes back itself.
    """
    inv = m.invariants
    c4, c6 = inv.c4, inv.c6
    u = 1
    for p in factor(math.gcd(c4, c6)):  # not gcd(0, 0): delta != 0
        # the scaled discriminant delta / u^12 must stay integral
        u *= p ** min(_ord(x, p) // k for x, k in ((inv.delta, 12), (c4, 4), (c6, 6)) if x)

    # Kraus adjustments; the unscaled invariants come from an integral model,
    # so dividing u by 3 or 2 ends at an integer u.
    while not _kraus_ok_at_3(c6 // u ** 6):
        _check(u % 3 == 0, "Kraus adjustment at 3 went below the input model")
        u //= 3
    while not _kraus_ok_at_2(c4 // u ** 4, c6 // u ** 6):
        _check(u % 2 == 0, "Kraus adjustment at 2 went below the input model")
        u //= 2

    ainvs = _ainvs_from_c_invariants(c4 // u ** 4, c6 // u ** 6)
    mm = m if u == 1 and ainvs == m.ainvs() else WeierstrassModel(*ainvs)
    _check(mm.invariants.delta * u ** 12 == inv.delta, "delta_min * u^12 != input delta")
    return mm


# -- reduction types ----------------------------------------------------------


class ReductionData(NamedTuple):
    v: int
    kind: str
    m: int  # ord_v of the minimal discriminant
    tamagawa: int | None  # None for additive reduction (would need Tate's algorithm)

    def is_multiplicative(self) -> bool:
        return self.kind in (SPLIT_MULT, NONSPLIT_MULT)


def reduction_at(c4: int, c6: int, v: int, m: int) -> ReductionData:
    """Reduction at v of a minimal model with invariants c4, c6 and m = ord_v(delta_min)."""
    if m == 0:
        kind = GOOD
    elif c4 % v == 0:
        kind = ADDITIVE
    elif is_unit_square(-c6, v):  # split multiplicative; v never divides c6 here
        kind = SPLIT_MULT
    else:
        kind = NONSPLIT_MULT
    return ReductionData(v, kind, m, tamagawa(kind, 1, 1, m))


class CurveProfile(NamedTuple):
    """Minimal model plus local data plus the ingested global assumptions."""

    model: WeierstrassModel  # minimal: its invariants give c4, c6 and delta_min
    bad_places: tuple  # ReductionData at each prime dividing delta_min, sorted
    rank: int
    torsion_order: int
    sha_p_trivial_assumed: frozenset
    label: str | None = None

    def is_semistable(self) -> bool:
        return all(rd.kind != ADDITIVE for rd in self.bad_places)

    def reduction(self, v: int) -> ReductionData:
        for rd in self.bad_places:
            if rd.v == v:
                return rd
        inv = self.model.invariants
        return reduction_at(inv.c4, inv.c6, v, 0)

    def hypothesis_counts(self) -> tuple:
        """(is_semistable, #non-split places, #non-split places with even ord)."""
        nonsplit = [rd for rd in self.bad_places if rd.kind == NONSPLIT_MULT]
        n_even = sum(1 for rd in nonsplit if rd.m % 2 == 0)
        return self.is_semistable(), len(nonsplit), n_even


def make_profile(
    model: WeierstrassModel,
    rank: int,
    torsion_order: int = 1,
    sha_p_trivial=(),
    label: str | None = None,
) -> CurveProfile:
    """Minimalize the model and assemble reduction data at every bad prime."""
    if rank < 0 or torsion_order < 1:
        raise ValueError("rank must be >= 0 and torsion order >= 1")
    for p in sha_p_trivial:
        if int(p).bit_length() > MAX_BITS:  # refused by length, before is_prime spends seconds on it
            raise ValueError(f"Sha[p^inf] can be assumed trivial only at primes p, got a "
                             f"{int(p).bit_length()}-bit number, longer than the {MAX_BITS} bits checked")
        if not is_prime(int(p)):
            raise ValueError(f"Sha[p^inf] can be assumed trivial only at primes p, got {p}")
    mm = minimal_model(model)
    inv = mm.invariants
    bad = tuple(reduction_at(inv.c4, inv.c6, v, m) for v, m in factor(abs(inv.delta)).items())
    return CurveProfile(
        model=mm,
        bad_places=bad,
        rank=int(rank),
        torsion_order=int(torsion_order),
        sha_p_trivial_assumed=frozenset(int(p) for p in sha_p_trivial),
        label=label,
    )


def ap_oracle(model: WeierstrassModel, v: int) -> str:
    """Classify multiplicative reduction at an odd prime by point counting.

    Counts affine points of the reduced curve over F_v, removes the unique
    node, adds the point at infinity; v - 1 smooth points means split and
    v + 1 means non-split. Independent of the -c6 square criterion.
    """
    if v == 2 or v > 10 ** 4:
        raise ValueError(f"point-count oracle needs an odd prime <= 10^4, got {v}")
    inv = model.invariants
    rd = reduction_at(inv.c4, inv.c6, v, _ord(inv.delta, v))
    if not rd.is_multiplicative():
        raise ValueError(f"reduction at {v} is {rd.kind}, not multiplicative")
    b2, b4, b6 = inv.b2 % v, inv.b4 % v, inv.b6 % v
    # complete the square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
    affine = 0
    nodes = []
    for x in range(v):
        g = (4 * x * x * x + b2 * x * x + 2 * b4 * x + b6) % v
        if g == 0:
            affine += 1
            dg = (12 * x * x + 2 * b2 * x + 2 * b4) % v
            if dg == 0:
                nodes.append(x)
        else:
            affine += 1 + jacobi(g, v)
    _check(len(nodes) == 1, f"expected a unique node mod {v}")
    smooth = affine - 1 + 1  # drop the node, add the point at infinity
    if smooth == v - 1:
        return "split"
    _check(smooth == v + 1, f"unexpected smooth point count {smooth} mod {v}")
    return "nonsplit"
