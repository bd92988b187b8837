"""Splitting behaviour of rational primes in the Galois extensions we support.

Every local class is selected from the group's one enumeration of
(decomposition, inertia) pairs, ``FiniteGroup.local_classes``; nothing here
builds a pair of its own. For multiquadratic fields Q(sqrt(d1), sqrt(d2))
the three quadratic residue symbols name the classes of D and I inside
C2 x C2. For other fields a monic defining polynomial gives the Frobenius
cycle type at unramified primes via distinct-degree factorization, and the
pattern selects the one class with trivial inertia and |D| equal to the
common factor degree. Ramified primes there, and patterns that several
classes fit ({2,2} in C2 x C2, {p,...,p} in Cp x Cp), must be supplied
explicitly (the CLI --local-class override).

The defining-polynomial pathway is a convenience extrapolation: the quotient
engine itself only consumes the abstract (decomposition, inertia) pair.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import factor
from .groups import (
    FiniteGroup,
    GroupError,
    LocalClass,
    Subgroup,
    make_elem_abelian,
)

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"


class AmbiguousSplittingError(ValueError):
    """The degree pattern does not pin down the decomposition group."""


class RamifiedPrimeError(ValueError):
    """Ramified prime outside the computed scope; supply the class explicitly."""


def is_squarefree(d: int) -> bool:
    if d == 0:
        return False
    return all(e == 1 for e in factor(abs(d)).values())


def quadratic_symbol(d: int, v: int) -> str:
    """Splitting of the prime v in Q(sqrt(d)) for squarefree d != 0, 1."""
    if d in (0, 1) or not is_squarefree(d):
        raise ValueError(f"need a squarefree integer other than 0, 1; got {d}")
    return _symbol(d, v)


def _symbol(d: int, v: int) -> str:
    """quadratic_symbol for a d already known to be squarefree and not 0 or 1."""
    if v == 2:
        r = d % 8
        if r in (2, 3, 6, 7):  # d = 2, 3 mod 4
            return RAMIFIED
        return SPLIT if r == 1 else INERT
    if d % v == 0:
        return RAMIFIED
    return SPLIT if pow(d % v, (v - 1) // 2, v) == 1 else INERT


def third_discriminant(d1: int, d2: int) -> int:
    """Squarefree d3 with Q(sqrt(d3)) the third quadratic subfield."""
    g = math.gcd(abs(d1), abs(d2))
    return (d1 // g) * (d2 // g)


def _validate_multiquadratic(d1: int, d2: int) -> None:
    for d in (d1, d2):
        if d in (0, 1) or not is_squarefree(d):
            raise ValueError(f"multiquadratic discriminants must be squarefree, not 0 or 1; got {d}")
    if d1 == d2:
        raise ValueError("multiquadratic discriminants must be distinct")
    d3 = third_discriminant(d1, d2)
    if d3 in (0, 1):
        raise ValueError(f"d1*d2 = {d1 * d2} is a square; the field is not biquadratic")


def multiquadratic_local_class(
    d1: int, d2: int, v: int, group: FiniteGroup | None = None
) -> LocalClass:
    """Decomposition/inertia pair of v in Q(sqrt(d1), sqrt(d2)).

    With G = C2 x C2 generated by sign changes on sqrt(d1) and sqrt(d2), the
    three quadratic subfields are fixed by the three order-2 subgroups:
    inertia is the meet of the fixers of subfields unramified at v, and the
    decomposition group is the meet of the fixers of subfields where v splits.
    """
    _validate_multiquadratic(d1, d2)
    return _multiquadratic_class(d1, d2, v, group if group is not None else make_elem_abelian(2))


def _multiquadratic_class(d1: int, d2: int, v: int, G: FiniteGroup) -> LocalClass:
    """multiquadratic_local_class for discriminants already validated."""
    if G.family is None or G.family.name != "c2xc2":
        raise GroupError("multiquadratic local classes live in c2xc2")
    d3 = third_discriminant(d1, d2)
    # element (i, j) = index 2i + j flips sqrt(d1) iff i = 1, sqrt(d2) iff j = 1
    fixers = {d1: {0, 1}, d2: {0, 2}, d3: {0, 3}}  # the fixer of each sqrt(d)
    # d1 and d2 passed validation, so d3 = d1 d2 / gcd(d1, d2)^2 is squarefree too
    symbols = {d: _symbol(d, v) for d in (d1, d2, d3)}
    inertia, decomp = set(range(4)), set(range(4))
    for d, sym in symbols.items():
        if sym != RAMIFIED:
            inertia &= fixers[d]
        if sym == SPLIT:
            decomp &= fixers[d]
    if v != 2 and any(s == RAMIFIED for s in symbols.values()):
        unram = [d for d, s in symbols.items() if s != RAMIFIED]
        if len(unram) != 1:
            raise GroupError(f"ramified odd v = {v} is unramified in {len(unram)} quadratic subfields, not 1")
    return G.local_class(G.class_of_subgroup(Subgroup(decomp)), G.class_of_subgroup(Subgroup(inertia)))


# -- field specifications ------------------------------------------------------


class FieldSpec(NamedTuple):
    """How the top field F is described: multiquadratic, polynomial, or abstract.

    Build one with ``multiquadratic``, ``polynomial`` or ``abstract``, which
    check the description once; code that receives a FieldSpec relies on that.
    """

    kind: str  # "multiquadratic" | "polynomial" | "abstract"
    group: FiniteGroup
    d1: int | None = None
    d2: int | None = None
    poly: tuple | None = None  # monic integer coefficients, degree-descending

    @staticmethod
    def multiquadratic(d1: int, d2: int) -> "FieldSpec":
        _validate_multiquadratic(d1, d2)
        return FieldSpec(kind="multiquadratic", group=make_elem_abelian(2), d1=d1, d2=d2)

    @staticmethod
    def polynomial(coeffs, group: FiniteGroup) -> "FieldSpec":
        coeffs = tuple(int(c) for c in coeffs)
        if not coeffs or coeffs[0] != 1:
            raise ValueError("defining polynomial must be monic (leading coefficient 1)")
        if len(coeffs) - 1 != group.order:
            raise ValueError(
                f"polynomial degree {len(coeffs) - 1} does not match the group order {group.order}"
            )
        try:
            from sympy import Poly, Symbol
        except ImportError:
            raise ValueError(
                "polynomial fields need sympy to test irreducibility; "
                "install the 'poly' extra: pip install 'selgrowth[poly]'"
            ) from None

        x = Symbol("x")
        if not Poly(list(coeffs), x).is_irreducible:
            raise ValueError("defining polynomial is reducible over Q")
        return FieldSpec(kind="polynomial", group=group, poly=coeffs)

    @staticmethod
    def abstract(group: FiniteGroup) -> "FieldSpec":
        return FieldSpec(kind="abstract", group=group)

    def describe(self) -> dict:
        if self.kind == "multiquadratic":
            return {"kind": self.kind, "d1": self.d1, "d2": self.d2}
        if self.kind == "polynomial":
            return {"kind": self.kind, "coeffs": list(self.poly)}
        return {"kind": self.kind}


# -- degree patterns over F_v ---------------------------------------------------

# dense polynomials over F_v as coefficient lists, lowest degree first


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _polmulmod(a, b, f, v):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % v
    return _polrem(out, f, v)


def _polrem(a, f, v):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, v)
    while len(a) - 1 >= df and a:
        if a[-1] == 0:
            a.pop()
            continue
        q = a[-1] * inv_lead % v
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - q * fi) % v
        a.pop()
    return _trim(a)


def _polgcd(a, b, v):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _polrem(a, b, v)
    if a:
        inv_lead = pow(a[-1], -1, v)
        a = [c * inv_lead % v for c in a]
    return a


def _poldiv(a, b, v):
    """Exact quotient a / b over F_v (assumes b | a)."""
    a = _trim(list(a))
    b = _trim(list(b))
    q = [0] * (len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, v)
    while len(a) >= len(b) and a:
        c = a[-1] * inv_lead % v
        d = len(a) - len(b)
        q[d] = c
        for i, bi in enumerate(b):
            a[d + i] = (a[d + i] - c * bi) % v
        _trim(a)
    return q


def _frobenius_power(h, f, v):
    """h(x)^v mod f over F_v by square and multiply."""
    result = [1]
    base = h
    e = v
    while e:
        if e & 1:
            result = _polmulmod(result, base, f, v)
        base = _polmulmod(base, base, f, v)
        e >>= 1
    return result


def factor_degree_pattern(coeffs, v: int) -> tuple:
    """Degrees of the irreducible factors of a monic poly mod v (sorted).

    Distinct-degree factorization: x^(v^k) - x catches the degree-k part.
    Rejects primes where the reduction is not squarefree (v | disc).
    """
    coeffs = [int(c) for c in coeffs]
    if coeffs[0] != 1:
        raise ValueError("polynomial must be monic")
    f = _trim([c % v for c in reversed(coeffs)])
    if len(f) - 1 != len(coeffs) - 1:
        raise RamifiedPrimeError(f"leading coefficient vanishes mod {v}")
    deriv = _trim([(i * f[i]) % v for i in range(1, len(f))])
    if len(_polgcd(f, deriv, v)) > 1:
        raise RamifiedPrimeError(
            f"{v} divides the polynomial discriminant; supply --local-class explicitly"
        )
    degrees = []
    work = list(f)
    h = [0, 1]  # x
    k = 0
    while len(work) > 1:
        k += 1
        if 2 * k > len(work) - 1:
            degrees.extend([len(work) - 1])
            break
        h = _frobenius_power(h, work, v)
        hx = list(h)
        # h - x
        while len(hx) < 2:
            hx.append(0)
        hx[1] = (hx[1] - 1) % v
        g = _polgcd(work, _trim(hx), v)
        if len(g) > 1:
            deg = len(g) - 1
            if deg % k:
                raise ValueError(f"the degree-{k} part mod {v} has degree {deg}, not a multiple of {k}")
            degrees.extend([k] * (deg // k))
            work = _poldiv(work, g, v)
            h = _polrem(h, work, v)
    out = tuple(sorted(degrees))
    if sum(out) != len(coeffs) - 1:
        raise ValueError(f"factor degrees {out} mod {v} do not sum to the degree {len(coeffs) - 1}")
    return out


def frobenius_class(G: FiniteGroup, pattern) -> LocalClass:
    """Local class of an unramified prime from the factor degree pattern.

    The defining polynomial has degree |G|, so its roots form a torsor under
    G and all factor degrees equal the order d of Frobenius. The answer is
    the enumerated local class with trivial inertia and |D| = d, when exactly
    one exists. None (no cyclic subgroup of order d) raises ValueError; more
    than one, as for {2,2} in c2xc2 and {p,...,p} in cpxcp, raises
    AmbiguousSplittingError, and the class must be overridden.
    """
    pattern = tuple(sorted(pattern))
    if sum(pattern) != G.order:
        raise ValueError(f"pattern {pattern} does not sum to the group order {G.order}")
    if len(set(pattern)) != 1:
        raise ValueError(f"pattern {pattern} is not a Galois cycle type for this group")
    d = pattern[0]
    found = [lc for lc in G.local_classes if lc.e == 1 and len(lc.decomposition) == d]
    if not found:
        raise ValueError(f"no cyclic subgroup of order {d} in {G.family or 'this group'}")
    if len(found) > 1:
        raise AmbiguousSplittingError(
            f"pattern {{{','.join(map(str, pattern))}}} cannot tell the {len(found)} "
            f"order-{d} classes apart; pass --local-class explicitly"
        )
    return found[0]


def biquadratic_defining_polynomial(d1: int, d2: int) -> tuple:
    """Minimal polynomial of sqrt(d1) + sqrt(d2), degree-descending coefficients."""
    _validate_multiquadratic(d1, d2)
    return (1, 0, -2 * (d1 + d2), 0, (d1 - d2) ** 2)
