"""Splitting behaviour of rational primes in the Galois extensions we support.

Every local class is selected from the group's one enumeration of
(decomposition, inertia) pairs, ``FiniteGroup.local_classes``; nothing here
builds a pair of its own. For multiquadratic fields Q(sqrt(d1), sqrt(d2))
the three quadratic residue symbols name the classes of D and I inside
C2 x C2. For other fields a monic defining polynomial gives the Frobenius
cycle type at unramified primes via sympy's factorization over F_v, and the
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

from .arith import factor, is_unit_square
from .groups import FiniteGroup, GroupError, LocalClass, make_elem_abelian
from .records import Refused

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"


class AmbiguousSplittingError(ValueError, Refused):
    """The degree pattern does not pin down the decomposition group."""


class MissingLocalClassError(ValueError, Refused):
    """No computed or supplied (decomposition, inertia) pair for a bad prime."""


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
    if (v == 2 and d % 4 in (2, 3)) or (v != 2 and d % v == 0):
        return RAMIFIED
    return SPLIT if is_unit_square(d, v) else INERT


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
    # so d3 = d1 d2 / gcd(d1, d2)^2 is neither 0 nor 1: the field is biquadratic


def multiquadratic_local_class(d1: int, d2: int, v: int) -> LocalClass:
    """Decomposition/inertia pair of v in Q(sqrt(d1), sqrt(d2)).

    With G = C2 x C2 generated by sign changes on sqrt(d1) and sqrt(d2), the
    three quadratic subfields are fixed by the three order-2 subgroups:
    inertia is the meet of the fixers of subfields unramified at v, and the
    decomposition group is the meet of the fixers of subfields where v splits.
    """
    return FieldSpec.multiquadratic(d1, d2).local_class(v, None)


def _multiquadratic_class(d1: int, d2: int, v: int, G: FiniteGroup) -> LocalClass:
    """multiquadratic_local_class for discriminants already validated.

    The class depends on v only through the symbols of d1, d2, d3 and whether
    v = 2: G.memo["symbol_classes"] keeps it under that key, but no refusal.
    """
    # d1 and d2 passed validation, so d3 = d1 d2 / gcd(d1, d2)^2 is squarefree too
    symbols = (_symbol(d1, v), _symbol(d2, v), _symbol(third_discriminant(d1, d2), v))
    key = (symbols, v == 2)
    memo = G.memo.get("symbol_classes")
    if memo is None:
        memo = G.memo["symbol_classes"] = {}
    lc = memo.get(key)
    if lc is not None:
        return lc
    # element (i, j) = index 2i + j flips sqrt(d1) iff i = 1, sqrt(d2) iff j = 1;
    # the fixers of sqrt(d1), sqrt(d2) and sqrt(d3), in that order
    fixers = ({0, 1}, {0, 2}, {0, 3})
    inertia, decomp = set(range(4)), set(range(4))
    for fixer, sym in zip(fixers, symbols):
        if sym != RAMIFIED:
            inertia &= fixer
        if sym == SPLIT:
            decomp &= fixer
    if v != 2 and RAMIFIED in symbols:
        unram = sum(s != RAMIFIED for s in symbols)
        if unram != 1:
            raise GroupError(f"ramified odd v = {v} is unramified in {unram} quadratic subfields, not 1")
    lc = memo[key] = G.local_class(G.class_of_subgroup(decomp), G.class_of_subgroup(inertia))
    return lc


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
        Poly, x = _sympy_poly()
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

    def local_class(self, v: int, overrides: dict | None) -> LocalClass:
        """The local class of the prime v: overridden, or computed from the field.

        overrides maps a prime to a (decomposition, inertia) pair of subgroup
        class names and takes precedence. Otherwise a multiquadratic field
        reads the quadratic symbols, a polynomial field the degree pattern
        mod v, and an abstract field raises MissingLocalClassError.
        """
        G = self.group
        if overrides and v in overrides:
            d_name, i_name = overrides[v]
            return G.local_class(G.class_by_name(d_name), G.class_by_name(i_name))
        if self.kind == "multiquadratic":
            # FieldSpec.multiquadratic validated d1 and d2 once for every place
            return _multiquadratic_class(self.d1, self.d2, v, G)
        if self.kind == "polynomial":
            return frobenius_class(G, factor_degree_pattern(self.poly, v))
        raise MissingLocalClassError(
            f"no local class for prime {v}: abstract fields need --local-class overrides"
        )


# -- degree patterns over F_v ---------------------------------------------------


def _sympy_poly():
    """sympy's Poly and a variable x: polynomial fields need the 'poly' extra."""
    try:
        from sympy import Poly, Symbol
    except ImportError:
        raise ValueError(
            "polynomial fields need sympy to test irreducibility; "
            "install the 'poly' extra: pip install 'selgrowth[poly]'"
        ) from None
    return Poly, Symbol("x")


def factor_degree_pattern(coeffs, v: int) -> tuple:
    """Degrees of the irreducible factors of a monic poly mod v (sorted).

    A prime where the reduction has a repeated factor (v | disc) ramifies,
    and its class must be supplied: MissingLocalClassError. The repeat is read
    from the multiplicities of sympy's factorization over F_v: ``Poly.is_sqf``
    is not used, as sympy 1.14 calls x^2 - 12x + 86 mod 2, which is x^2,
    squarefree.
    """
    coeffs = [int(c) for c in coeffs]
    if coeffs[0] != 1:
        raise ValueError("polynomial must be monic")
    Poly, x = _sympy_poly()
    _, factors = Poly(coeffs, x, modulus=v).factor_list()
    if any(k > 1 for _, k in factors):
        raise MissingLocalClassError(
            f"prime {v} ramifies in the defining polynomial; "
            f"{v} divides the polynomial discriminant; supply --local-class explicitly"
        )
    out = tuple(sorted(f.degree() for f, _ in factors))
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

