"""Brauer relations: verification, canonical families and relation lattices.

A relation is an integer combination of conjugacy classes of subgroups whose
virtual permutation representation vanishes; equivalently, the permutation
character values sum to zero against the coefficients at a generator of
every conjugacy class of cyclic subgroups. The attached norm constant
prod |H|^{n_H} is kept exactly, since its p-adic valuation is what drives
the growth certificates.

A quotient here and in ``quotients`` is a positive rational kept as its
exponent map: the tuple of (prime, exponent) pairs by increasing prime, with
no zero exponent. ``exponent_sum`` multiplies quotients and ``ord_of`` reads
one exponent.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import factor
from .groups import FiniteGroup, GroupError, fixed_points
from .intlinalg import integer_kernel_basis


class BrauerRelation(NamedTuple):
    """Integer coefficients indexed by subgroup-class ids of ``group``."""

    group: FiniteGroup
    coeffs: tuple  # sorted tuple of (class_id, n) with n != 0

    @staticmethod
    def from_dict(group: FiniteGroup, coeffs: dict) -> "BrauerRelation":
        nclasses = len(group.subgroup_classes)
        clean = []
        for cid, n in coeffs.items():
            cid, n = int(cid), int(n)
            if not 0 <= cid < nclasses:
                raise GroupError(f"no subgroup class with id {cid}")
            if n != 0:
                clean.append((cid, n))
        return BrauerRelation(group, tuple(sorted(clean)))

    def coeff_vector(self) -> list:
        vec = [0] * len(self.group.subgroup_classes)
        for cid, n in self.coeffs:
            vec[cid] = n
        return vec

    def named_coeffs(self) -> dict:
        names = self.group.class_names
        return {names[cid]: n for cid, n in self.coeffs}

    def degree(self) -> int:
        """Sum of n_H * [G:H], the dimension of the virtual representation."""
        G = self.group
        return sum(n * (G.order // G.subgroup_classes[cid].order) for cid, n in self.coeffs)


def mark_matrix(G: FiniteGroup):
    """Rows: conjugacy classes of cyclic subgroups. Columns: subgroup classes.

    Entry = number of cosets of the column's subgroup fixed by a generator g
    of the row's subgroup (the permutation character of C[G/H] at g). The
    character is rational, so its value at g depends only on <g> up to
    conjugacy: a row per element class would repeat these rows.
    """
    classes, orders = G.subgroup_classes, G.element_orders
    rows = []
    for C in classes:
        g = max(C.representative, key=orders.__getitem__)  # a generator when C is cyclic
        if orders[g] == C.order:
            rows.append([fixed_points(G, H.representative, g) for H in classes])
    return rows


def verify_relation(theta: BrauerRelation) -> bool:
    """True iff the virtual permutation representation of theta vanishes:
    the character, each row of the mark matrix, sums to zero against it."""
    return all(sum(n * row[cid] for cid, n in theta.coeffs) == 0 for row in mark_matrix(theta.group))


def canonical_relation(G: FiniteGroup) -> BrauerRelation:
    """The standard relation of each theorem family (T. & V. Dokchitser,
    "Regulator constants and the parity conjecture", Invent. Math. 178, 2009).

    Every subgroup class of a listed order gets that order's coefficient. The
    family is C_p : C_k, and one rule serves k = 2 (d:p) and k = q (sd:p:q):

    c2xc2, cpxcp:p (k = p):  1 - (all subgroups of order p) + p G
    d:p, sd:p:q:             1 - k Ck - Cp + k G
    """
    family = G.family
    if family is None:
        raise GroupError("canonical relations exist only for the named families")
    theta = G.memo.get("canonical_relation")
    if theta is not None:
        return theta
    p, k = family.p, family.k
    rule = {1: 1, p: -1, p * p: p} if k == p else {1: 1, k: -k, p: -1, p * k: k}
    coeffs = {cls.class_id: rule[cls.order] for cls in G.subgroup_classes if cls.order in rule}
    theta = G.memo["canonical_relation"] = BrauerRelation.from_dict(G, coeffs)  # made once per group
    return theta


def ord_of(q: tuple, p: int) -> int:
    """The exponent of the prime p in the quotient q (0 if absent)."""
    return dict(q).get(p, 0)


def exponent_sum(terms) -> tuple:
    """prod q^k over the pairs (q, k) of ``terms``, as a quotient: k times
    the exponents of each q, summed per prime."""
    exponents = {}
    for q, k in terms:
        for p, e in q:
            exponents[p] = exponents.get(p, 0) + e * k
    return tuple(sorted((p, e) for p, e in exponents.items() if e))


def json_items(q: tuple) -> tuple:
    """The (str(prime), exponent) pairs of a quotient's JSON form, by increasing prime."""
    return tuple((str(p), e) for p, e in q)


def norm_constant(theta: BrauerRelation) -> tuple:
    """prod |H|^{n_H} over the relation, as a quotient."""
    orders = [(theta.group.subgroup_classes[cid].order, n) for cid, n in theta.coeffs]
    factored = {h: tuple(factor(h).items()) for h in {h for h, _ in orders}}  # each |H| once
    return exponent_sum((factored[h], n) for h, n in orders)


def relation_lattice(G: FiniteGroup):
    """Basis of all Brauer relations in G (integer kernel of the mark matrix).

    Basis rows are in Hermite normal form with positive leading coefficient,
    so the output is deterministic.
    """
    basis = integer_kernel_basis(mark_matrix(G))
    return [
        BrauerRelation.from_dict(G, {i: v for i, v in enumerate(row) if v})
        for row in basis
    ]
