"""Brauer relations: verification, canonical families and relation lattices.

A relation is an integer combination of conjugacy classes of subgroups whose
virtual permutation representation vanishes; equivalently, the permutation
character values sum to zero against the coefficients on every conjugacy
class of group elements. The attached norm constant prod |H|^{n_H} is kept
as an exact factored rational, since its p-adic valuation is what drives
the growth certificates.
"""

from __future__ import annotations

from typing import NamedTuple

from .factored import FactoredRational
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
    """Rows: conjugacy classes of elements. Columns: subgroup classes.

    Entry = number of cosets of the column's subgroup fixed by the row's
    element (the permutation character of C[G/H]).
    """
    classes = G.subgroup_classes
    return [
        [fixed_points(G, cls.representative, gclass[0]) for cls in classes]
        for gclass in G.element_classes
    ]


def verify_relation(theta: BrauerRelation) -> bool:
    """True iff the virtual permutation representation of theta vanishes."""
    G = theta.group
    for gclass in G.element_classes:
        g = gclass[0]
        total = sum(
            n * fixed_points(G, G.subgroup_classes[cid].representative, g)
            for cid, n in theta.coeffs
        )
        if total != 0:
            return False
    return True


def canonical_relation(G: FiniteGroup) -> BrauerRelation:
    """The standard relation of each theorem family (T. & V. Dokchitser,
    "Regulator constants and the parity conjecture", Invent. Math. 178, 2009).

    Every subgroup class of a listed order gets that order's coefficient:

    c2xc2, cpxcp:p:  1 - (all subgroups of order p) + p G
    d:p:             1 - 2 C2 - Cp + 2 G
    sd:p:q:          1 - q Cq - Cp + q G
    """
    family = G.family
    if family is None:
        raise GroupError("canonical relations exist only for the named families")
    if G.canonical_relation_memo is not None:
        return G.canonical_relation_memo
    p, q = family.p, family.q
    if family.name == "d":
        rule = {1: 1, 2: -2, p: -1, 2 * p: 2}
    elif family.name == "sd":
        rule = {1: 1, q: -q, p: -1, p * q: q}
    else:
        rule = {1: 1, p: -1, p * p: p}
    coeffs = {cls.class_id: rule[cls.order] for cls in G.subgroup_classes if cls.order in rule}
    G.canonical_relation_memo = BrauerRelation.from_dict(G, coeffs)
    return G.canonical_relation_memo


def norm_constant(theta: BrauerRelation) -> FactoredRational:
    """prod |H|^{n_H} over the relation, as an exact factored rational."""
    num = den = 1
    for cid, n in theta.coeffs:
        order = theta.group.subgroup_classes[cid].order
        if n > 0:
            num *= order ** n
        else:
            den *= order ** -n
    return FactoredRational.from_int(num) / FactoredRational.from_int(den)


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
