"""Brauer relations: verification, canonical families, lattices, transport.

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
from .intlinalg import integer_kernel_basis, solve_integer_combination


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

    def coeff_map(self) -> dict:
        return dict(self.coeffs)

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

    def coefficient_sum(self) -> int:
        return sum(n for _, n in self.coeffs)


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


def express_in_lattice(theta: BrauerRelation, basis) -> list | None:
    """Integer coordinates of theta in a lattice basis, or None."""
    rows = [b.coeff_vector() for b in basis]
    return solve_integer_combination(rows, theta.coeff_vector())


# -- transport ---------------------------------------------------------------


def check_homomorphism(src: FiniteGroup, dst: FiniteGroup, mapping) -> None:
    mapping = list(mapping)
    if len(mapping) != src.order:
        raise GroupError("mapping must assign an image to every element")
    if any(not 0 <= x < dst.order for x in mapping):
        raise GroupError("mapping image out of range")
    if mapping[src.identity] != dst.identity:
        raise GroupError("mapping does not preserve the identity")
    for a in range(src.order):
        for b in range(src.order):
            if mapping[src.table[a][b]] != dst.table[mapping[a]][mapping[b]]:
                raise GroupError(f"not a homomorphism at ({a},{b})")


def induce(theta: BrauerRelation, big: FiniteGroup, embedding) -> BrauerRelation:
    """Transport a relation along an injective homomorphism into ``big``.

    Each subgroup H is replaced by its image; coefficients on classes that
    merge inside the larger group are added.
    """
    G = theta.group
    embedding = list(embedding)
    check_homomorphism(G, big, embedding)
    if len(set(embedding)) != G.order:
        raise GroupError("embedding must be injective")
    coeffs = {}
    for cid, n in theta.coeffs:
        H = G.subgroup_classes[cid].representative
        image = big.class_of_subgroup([embedding[h] for h in H])
        coeffs[image.class_id] = coeffs.get(image.class_id, 0) + n
    return BrauerRelation.from_dict(big, coeffs)


def inflate(theta: BrauerRelation, gamma: FiniteGroup, projection) -> BrauerRelation:
    """Transport a relation along a surjection gamma -> theta.group.

    H goes to its full preimage NH; |NH| = |N||H|, so the norm constant's
    valuations are unchanged because the coefficients sum to zero.
    """
    G = theta.group
    projection = list(projection)
    check_homomorphism(gamma, G, projection)
    if len(set(projection)) != G.order:
        raise GroupError("projection must be surjective")
    kernel_size = gamma.order // G.order
    coeffs = {}
    for cid, n in theta.coeffs:
        H = G.subgroup_classes[cid].representative
        hset = H.element_set
        preimage = [x for x in range(gamma.order) if projection[x] in hset]
        if len(preimage) != kernel_size * len(H):
            raise GroupError(
                f"preimage of a subgroup of order {len(H)} has {len(preimage)} elements, "
                f"not {kernel_size * len(H)}"
            )
        cls = gamma.class_of_subgroup(preimage)
        coeffs[cls.class_id] = coeffs.get(cls.class_id, 0) + n
    return BrauerRelation.from_dict(gamma, coeffs)
