"""Per-place Tamagawa quotients, the quotient tables, and growth certificates.

The source of truth is the Mackey count of places: for a subgroup class H
with coefficient n_H, the primes of the fixed field F^H above v correspond to
the double cosets H\\G/D, each with a ramification index e and residue
degree f read off from the inertia/decomposition pair. Semistable local
behaviour is then mechanical: ``records.tamagawa`` gives the Tamagawa
number of each place from the reduction type, m, e and f.

The (e, f) of the places depend on v only through (D, I), so
`place_degrees` counts them from the conjugates of H (`groups.place_counts`,
which does not list the double cosets; the tests check it against
`groups.double_cosets`, which does); `local_theta_quotient` keeps them on
the group once per local class, beside each result for a reduction type and m.

`quotient_table` holds the hardcoded quotient table of each group family,
keyed by `cell_key`'s (row, col, parity). Certify never reads it, since it
always counts the places; `oracle_table` checks the counts against it cell
by cell, for `selgrowth tables` and the tests alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .brauer import BrauerRelation, canonical_relation, norm_constant
from .factored import FactoredRational
from .groups import Family, FiniteGroup, GroupError, LocalClass, place_counts
from .records import ADDITIVE, NONSPLIT_MULT, SPLIT_MULT, Refused, tamagawa

if TYPE_CHECKING:
    # types only: a certificate takes a profile and a field that the caller
    # built, so loading this module loads neither curves nor splitting
    from .curves import CurveProfile, ReductionData
    from .splitting import FieldSpec


class NonSemistableError(ValueError, Refused):
    """The quotient tables require semistable reduction."""


# row descriptors: how v sits in F/K
ROW_SPLITS = "splits"  # more than one prime of F above v (D != G)
ROW_INERT_RAMIFIED = "inert_ramified"  # one prime, not totally ramified (D = G, I < G)
ROW_TOTALLY_RAMIFIED = "totally_ramified"  # D = I = G

# column descriptors: reduction of E at v and over the top field
COL_SPLIT = "split_mult"
COL_NONSPLIT_STAYS = "nonsplit_over_F"
COL_NONSPLIT_SPLITS = "nonsplit_becomes_split"

PARITY_EVEN = "even"
PARITY_ODD = "odd"


def cell_key(lc: LocalClass, kind: str, m: int) -> tuple:
    """The (row, col, parity of m) of a multiplicative place in the quotient tables."""
    if len(lc.decomposition) < lc.group.order:
        row = ROW_SPLITS
    elif len(lc.inertia) == lc.group.order:
        row = ROW_TOTALLY_RAMIFIED
    else:
        row = ROW_INERT_RAMIFIED
    if kind == SPLIT_MULT:
        col = COL_SPLIT
    elif kind == NONSPLIT_MULT:
        # the places of F above v have residue degree f = [D:I]
        col = COL_NONSPLIT_SPLITS if lc.f % 2 == 0 else COL_NONSPLIT_STAYS
    else:
        raise ValueError(f"only multiplicative reduction is tabulated, got {kind}")
    return row, col, PARITY_EVEN if m % 2 == 0 else PARITY_ODD


def quotient_table(family: Family) -> dict:
    """The family's quotient table: (row, col, parity) -> exponent of the family prime.

    parity is None in a cell that ignores m = ord_v(delta). Dash cells and the
    non-split columns of the odd-order tables (no p-part) have no key.
    """
    if family.case == "c":
        # p-exponent 1 - p for Cp x Cp, 1 - q for Cp : Cq
        drop = 1 - (family.p if family.q is None else family.q)
        return {
            (ROW_SPLITS, COL_SPLIT, None): 0,
            (ROW_INERT_RAMIFIED, COL_SPLIT, None): drop,
            (ROW_TOTALLY_RAMIFIED, COL_SPLIT, None): drop,
        }
    table = {
        (ROW_SPLITS, COL_SPLIT, None): 0,
        (ROW_SPLITS, COL_NONSPLIT_STAYS, None): 0,
        (ROW_SPLITS, COL_NONSPLIT_SPLITS, None): 0,
        (ROW_INERT_RAMIFIED, COL_SPLIT, None): -1,
        (ROW_TOTALLY_RAMIFIED, COL_SPLIT, None): -1,
    }
    if family.name == "c2xc2":
        table[(ROW_INERT_RAMIFIED, COL_NONSPLIT_SPLITS, PARITY_EVEN)] = 1
        table[(ROW_INERT_RAMIFIED, COL_NONSPLIT_SPLITS, PARITY_ODD)] = -1
        table[(ROW_TOTALLY_RAMIFIED, COL_NONSPLIT_STAYS, PARITY_EVEN)] = 0
        table[(ROW_TOTALLY_RAMIFIED, COL_NONSPLIT_STAYS, PARITY_ODD)] = -2
    else:
        table[(ROW_INERT_RAMIFIED, COL_NONSPLIT_SPLITS, None)] = 1
        table[(ROW_TOTALLY_RAMIFIED, COL_NONSPLIT_STAYS, None)] = 0
    return table


class PlaceQuotientReport(NamedTuple):
    v: int
    reduction_kind: str
    m: int
    local_class: LocalClass
    contributions: tuple  # ((class_id, FactoredRational), ...) per subgroup class
    quotient: FactoredRational
    table_cell: str | None  # "row|col|parity" when the group is a table family
    # (D name, I name, ((class name, items), ...), quotient items): the JSON
    # parts, kept with the rest in G.memo["places"]; items are (str(prime), exponent)
    json_parts: tuple

    def as_json(self) -> dict:
        """The place as JSON, in fresh containers: the memo's tuples are only read."""
        d_name, i_name, contributions, quotient = self.json_parts
        return {
            "v": self.v,
            "reduction": self.reduction_kind,
            "m": self.m,
            "D": d_name,
            "I": i_name,
            "contributions": {name: dict(items) for name, items in contributions},
            "quotient": dict(quotient),
            "table_cell": self.table_cell,
        }


def place_degrees(theta: BrauerRelation, lc: LocalClass) -> tuple:
    """The (e, f) of the places of F^H above v, for each H in theta.

    One multiset ``(((e, f), count), ...)`` per entry of ``theta.coeffs``.
    The places of F^H are the double cosets H\\G/D; ``place_counts`` counts
    them by (e, f) over the conjugates of H without listing them.
    """
    G = theta.group
    if lc.group is not G and lc.group.table != G.table:
        raise GroupError("local class and relation live in different groups")
    return tuple(place_counts(G, cid, lc) for cid, _ in theta.coeffs)


def _evaluate(theta: BrauerRelation, degrees: tuple, kind: str, m: int) -> tuple:
    """(contributions, quotient) of a place with these place degrees and reduction.

    The quotient sums n_H times the exponents of each contribution, so each
    place builds one FactoredRational for it.
    """
    contributions, powers = [], []
    factored = {}  # product of Tamagawa numbers -> its factorization
    for (cid, n), places in zip(theta.coeffs, degrees):
        product = 1
        for (e, f), count in places:
            product *= tamagawa(kind, e, f, m) ** count
        if product not in factored:
            factored[product] = FactoredRational.from_int(product)
        contrib = factored[product]
        contributions.append((cid, contrib))
        powers.append((contrib, n))
    return tuple(contributions), FactoredRational.product(powers)


def local_theta_quotient(
    theta: BrauerRelation, lc: LocalClass, rd: ReductionData
) -> PlaceQuotientReport:
    """The quotient prod_H (prod of Tamagawa numbers over places of F^H above v)^{n_H}.

    Everything but v depends only on (theta, lc, kind, m): G.memo["places"]
    keeps, under (theta, lc), the place degrees, counted once, and the D and I
    names, and under each (kind, m) the report's other fields. All go with the group.
    """
    if rd.kind == ADDITIVE:
        raise NonSemistableError(
            f"additive reduction at {rd.v}; the quotient engine requires semistability"
        )
    memo = theta.group.memo.setdefault("places", {})
    key = theta, lc  # a local class keeps its hash
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = place_degrees(theta, lc), lc.names(), {}
    degrees, names, results = entry
    hit = results.get((rd.kind, rd.m))
    if hit is None:
        contributions, quotient = _evaluate(theta, degrees, rd.kind, rd.m)
        cell = None
        if theta.group.family is not None and rd.kind in (SPLIT_MULT, NONSPLIT_MULT):
            cell = "|".join(cell_key(lc, rd.kind, rd.m))
        class_names = lc.group.class_names
        parts = (*names, tuple((class_names[cid], fr.json_items()) for cid, fr in contributions),
                 quotient.json_items())
        hit = results[rd.kind, rd.m] = contributions, quotient, cell, parts
    return PlaceQuotientReport(rd.v, rd.kind, rd.m, lc, *hit)


def oracle_table(G: FiniteGroup) -> dict:
    """The family's quotient table, each cell checked against the oracle.

    Every local class is evaluated for both multiplicative reduction types at
    m = 1 and m = 2; the factor m cancels in a relation, so the parity of m
    is all the tables need. A cell passes when it has a realization and
    every realization equals the tabulated value exactly. For odd-order
    groups the non-split columns are not tabulated, and their p-part must
    vanish instead.
    """
    theta = canonical_relation(G)
    family = G.family
    p = family.p
    table = quotient_table(family)
    odd_order = G.order % 2 == 1
    # table key, or (row, col, parity) of a dash cell -> per realization, equal to the cell
    hits = {}
    nonsplit_trivial = True
    # evaluated here, not through G.memo["places"]: tables builds each group for
    # one table, and keeping its cells in the memo raised family_sweep peak RSS
    # from 21.6-21.8 to 23.1-24.7 MB and cut specs/s by 2-10 % (2 cores, Python 3.11.7)
    for lc in G.local_classes:
        degrees = place_degrees(theta, lc)
        for kind in (SPLIT_MULT, NONSPLIT_MULT):
            for m in (1, 2):
                _, quotient = _evaluate(theta, degrees, kind, m)
                if odd_order and kind == NONSPLIT_MULT:
                    nonsplit_trivial = nonsplit_trivial and quotient.ord(p) == 0
                    continue
                key = cell_key(lc, kind, m)
                if key not in table and key[:2] + (None,) in table:
                    key = key[:2] + (None,)
                # the whole quotient, so that a stray prime fails the cell too
                equal = key in table and quotient == FactoredRational({p: table[key]})
                hits.setdefault(key, []).append(equal)
    out_cells = []
    # by (row, col), then even before odd; None and a parity never share a (row, col)
    for row, col, parity in sorted(table, key=lambda k: (k[0], k[1], k[2] or "")):
        checks = hits.get((row, col, parity), [])
        out_cells.append({
            "row": row,
            "col": col,
            "parity": parity,
            "value_ord_p": table[(row, col, parity)],
            "realizations": len(checks),
            "oracle": "PASS" if checks and all(checks) else "FAIL",
        })
    dash = sorted(key for key in hits if key not in table)
    return {
        "schema": 1,
        "group": str(family),
        "p": p,
        "cells": out_cells,
        "unreachable_observed": [list(d) for d in dash],
        "nonsplit_p_part_trivial": nonsplit_trivial if odd_order else None,
        "all_pass": all(c["oracle"] == "PASS" for c in out_cells)
        and not dash
        and nonsplit_trivial,
    }


def relation_parts(theta: BrauerRelation) -> tuple:
    """(norm constant, named coefficients, norm) of a relation, the last two as
    JSON items; G.memo["relation_parts"] keeps them, made once per relation."""
    memo = theta.group.memo.setdefault("relation_parts", {})
    parts = memo.get(theta)
    if parts is None:
        norm = norm_constant(theta)
        parts = memo[theta] = norm, tuple(theta.named_coeffs().items()), norm.json_items()
    return parts


def regulator_quotient(norm: FactoredRational, rank: int) -> FactoredRational:
    """prod_H Reg(E/F^H)^{n_H} = norm^(-rank), exactly, for a relation's norm constant."""
    if rank < 0:
        raise ValueError("rank must be non-negative")
    return norm ** (-rank)


# -- theorem hypotheses --------------------------------------------------------


class HypothesisReport(NamedTuple):
    semistable: bool
    rank: int
    n_nonsplit: int
    n_nonsplit_even: int
    case_a: bool  # p = 2, C2 x C2: rank > #nonsplit places with even ord
    case_b: bool  # p odd, D_2p:   rank > #nonsplit places
    case_c: bool  # p odd, CpxCp or Cp:Cq: positive rank suffices
    applicable_case: str | None
    hypotheses_pass: bool
    failing: str | None

    def as_json(self) -> dict:
        return {
            "semistable": self.semistable,
            "rank": self.rank,
            "n_nonsplit": self.n_nonsplit,
            "n_nonsplit_even_ord": self.n_nonsplit_even,
            "case_a": self.case_a,
            "case_b": self.case_b,
            "case_c": self.case_c,
            "applicable_case": self.applicable_case,
            "pass": self.hypotheses_pass,
            "failing": self.failing,
        }


def hypothesis_check(profile: CurveProfile, family: Family | None) -> HypothesisReport:
    """Evaluate the rank inequalities of the three theorem cases on a profile;
    the family's case decides ``hypotheses_pass`` (never passes without one)."""
    semistable, n_nonsplit, n_even = profile.hypothesis_counts()
    rank = profile.rank
    positive = rank >= 1
    case_a = semistable and positive and rank > n_even
    case_b = semistable and positive and rank > n_nonsplit
    case_c = semistable and positive
    case = None if family is None else family.case
    passed = {None: False, "a": case_a, "b": case_b, "c": case_c}[case]
    failing = None
    if case is not None and not passed:
        if not semistable:
            failing = "curve is not semistable"
        elif not positive:
            failing = "rank must be positive"
        elif case == "a":
            failing = (
                f"rank {rank} is not greater than the {n_even} non-split places "
                "with even discriminant valuation"
            )
        elif case == "b":
            failing = f"rank {rank} is not greater than the {n_nonsplit} non-split places"
    return HypothesisReport(
        semistable=semistable,
        rank=rank,
        n_nonsplit=n_nonsplit,
        n_nonsplit_even=n_even,
        case_a=case_a,
        case_b=case_b,
        case_c=case_c,
        applicable_case=case,
        hypotheses_pass=passed,
        failing=failing,
    )


# -- certificates ---------------------------------------------------------------

TIER_SHA_CHANGE = "sha_change"
TIER_SHA_NONZERO = "sha_nonzero"
TIER_SELMER_GROWTH = "selmer_growth"
TIER_NONE = "none"


class GrowthCertificate(NamedTuple):
    profile: CurveProfile
    field: FieldSpec
    p: int
    theta: BrauerRelation
    norm: FactoredRational  # norm_constant(theta), from relation_parts
    hypothesis: HypothesisReport
    places: tuple  # PlaceQuotientReport per bad prime
    ord_p_tamagawa: int
    ord_p_rhs: int
    ord_p_sha_quotient: int
    conditional_sha_prediction: int | None
    conclusion_tier: str
    notes: tuple

    def as_json(self) -> dict:
        """The certificate as JSON, in fresh containers: the memo's tuples are only read."""
        prof = self.profile
        _, coeffs, norm = relation_parts(self.theta)
        pred = None
        if self.conditional_sha_prediction is not None:
            pred = {
                "ord_p_sha_top": self.conditional_sha_prediction,
                "sha_p_primary_order": self.p ** self.conditional_sha_prediction
                if self.conditional_sha_prediction >= 0
                else None,
            }
        return {
            "schema": 1,
            "curve": {
                "label": prof.label,
                "model": list(prof.model.ainvs()),
                "delta_min": prof.model.invariants.delta,
            },
            "field": self.field.describe(),
            "group": str(self.field.group.family),
            "p": self.p,
            "relation": {"coeffs": dict(coeffs), "norm": dict(norm)},
            "assumptions": {
                "rank": prof.rank,
                "torsion_order": prof.torsion_order,
                "sha_p_trivial": sorted(prof.sha_p_trivial_assumed),
                "mordell_weil_stable": True,
                "sha_trivial_in_proper_subfields": self.p in prof.sha_p_trivial_assumed,
            },
            "hypotheses": self.hypothesis.as_json(),
            "places": [pr.as_json() for pr in self.places],
            "regulator_quotient": regulator_quotient(self.norm, prof.rank).as_json(),
            "ord_p": {
                "tamagawa_quotient": self.ord_p_tamagawa,
                "rhs": self.ord_p_rhs,
                "sha_quotient": self.ord_p_sha_quotient,
            },
            "conditional_prediction": pred,
            "conclusion_tier": self.conclusion_tier,
            "notes": list(self.notes),
        }


def _conclusion_tier(hyp: HypothesisReport, profile: CurveProfile, p: int) -> str:
    if not hyp.hypotheses_pass:
        return TIER_NONE
    if p in profile.sha_p_trivial_assumed:
        if profile.torsion_order % p != 0:
            return TIER_SELMER_GROWTH
        return TIER_SHA_NONZERO
    return TIER_SHA_CHANGE


def certify(
    profile: CurveProfile,
    field: FieldSpec,
    p: int,
    overrides: dict | None = None,
) -> GrowthCertificate:
    """Assemble the p-part of the Tamagawa/Sha quotient identity into a certificate.

    overrides maps a bad prime to a (decomposition, inertia) pair of subgroup
    class names, taking precedence over anything computed from the field
    description; an override for any other prime is refused.
    """
    theta = canonical_relation(field.group)  # refuses groups outside the families
    family = field.group.family
    if p != family.p:
        raise ValueError(f"group {family} pairs with p = {family.p}, not p = {p}")
    stray = sorted(set(overrides or ()) - {rd.v for rd in profile.bad_places})
    if stray:
        primes = ", ".join(map(str, stray))
        raise ValueError(f"local class overrides for {primes}, which are not bad primes of the curve")
    if not profile.is_semistable():
        bad = [rd.v for rd in profile.bad_places if rd.kind == ADDITIVE]
        raise NonSemistableError(f"additive reduction at {bad}; certificate refused")
    places = [local_theta_quotient(theta, field.local_class(rd.v, overrides), rd) for rd in profile.bad_places]
    ord_tam = sum(pr.quotient.ord(p) for pr in places)
    norm = relation_parts(theta)[0]
    ord_rhs = profile.rank * norm.ord(p)
    ord_sha = ord_rhs - ord_tam
    hyp = hypothesis_check(profile, family)
    prediction = None
    if p in profile.sha_p_trivial_assumed:
        prediction = ord_sha
    notes = (
        "torsion terms cancel: the coefficients sum to zero and the torsion "
        "order is constant across intermediate fields under the stable "
        "Mordell-Weil assumption",
        "good places and places outside the bad set contribute 1 to every quotient",
        "prediction is conditional on trivial p-primary Sha in all proper "
        "intermediate fields and on E(K) tensor Z_p = E(F) tensor Z_p",
    )
    return GrowthCertificate(
        profile=profile,
        field=field,
        p=p,
        theta=theta,
        norm=norm,
        hypothesis=hyp,
        places=tuple(places),
        ord_p_tamagawa=ord_tam,
        ord_p_rhs=ord_rhs,
        ord_p_sha_quotient=ord_sha,
        conditional_sha_prediction=prediction,
        conclusion_tier=_conclusion_tier(hyp, profile, p),
        notes=notes,
    )
