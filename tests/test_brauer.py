import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selgrowth.brauer import (
    BrauerRelation,
    canonical_relation,
    mark_matrix,
    norm_constant,
    ord_of,
    relation_lattice,
    verify_relation,
)
from selgrowth.groups import (
    FiniteGroup,
    GroupError,
    fixed_points,
    make_cyclic,
    make_dihedral,
    make_elem_abelian,
    make_semidirect,
    parse_group_spec,
)
from selgrowth.intlinalg import integer_kernel_basis

from oracle import direct_product, family_specs, induce, inflate, lattice_coordinates, relabeled


def rational_rank(A):
    M = [[Fraction(x) for x in row] for row in A]
    rank, row = 0, 0
    for col in range(len(M[0]) if M else 0):
        piv = next((r for r in range(row, len(M)) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        for r in range(len(M)):
            if r != row and M[r][col] != 0:
                f = M[r][col] / M[row][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[row])]
        row += 1
        rank += 1
    return rank


# -- verify_relation -------------------------------------------------------------


def test_canonical_c2xc2_verifies():
    K = make_elem_abelian(2)
    theta = canonical_relation(K)
    assert theta.named_coeffs() == {"1": 1, "C2a": -1, "C2b": -1, "C2c": -1, "G": 2}
    assert verify_relation(theta)


def test_broken_c2xc2_relation_fails():
    K = make_elem_abelian(2)
    theta = BrauerRelation.from_dict(K, {0: 1, 1: 1, 2: -1, 3: -1, 4: 2})
    assert theta.degree() == 4  # 4 + 2 - 2 - 2 + 2
    assert not verify_relation(theta)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_canonical_dihedral_verifies(p):
    theta = canonical_relation(make_dihedral(p))
    assert verify_relation(theta)
    assert sum(n for _, n in theta.coeffs) == 0
    assert theta.degree() == 0


# every family spec of order at most 60, and three larger ones
@pytest.mark.parametrize(
    "spec",
    ["c2xc2", "d:3", "d:5", "d:7", "d:11", "d:13", "d:17", "d:19", "d:23", "d:29",
     "cpxcp:3", "cpxcp:5", "cpxcp:7", "sd:7:3", "sd:13:3", "sd:19:3", "sd:11:5",
     "cpxcp:11", "cpxcp:13", "sd:31:5"],
)
def test_canonical_families_verify(spec):
    theta = canonical_relation(parse_group_spec(spec))
    assert verify_relation(theta)


def test_canonical_relation_is_kept_with_its_group():
    G = parse_group_spec("d:5")
    theta = canonical_relation(G)
    assert canonical_relation(G) is theta
    # a second group with the same table computes its own, equal relation
    twin = FiniteGroup(G.table, family=G.family)
    again = canonical_relation(twin)
    assert again is not theta and again.group is twin and again.coeffs == theta.coeffs


def test_canonical_rejects_cyclic():
    with pytest.raises(GroupError):
        canonical_relation(make_cyclic(6))


def test_canonical_cpxcp_coefficients():
    G = make_elem_abelian(3)
    theta = canonical_relation(G)
    named = theta.named_coeffs()
    assert named["1"] == 1 and named["G"] == 3
    order3 = [n for n in named if n.startswith("C3")]
    assert len(order3) == 4 and all(named[n] == -1 for n in order3)


def test_canonical_semidirect_coefficients():
    theta = canonical_relation(make_semidirect(7, 3))
    assert theta.named_coeffs() == {"1": 1, "C3": -3, "C7": -1, "G": 3}


# -- norm constants ---------------------------------------------------------------


def test_norm_constants_match_families():
    assert dict(norm_constant(canonical_relation(make_dihedral(5)))) == {5: 1}
    assert dict(norm_constant(canonical_relation(make_elem_abelian(2)))) == {2: 1}
    assert dict(norm_constant(canonical_relation(make_elem_abelian(3)))) == {3: 2}
    assert dict(norm_constant(canonical_relation(make_semidirect(7, 3)))) == {7: 2}


# -- relation lattices -------------------------------------------------------------


def test_lattice_c2xc2_is_canonical():
    K = make_elem_abelian(2)
    basis = relation_lattice(K)
    assert len(basis) == 1
    assert basis[0].coeff_vector() == canonical_relation(K).coeff_vector()


def test_lattice_cyclic_is_trivial():
    assert relation_lattice(make_cyclic(6)) == []


def test_lattice_dihedral6_rank_one():
    G = make_dihedral(3)
    basis = relation_lattice(G)
    assert len(basis) == 1
    assert basis[0].coeff_vector() == [1, -2, -1, 2]


@pytest.mark.parametrize("spec", ["d:3", "d:5", "cpxcp:3", "sd:7:3", "c2xc2"])
def test_lattice_members_verify_and_have_zero_sums(spec):
    G = parse_group_spec(spec)
    for theta in relation_lattice(G):
        assert verify_relation(theta)
        assert sum(n for _, n in theta.coeffs) == 0
        assert theta.degree() == 0


@pytest.mark.parametrize("spec", ["d:3", "d:5", "cpxcp:3", "sd:7:3"])
def test_canonical_lies_in_lattice(spec):
    G = parse_group_spec(spec)
    basis = relation_lattice(G)
    coords = lattice_coordinates([b.coeff_vector() for b in basis], canonical_relation(G).coeff_vector())
    assert coords is not None


def test_lattice_rank_matches_rational_kernel():
    for spec in ("c2xc2", "d:5", "cpxcp:3", "sd:7:3"):
        G = parse_group_spec(spec)
        M = mark_matrix(G)
        expected = len(M[0]) - rational_rank(M)
        assert len(relation_lattice(G)) == expected


# -- the mark matrix against one row per element class ------------------------------
# A row per conjugacy class of elements, the classes read off G.conj here, spans
# the same rows as the package's row per class of cyclic subgroups, so the
# relation lattice and every verify_relation answer must come out the same.


def element_class_mark_matrix(G):
    """Oracle: the fixed points of the least element of each element class."""
    least, seen = [], set()
    for g in range(G.order):
        if g not in seen:
            least.append(g)
            seen.update(row[g] for row in G.conj)
    return [[fixed_points(G, H.representative, g) for H in G.subgroup_classes] for g in least]


SMALL_GROUPS = [f"c:{n}" for n in range(1, 13)] + ["c2xc2", "d:3", "d:5", "d:7", "cpxcp:3", "sd:7:3"]


def small_group(name):
    if name.startswith("c:"):
        return make_cyclic(int(name[2:]))
    return parse_group_spec(name)


def other_group(name):
    """c:<n>, "<A> x <B>" of two SMALL_GROUPS, or "<product> relabeled"."""
    if name.endswith(" relabeled"):
        G = other_group(name[: -len(" relabeled")])
        perm = list(range(G.order))
        random.Random(name).shuffle(perm)
        return relabeled(G, perm)
    if " x " in name:
        a, b = name.split(" x ")
        return direct_product(small_group(a), small_group(b))
    return small_group(name)


def _product_names() -> list:
    """The 50 direct products of two SMALL_GROUPS of least order."""
    pairs = [(a, b) for i, a in enumerate(SMALL_GROUPS) for b in SMALL_GROUPS[i:] if a != "c:1" != b]
    pairs.sort(key=lambda ab: (small_group(ab[0]).order * small_group(ab[1]).order, ab))
    return [f"{a} x {b}" for a, b in pairs[:50]]


PRODUCTS = _product_names()
OTHER_GROUPS = [f"c:{n}" for n in range(1, 61)] + PRODUCTS + [f"{name} relabeled" for name in PRODUCTS[-15:]]


def assert_lattice_matches_element_class_rows(G):
    rows = element_class_mark_matrix(G)
    basis = relation_lattice(G)
    assert [theta.coeff_vector() for theta in basis] == integer_kernel_basis(rows)
    # the basis relations, and their sum plus one more H, never a relation:
    # the character of C[G/H] is [G:H] at the identity
    total = [sum(col) for col in zip(*(theta.coeff_vector() for theta in basis))] or [0] * len(rows[0])
    candidates = list(basis)
    for cid in range(len(total)):
        vec = total[:cid] + [total[cid] + 1] + total[cid + 1:]
        candidates.append(BrauerRelation.from_dict(G, dict(enumerate(vec))))
    for theta in candidates:
        vec = theta.coeff_vector()
        expected = all(sum(a * n for a, n in zip(row, vec)) == 0 for row in rows)
        assert verify_relation(theta) == expected


@pytest.mark.parametrize("spec", family_specs(200))
def test_lattice_matches_element_class_rows_on_families(spec):
    assert_lattice_matches_element_class_rows(parse_group_spec(spec))


@pytest.mark.parametrize("name", OTHER_GROUPS)
def test_lattice_matches_element_class_rows_on_other_groups(name):
    assert_lattice_matches_element_class_rows(other_group(name))


# -- induction and inflation --------------------------------------------------------
# the transported relations are built by tests/oracle.py; the package checks them


def test_identity_induce_and_inflate_are_noops():
    K = make_elem_abelian(2)
    theta = canonical_relation(K)
    ident = list(range(K.order))
    assert induce(theta, K, ident).coeffs == theta.coeffs
    assert inflate(theta, K, ident).coeffs == theta.coeffs


def test_inflate_to_order8_verifies_with_norm_preserved():
    K = make_elem_abelian(2)
    G8 = direct_product(make_cyclic(2), K)  # (a, k) -> index a*4 + k
    proj = [x % 4 for x in range(8)]
    theta = canonical_relation(K)
    lifted = inflate(theta, G8, proj)
    assert verify_relation(lifted)
    assert ord_of(norm_constant(lifted), 2) == ord_of(norm_constant(theta), 2) == 1


base_specs = st.sampled_from(["c2xc2", "d:3", "d:5", "cpxcp:3", "sd:7:3"])
cofactor_orders = st.sampled_from([2, 3, 4, 5])


@given(base_specs, cofactor_orders, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_transport_preserves_norm_valuations(spec, k, rng):
    """ord_p of the norm constant is invariant under induction and inflation."""
    G = parse_group_spec(spec)
    theta = canonical_relation(G)
    big = direct_product(G, make_cyclic(k))
    perm = list(range(big.order))
    rng.shuffle(perm)
    shuffled = relabeled(big, perm)

    embedding = [perm[g * k] for g in range(G.order)]
    projection = [0] * big.order
    for x in range(big.order):
        projection[perm[x]] = x // k

    induced = induce(theta, shuffled, embedding)
    inflated = inflate(theta, shuffled, projection)
    assert verify_relation(induced)
    assert verify_relation(inflated)
    for p in (2, 3, 5, 7, 11, 13):
        assert ord_of(norm_constant(induced), p) == ord_of(norm_constant(theta), p)
        assert ord_of(norm_constant(inflated), p) == ord_of(norm_constant(theta), p)
    # degree zero is preserved as well
    assert induced.degree() == 0 and inflated.degree() == 0

