from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selgrowth.brauer import (
    BrauerRelation,
    canonical_relation,
    mark_matrix,
    norm_constant,
    relation_lattice,
    verify_relation,
)
from selgrowth.groups import (
    FiniteGroup,
    GroupError,
    make_cyclic,
    make_dihedral,
    make_elem_abelian,
    make_semidirect,
    parse_group_spec,
)

from oracle import direct_product, induce, inflate, lattice_coordinates, relabeled


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
    assert norm_constant(canonical_relation(make_dihedral(5))).factors() == {5: 1}
    assert norm_constant(canonical_relation(make_elem_abelian(2))).factors() == {2: 1}
    assert norm_constant(canonical_relation(make_elem_abelian(3))).factors() == {3: 2}
    assert norm_constant(canonical_relation(make_semidirect(7, 3))).factors() == {7: 2}


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
    assert norm_constant(lifted).ord(2) == norm_constant(theta).ord(2) == 1


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
        assert norm_constant(induced).ord(p) == norm_constant(theta).ord(p)
        assert norm_constant(inflated).ord(p) == norm_constant(theta).ord(p)
    # degree zero is preserved as well
    assert induced.degree() == 0 and inflated.degree() == 0

