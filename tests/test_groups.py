import copy
import itertools
import math
import pathlib
import pickle
import subprocess
import sys
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selgrowth.arith import is_prime
from selgrowth.brauer import mark_matrix
from selgrowth.cli import main
from selgrowth.groups import (
    GROUP_CACHE_SIZE,
    MAX_ORDER,
    Family,
    FiniteGroup,
    GroupError,
    LocalClass,
    double_cosets,
    fixed_points,
    _family_group,
    make_cyclic,
    make_dihedral,
    make_elem_abelian,
    make_semidirect,
    parse_group_spec,
    place_counts,
)

from oracle import direct_product, family_specs, relabeled


def brute_force_subgroups(G):
    """Oracle: exhaustive subset search, feasible for |G| <= 16."""
    n = G.order
    assert n <= 16
    out = set()
    elems = [x for x in range(n) if x != G.identity]
    for size in [d for d in range(1, n + 1) if n % d == 0]:
        for combo in itertools.combinations(elems, size - 1):
            cand = frozenset(combo) | {G.identity}
            if all(G.table[a][b] in cand for a in cand for b in cand):
                out.add(tuple(sorted(cand)))
    return out


def fixed_cosets_oracle(G, H, g):
    """Oracle: enumerate the cosets xH and count the ones with g.xH == xH."""
    cosets = set()
    for x in range(G.order):
        cosets.add(frozenset(G.table[x][h] for h in H))
    count = 0
    for c in cosets:
        image = frozenset(G.table[g][y] for y in c)
        if image == c:
            count += 1
    return count


family_groups = st.sampled_from(
    ["c2xc2", "d:3", "d:5", "d:7", "cpxcp:3", "sd:7:3", "c:6", "c:8"]
)


def build(spec):
    if spec.startswith("c:"):
        return make_cyclic(int(spec.split(":")[1]))
    return parse_group_spec(spec)


# -- constructors --------------------------------------------------------------


def test_make_group_kinds():
    assert make_cyclic(6).order == 6
    assert make_dihedral(3).order == 6
    assert make_elem_abelian(3).order == 9
    assert make_semidirect(7, 3).order == 21


def test_group_axioms_validate():
    for spec in ("c2xc2", "d:3", "d:5", "cpxcp:3", "sd:7:3"):
        build(spec).validate()


def test_dihedral6_mark_matrix_has_three_rows():
    # one row per conjugacy class of cyclic subgroups: 1, C2 and C3
    assert len(mark_matrix(make_dihedral(3))) == 3


def test_semidirect_rejects_bad_parameters():
    with pytest.raises(GroupError):
        make_semidirect(5, 3)  # 3 does not divide 4
    with pytest.raises(GroupError):
        make_semidirect(7, 2)  # q must be odd


def test_semidirect_uses_least_unit():
    # order 3 units mod 7 are 2 and 4; the table must use 2
    G = make_semidirect(7, 3)
    # r at 1 and t at 7, with t^b r^a at 7 b + a: r t = t r^u = t r^2
    assert G.table[1][7] == 7 + 2


def test_parse_group_spec_errors():
    with pytest.raises(GroupError):
        parse_group_spec("q8")
    with pytest.raises(GroupError):
        parse_group_spec("d:4")  # 2 is not an odd prime


def test_order_cap():
    with pytest.raises(GroupError):
        make_cyclic(201)


C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


@pytest.mark.parametrize(
    "row1, reason",
    [
        ([1, 2], "not square"),  # ragged
        ([1, 2, 0, 1], "not square"),
        ([1, 2, -3], "not square"),  # negative
        ([1, 2, 3], "not square"),  # entry >= n
        ([1, 2.0, 0], "must be int"),
        ([1, 2, 0.0], "must be int"),
        ([1.5, 2, 0], "must be int"),
        ([1, "2", 0], "must be int"),
        ([True, 2, 0], "must be int"),  # though bytes([True, 2, 0]) is a valid row
        ([1, 2, False], "must be int"),
        (bytes([1, 2, 3]), "not square"),  # a bytes row with an entry >= n
        (bytes([1, 2]), "not square"),  # bytes rows of the wrong length
        (bytes([1, 2, 0, 1]), "not square"),
        (bytearray([1, 2, 3]), "not square"),
    ],
)
def test_malformed_tables_are_refused(row1, reason):
    # a table is stored as bytes rows, whether its rows come as lists, bytes,
    # bytearrays or a mix; each bad row is refused among list rows and among
    # bytes rows, with the same message
    rows = [bytes(row) for row in C3]
    for good in (C3, rows, [C3[0], rows[1], bytearray(C3[2])]):
        table = FiniteGroup(good).table
        assert [list(row) for row in table] == C3 and {type(row) for row in table} == {bytes}
    for others in (C3, rows):
        with pytest.raises(GroupError, match=reason):
            FiniteGroup([others[0], row1, others[2]])


def test_identity_is_read_off_the_table():
    # the one element whose row and column are both 0..n-1; in [[0, 1], [0, 1]]
    # both elements are left identities and neither is two-sided
    assert relabeled(make_cyclic(3), [2, 0, 1]).identity == 2
    with pytest.raises(GroupError, match="no element is a two-sided identity"):
        FiniteGroup([[0, 1], [0, 1]])


def test_inverse_is_the_first_right_inverse_that_is_also_a_left_inverse():
    # identity 0; row 1 has two right inverses of 1, and the first, 2, is no
    # left inverse (2 * 1 = 3), so the constructor must pick 3; the table is
    # no group, which validate() then finds
    table = [[0, 1, 2, 3], [1, 2, 0, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
    G = FiniteGroup(table)
    assert G.identity == 0 and table[1][2] == 0 != table[2][1]
    assert G._inv == (0, 3, 2, 1)
    with pytest.raises(GroupError, match="associativity fails"):
        G.validate()


@pytest.mark.parametrize("spec", [f"d:{10 ** 60 + 7}", f"cpxcp:{10 ** 60 + 7}", f"sd:{10 ** 60 + 7}:3"],
                         ids=["d", "cpxcp", "sd"])
def test_order_cap_is_checked_before_primality(spec, monkeypatch):
    # a primality test of a parameter the cap refuses can take seconds
    def no_primality_test(n):
        raise AssertionError(f"is_prime({n}) was called")

    monkeypatch.setattr("selgrowth.groups.is_prime", no_primality_test)
    with pytest.raises(GroupError, match=f"exceeds the cap {MAX_ORDER}"):
        Family.parse(spec)


@pytest.mark.parametrize("spec", ["d:-3", "cpxcp:-15", "sd:-7:-3", f"sd:{10 ** 60 + 7}:1"])
def test_parameter_below_2_is_refused_as_not_prime_without_a_test(spec, monkeypatch):
    # whatever the order (the square of -15 exceeds the cap), and a huge
    # parameter beside it gets no primality test either
    def no_primality_test(n):
        raise AssertionError(f"is_prime({n}) was called")

    monkeypatch.setattr("selgrowth.groups.is_prime", no_primality_test)
    with pytest.raises(GroupError, match="prime"):
        Family.parse(spec)


def test_equivalent_specs_share_one_group():
    G = parse_group_spec("d:97")
    assert parse_group_spec(" D:97") is G
    assert parse_group_spec("d:097") is G
    assert make_dihedral(97) is G
    assert parse_group_spec("C2XC2") is make_elem_abelian(2)
    assert parse_group_spec("sd:7:3") is make_semidirect(7, 3)


def test_bad_spec_raises_every_time():
    for _ in range(3):
        for spec in ("d:4", "d:x", "q8", "cpxcp:17"):
            with pytest.raises(GroupError):
                parse_group_spec(spec)


ALL_FAMILY_SPECS = family_specs(MAX_ORDER)


def test_family_parse_round_trips():
    assert len(ALL_FAMILY_SPECS) == 39
    for spec in ALL_FAMILY_SPECS:
        family = Family.parse(spec)
        assert str(family) == spec == str(parse_group_spec(spec).family)
        assert parse_group_spec(spec).family == family
        assert family.order == parse_group_spec(spec).order
    assert Family.parse(" D:97") == Family.parse("d:097") == Family("d", 97)
    assert str(Family.parse("d:097")) == "d:97"
    assert Family.parse("cpxcp:2") == Family.parse("C2XC2") == Family("c2xc2", 2)
    assert [Family.parse(s).case for s in ("c2xc2", "d:5", "cpxcp:3", "sd:7:3")] == list("abcc")
    assert make_cyclic(6).family is None


def test_family_and_local_class_are_immutable_values():
    fam = Family("d", 5)
    assert fam == Family.parse("D:05") and hash(fam) == hash(Family.parse("D:05"))
    assert fam != Family("d", 7) and fam != Family("cpxcp", 5) and fam != "d:5"
    G = make_dihedral(5)
    whole = bytes(range(G.order))
    lc = LocalClass(G, whole, G.class_by_name("C5").representative)
    assert lc == LocalClass(G, whole, bytes(range(5)))
    assert hash(lc) == hash(LocalClass(G, whole, bytes(range(5))))
    for record, field in ((fam, "p"), (fam, "name"), (lc, "inertia")):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == before
    assert repr(fam) == "Family(name='d', p=5, q=None)"
    assert copy.deepcopy(fam) == fam == pickle.loads(pickle.dumps(fam))


@pytest.mark.parametrize(
    "spec, message",
    [
        ("c:6", "unknown group spec 'c:6'; expected c2xc2, d:<p>, cpxcp:<p> or sd:<p>:<q>"),
        ("d:", "bad group spec 'd:': invalid literal for int() with base 10: ''"),
        ("sd:7", "unknown group spec 'sd:7'; expected c2xc2, d:<p>, cpxcp:<p> or sd:<p>:<q>"),
        ("d:x", "bad group spec 'd:x': invalid literal for int() with base 10: 'x'"),
        ("cpxcp:4", "bad group spec 'cpxcp:4': 4 is not prime"),
        # a parameter below 2 is named, though its square is over the cap
        ("cpxcp:-15", "bad group spec 'cpxcp:-15': -15 is not prime"),
    ],
)
def test_bad_family_specs_refused(spec, message, capsys, tmp_path):
    with pytest.raises(GroupError) as info:
        Family.parse(spec)
    assert str(info.value) == message
    data = tmp_path / "curves.csv"
    data.write_text("label,a1,a2,a3,a4,a6,rank,torsion,sha_an\n")
    for argv in (["tables", spec], ["relations", spec], ["scan", "--data", str(data), "--group", spec]):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"usage error: {message}\n")


def test_group_cache_is_bounded():
    first = make_dihedral(3)
    others = iter([p for p in range(5, 98) if is_prime(p)])
    for _ in range(GROUP_CACHE_SIZE - 1):
        make_dihedral(next(others))
    assert make_dihedral(3) is first  # still among the most recent groups
    for _ in range(GROUP_CACHE_SIZE):
        make_dihedral(next(others))
    assert make_dihedral(3) is not first
    assert _family_group.cache_info().currsize == GROUP_CACHE_SIZE


def test_family_takes_q_exactly_for_sd():
    with pytest.raises(GroupError, match="takes p and q"):
        Family("sd", 7)
    with pytest.raises(GroupError, match="takes p alone"):
        Family("d", 5, 3)  # once printed d:5 while unequal to Family("d", 5)
    assert Family("sd", 7, 3).q == 3 and Family("d", 5).q is None


def test_each_family_is_cp_by_ck_with_the_least_twist():
    # C_p : C_k with t^-1 r t = r^u, u the least unit of order k mod p (1 when k = p)
    got = {spec: (Family.parse(spec).k, Family.parse(spec).u) for spec in ALL_FAMILY_SPECS}
    assert [got[spec] for spec in ("c2xc2", "d:3", "d:97", "cpxcp:13", "sd:7:3", "sd:11:5", "sd:31:5")] == [
        (2, 1), (2, 2), (2, 96), (13, 1), (3, 2), (5, 3), (5, 2)]
    for spec, (k, u) in got.items():
        p = Family.parse(spec).p
        assert Family.parse(spec).order == p * k == parse_group_spec(spec).order
        assert [v for v in range(1, p) if pow(v, k, p) == 1 and (v > 1 or k == p)][0] == u


def test_layers_keep_their_memos_under_group_memo(capsys):
    # certify, tables and relations leave on a family group only what
    # FiniteGroup.__init__ sets and its cached properties: a layer keeps its
    # per-group results under its own key of G.memo, not as an attribute
    curve = ["certify", "--curve", "1,0,0,-1,0", "--rank", "1"]
    calls = [curve + ["--field", "mq:3,5", "-p", "2"]]
    for spec in ("c2xc2", "d:5", "cpxcp:3"):
        calls += [["tables", spec], ["relations", spec]]
        calls.append(curve + ["--group", spec, "-p", spec[-1],
                              "--local-class", "5:D=G,I=G", "--local-class", "13:D=1,I=1"])
    for argv in calls:
        assert main(argv) == 0, capsys.readouterr().err
    cached = {name for name, value in vars(FiniteGroup).items() if isinstance(value, cached_property)}
    assert "_padded" in cached  # the table's rows padded for bytes.translate, made on first use
    for spec in ("c2xc2", "d:5", "cpxcp:3"):
        G = parse_group_spec(spec)
        fresh = set(vars(FiniteGroup(G.table, family=G.family)))
        assert fresh == {"table", "order", "identity", "family", "_inv", "memo"}
        allowed = fresh | cached
        assert set(vars(G)) <= allowed, set(vars(G)) - allowed
        # each layer's key: brauer's relation; the places, and the relation's
        # norm and JSON parts, of quotients; splitting's quadratic-symbol classes
        mq = {"symbol_classes"} if spec == "c2xc2" else set()
        assert set(G.memo) == {"canonical_relation", "places", "relation_parts"} | mq


def test_tables_keeps_no_place_results(capsys):
    # tables builds each group for one table: keeping its cells in
    # G.memo["places"] would raise the family sweep's peak RSS
    for spec in ("c2xc2", "d:7", "cpxcp:5", "sd:7:3"):
        _family_group.cache_clear()
        assert main(["tables", spec]) == 0, capsys.readouterr().err
        assert set(parse_group_spec(spec).memo) == {"canonical_relation"}


def test_class_names_go_past_z():
    # C2^4 has 35 classes of order 4, none cyclic: U4a, ..., U4z, U4aa, ..., U4ai
    G = direct_product(make_elem_abelian(2), make_elem_abelian(2))
    names = G.class_names
    assert len(set(names)) == len(names)
    u4 = [name for name in names if name.startswith("U4")]
    assert len(u4) == 35 and u4[25:27] == ["U4z", "U4aa"] and u4[-1] == "U4ai"


# -- subgroup lattice -----------------------------------------------------------


@pytest.mark.parametrize("spec", ["c2xc2", "d:3", "c:6", "c:8", "cpxcp:3", "c:12", "c:16"])
def test_all_subgroups_against_brute_force(spec):
    G = build(spec)
    assert {tuple(s) for s in G.all_subgroups} == brute_force_subgroups(G)


def test_lattice_computes_no_join_that_lagrange_decides(monkeypatch):
    # in every family group, a join <H, g> that is the whole group is one
    # whose order |H<g>| = |H| k and Lagrange already decide, so the lattice
    # skips it and every join it computes is a proper subgroup
    join, sizes = FiniteGroup._join, []

    def recorded(self, *args):
        joined = join(self, *args)
        sizes.append(len(joined))
        return joined

    for spec in ALL_FAMILY_SPECS:
        family = parse_group_spec(spec)
        G = FiniteGroup(family.table)  # a copy with no lattice yet
        G._generators  # the generating set's joins do reach G
        sizes.clear()
        monkeypatch.setattr(FiniteGroup, "_join", recorded)
        classes = G.subgroup_classes
        monkeypatch.undo()
        assert classes == family.subgroup_classes
        assert sizes and max(sizes) < G.order, spec


def test_subgroup_class_counts():
    assert len(make_elem_abelian(2).subgroup_classes) == 5  # 1, three C2, G
    for p in (3, 5, 7):
        assert len(make_dihedral(p).subgroup_classes) == 4
    for p in (3, 5):
        assert len(make_elem_abelian(p).subgroup_classes) == p + 3
    assert len(make_semidirect(7, 3).subgroup_classes) == 4


def test_class_sizes_count_all_subgroups():
    for spec in ("c2xc2", "d:3", "d:5", "cpxcp:3", "sd:7:3", "c:12"):
        G = build(spec)
        assert sum(c.class_size for c in G.subgroup_classes) == len(G.all_subgroups)


def test_class_of_subgroup_refuses_non_subgroups():
    for spec in ("c2xc2", "d:3", "sd:7:3"):
        G = build(spec)
        e = G.identity
        prime = min(len(s) for s in G.all_subgroups if len(s) > 1)
        H, K = [s for s in G.all_subgroups if len(s) == prime][:2]
        assert G.class_of_subgroup(list(reversed(H))) == G.class_of_subgroup(H)
        for bad in (
            [h for h in H if h != e],  # no identity
            sorted(set(H) | set(K)),  # not closed: two distinct subgroups of prime order
            list(H) + [H[-1]],  # a repeated element
            [e, 300], [-1, e],  # elements that no byte holds
        ):
            with pytest.raises(GroupError, match="not a subgroup"):
                G.class_of_subgroup(bad)


def test_class_size_times_normalizer_is_group_order():
    for spec in ("d:5", "sd:7:3", "c2xc2"):
        G = build(spec)
        for cls in G.subgroup_classes:
            H = cls.representative
            normalizer = [x for x, row in enumerate(G.conj) if all(row[h] in H for h in H)]
            assert cls.class_size * len(normalizer) == G.order


def test_class_representative_is_lex_smallest():
    G = make_dihedral(5)
    for cls in G.subgroup_classes:
        rep = cls.representative
        for x in range(G.order):
            assert tuple(rep) <= tuple(sorted(G.conj[x][h] for h in rep))


def test_class_names():
    assert make_elem_abelian(2).class_names == ["1", "C2a", "C2b", "C2c", "G"]
    assert make_dihedral(5).class_names == ["1", "C2", "C5", "G"]
    assert make_semidirect(7, 3).class_names == ["1", "C3", "C7", "G"]


# -- fixed points ----------------------------------------------------------------


def test_fixed_points_identity_gives_index():
    G = make_dihedral(5)
    for cls in G.subgroup_classes:
        H = cls.representative
        assert fixed_points(G, H, G.identity) == G.order // len(H)


def test_fixed_points_examples():
    K = make_elem_abelian(2)
    C2a = bytes((0, 1))
    assert fixed_points(K, C2a, 1) == 2  # g inside its own C2
    G = make_dihedral(3)
    C2 = next(c.representative for c in G.subgroup_classes if c.order == 2)
    g3 = next(g for g in range(G.order) if G.element_orders[g] == 3)
    assert fixed_points(G, C2, g3) == 0


@given(family_groups, st.data())
@settings(max_examples=60, deadline=None)
def test_fixed_points_matches_coset_oracle(spec, data):
    G = build(spec)
    cls = data.draw(st.sampled_from(G.subgroup_classes))
    g = data.draw(st.integers(0, G.order - 1))
    assert fixed_points(G, cls.representative, g) == fixed_cosets_oracle(
        G, cls.representative, g
    )


@given(family_groups, st.data())
@settings(max_examples=40, deadline=None)
def test_fixed_points_constant_on_conjugacy_classes(spec, data):
    # equal at every conjugate x^-1 g x and at every generator g^k of <g>:
    # the mark matrix takes one row per conjugacy class of cyclic subgroups
    G = build(spec)
    H = data.draw(st.sampled_from(G.subgroup_classes)).representative
    g = data.draw(st.integers(0, G.order - 1))
    powers = [g]
    while powers[-1] != G.identity:
        powers.append(G.table[powers[-1]][g])
    m = len(powers)  # powers[k - 1] = g^k, and g^m = 1
    generators = [powers[k - 1] for k in range(1, m + 1) if math.gcd(k, m) == 1]
    values = {fixed_points(G, H, x) for x in generators + [row[g] for row in G.conj]}
    assert len(values) == 1


@given(family_groups, st.data())
@settings(max_examples=40, deadline=None)
def test_burnside_transitivity(spec, data):
    # the action on G/H is transitive: average fixed points = 1
    G = build(spec)
    cls = data.draw(st.sampled_from(G.subgroup_classes))
    total = sum(fixed_points(G, cls.representative, g) for g in range(G.order))
    assert total == G.order


# -- double cosets ----------------------------------------------------------------


def test_double_cosets_trivial_H():
    G = make_dihedral(3)
    D = next(c.representative for c in G.subgroup_classes if c.order == 2)
    recs = double_cosets(G, bytes((G.identity,)), D)
    assert len(recs) == G.order // len(D)
    assert all(r.degree == len(D) for r in recs)


def test_double_cosets_klein_four_abelian():
    K = make_elem_abelian(2)
    C2 = bytes((0, 1))
    recs = double_cosets(K, C2, LocalClass(K, C2, bytes((K.identity,))))
    assert len(recs) == 2
    assert all(r.degree == 1 and r.e_index == 1 and r.f_index == 1 for r in recs)


def test_double_cosets_dihedral_full_group():
    p = 5
    G = make_dihedral(p)
    C2 = next(c.representative for c in G.subgroup_classes if c.order == 2)
    recs = double_cosets(G, C2, LocalClass(G, bytes(range(G.order)), bytes(range(G.order))))
    assert len(recs) == 1
    assert recs[0].degree == p and recs[0].e_index == p and recs[0].f_index == 1


@given(family_groups, st.data())
@settings(max_examples=60, deadline=None)
def test_double_coset_degree_sum(spec, data):
    G = build(spec)
    H = data.draw(st.sampled_from(G.all_subgroups))
    D = data.draw(st.sampled_from(G.all_subgroups))
    recs = double_cosets(G, H, D)
    assert sum(r.degree for r in recs) == G.order // len(H)
    assert sum(r.size for r in recs) == G.order


def test_local_class_refusals_name_their_reason():
    # the first d of D with d^[D:I] as its first power in I either normalizes
    # I (accepted) or shows that I is not normal; with no such d the pair is
    # refused as not cyclic, also when I is not normal either
    G = make_dihedral(3)  # rotations 0..2, reflections 3..5
    whole, one = bytes(range(6)), bytes((0,))
    S = direct_product(make_dihedral(3), make_dihedral(3))  # (a, b) is 6 a + b
    # C3 x S3 and 1 x <s>: the elements of order 6, (c, s), have their cube in 1 x <s>
    c3_s3, s = bytes(range(18)), bytes((0, 3))
    assert any(bytes(sorted(s.translate(S.conj[d]))) != s for d in c3_s3)  # s is not normal in C3 x S3
    for group, D, I, reason in (
        (G, bytes((0, 3)), bytes((0, 1, 2)), "not contained"),
        (G, whole, bytes((0, 3)), "not normal"),
        (G, whole, one, "not cyclic"),
        (S, c3_s3, s, "not cyclic"),
    ):
        with pytest.raises(GroupError, match=reason):
            LocalClass(group, D, I)
    for D, I in ((whole, bytes(range(3))), (bytes(range(3)), one), (whole, whole), (one, one)):
        assert LocalClass(G, D, I).f == len(D) // len(I)


def test_output_guards_raise_under_python_O():
    # H = {0, 1} is not a subgroup of D_6: the degree-sum check of
    # double_cosets and the divisibility check of fixed_points must fire
    # even when asserts are compiled away, and so must the (D, I) check of
    # LocalClass (the reflection subgroup {0, 3} is not normal, and D_6 over
    # trivial inertia is not cyclic)
    code = (
        "from selgrowth.groups import (GroupError, LocalClass, double_cosets, fixed_points,\n"
        "                              make_dihedral)\n"
        "G = make_dihedral(3)\n"
        "H, one, whole = bytes((0, 1)), bytes((0,)), bytes(range(6))\n"
        "for call in (lambda: double_cosets(G, H, one), lambda: fixed_points(G, H, 1),\n"
        "             lambda: LocalClass(G, whole, bytes((0, 3))),\n"
        "             lambda: LocalClass(G, whole, one)):\n"
        "    try:\n"
        "        call()\n"
        "    except GroupError:\n"
        "        continue\n"
        "    raise SystemExit('guard did not raise')\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_double_cosets_rejects_bad_inertia():
    G = make_dihedral(3)
    C2 = next(c.representative for c in G.subgroup_classes if c.order == 2)
    one, whole = bytes((G.identity,)), bytes(range(G.order))
    with pytest.raises(GroupError):
        double_cosets(G, one, LocalClass(G, whole, C2))  # C2 not normal in G
    with pytest.raises(GroupError):
        # D/I = full dihedral over trivial inertia is not cyclic
        double_cosets(G, one, LocalClass(G, whole, one))


def test_double_cosets_refuse_a_local_class_of_another_group():
    G, other = make_dihedral(3), make_cyclic(6)
    one = bytes((G.identity,))
    lc = LocalClass(G, bytes(range(6)), bytes(range(6)))
    with pytest.raises(GroupError, match="different groups"):
        double_cosets(other, one, lc)
    # a copy of the same table is the same group
    copy_ = FiniteGroup(G.table)
    assert double_cosets(copy_, one, lc) == double_cosets(G, one, lc)


def test_place_counts_refuse_a_count_that_is_not_an_integer():
    # a private copy of d:5 whose orbit of C2 subgroups lost one member:
    # against D = C2 the places of (e, f) = (1, 2) come to 6/4
    G = FiniteGroup(make_dihedral(5).table)
    c2 = G.class_by_name("C2")
    lc = G.local_class(c2, G.class_by_name("1"))
    assert place_counts(G, c2.class_id, lc) == (((1, 1), 1), ((1, 2), 2))
    orbit = sorted(G._subgroup_orbits[c2.class_id])
    G._subgroup_orbits[c2.class_id] = set(orbit) - {orbit[-1]}
    assert orbit[-1] != lc.decomposition
    with pytest.raises(GroupError, match="not an integer"):
        place_counts(G, c2.class_id, lc)


# -- products and relabelings ------------------------------------------------------


def test_direct_product_and_relabel_are_groups():
    # the tests' non-family groups (tests/oracle.py) pass the package's checks
    G = direct_product(make_cyclic(2), make_elem_abelian(2))
    G.validate()
    assert G.order == 8
    perm = [3, 0, 6, 1, 7, 2, 5, 4]
    H = relabeled(G, perm)
    H.validate()
    assert H.identity == perm[G.identity] == 3  # found without being told
