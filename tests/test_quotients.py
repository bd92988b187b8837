import contextlib
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import selgrowth
from selgrowth import groups, quotients
from selgrowth.brauer import canonical_relation, norm_constant
from selgrowth.curves import (
    ADDITIVE,
    NONSPLIT_MULT,
    SPLIT_MULT,
    ReductionData,
    SingularModelError,
    WeierstrassModel,
    make_profile,
)
from selgrowth.cli import main
from selgrowth.factored import FactoredRational
from selgrowth.groups import MAX_ORDER, Family, FiniteGroup, Subgroup, parse_group_spec
from selgrowth.quotients import (
    COL_NONSPLIT_SPLITS,
    COL_NONSPLIT_STAYS,
    COL_SPLIT,
    NonSemistableError,
    PARITY_EVEN,
    PARITY_ODD,
    ROW_INERT_RAMIFIED,
    ROW_SPLITS,
    ROW_TOTALLY_RAMIFIED,
    cell_key,
    certify,
    hypothesis_check,
    local_theta_quotient,
    oracle_table,
    quotient_table,
    regulator_quotient,
)
from selgrowth.splitting import FieldSpec, LocalClass

from oracle import DATA, bench_module, data_curves, family_specs


FAMILY_SPECS = ["c2xc2", "d:3", "d:5", "d:7", "cpxcp:3", "cpxcp:5", "cpxcp:7",
                "sd:7:3", "sd:13:3"]


# -- oracle == tables, exhaustively ----------------------------------------------


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_oracle_reproduces_every_table_cell(spec):
    G = parse_group_spec(spec)
    doc = oracle_table(G)
    # every cell of the family's table is listed, realized and reproduced exactly
    assert {(c["row"], c["col"], c["parity"]) for c in doc["cells"]} == set(quotient_table(G.family))
    assert all(c["realizations"] > 0 and c["oracle"] == "PASS" for c in doc["cells"])
    assert doc["unreachable_observed"] == []
    assert doc["nonsplit_p_part_trivial"] is (True if G.order % 2 else None)
    assert doc["all_pass"]


# every family group of order at most 60
SMALL_FAMILY_SPECS = ["c2xc2", "d:3", "d:5", "d:7", "d:11", "d:13", "d:17", "d:19", "d:23",
                      "d:29", "cpxcp:3", "cpxcp:5", "cpxcp:7", "sd:7:3", "sd:13:3", "sd:19:3",
                      "sd:11:5"]


def test_m_dependence_cancels_at_fixed_parity():
    # the tables carry only the parity of m = ord_v(delta): m and m + 2 agree
    for spec in SMALL_FAMILY_SPECS:
        G = parse_group_spec(spec)
        theta = canonical_relation(G)
        for lc in G.local_classes:
            for kind in (SPLIT_MULT, NONSPLIT_MULT):
                for m in (1, 2):
                    a = local_theta_quotient(theta, lc, ReductionData(0, kind, m, 1))
                    b = local_theta_quotient(theta, lc, ReductionData(0, kind, m + 2, 1))
                    assert a.quotient == b.quotient, (spec, lc, kind, m)


def test_per_place_lemma_on_every_family_group():
    # the paper's local lemma: a place adds at most one p to the Tamagawa
    # quotient, and only where it is non-split (in C2 x C2 only with m even),
    # while the norm constant carries at least one p
    cells = 0
    for spec in family_specs(MAX_ORDER):
        G = parse_group_spec(spec)
        theta = canonical_relation(G)
        p, c2 = G.family.p, G.family.name == "c2xc2"
        assert norm_constant(theta).ord(p) >= 1, spec
        for lc in G.local_classes:
            for kind in (SPLIT_MULT, NONSPLIT_MULT):
                for m in (1, 2):
                    bound = 1 if kind == NONSPLIT_MULT and (not c2 or m % 2 == 0) else 0
                    quotient = local_theta_quotient(theta, lc, ReductionData(0, kind, m, 1)).quotient
                    assert quotient.ord(p) <= bound, (spec, lc.names(), kind, m)
                    cells += 1
        for (row, col, parity), value in quotient_table(G.family).items():
            bound = 1 if col != COL_SPLIT and (not c2 or parity == PARITY_EVEN) else 0
            assert value <= bound, (spec, row, col, parity)
    assert cells == 1536


def test_place_degrees_computed_once_per_group(monkeypatch):
    # one oracle_table call counts the places of each (H, local class) once
    G = FiniteGroup(parse_group_spec("d:5").table, family=Family.parse("d:5"))
    calls = []
    real = quotients.place_counts
    monkeypatch.setattr(quotients, "place_counts", lambda *a: calls.append(a) or real(*a))
    oracle_table(G)
    assert len(calls) == len(canonical_relation(G).coeffs) * len(G.local_classes)


def test_tampered_table_cell_fails(monkeypatch, capsys):
    real = quotients.quotient_table

    def tampered(family):
        table = real(family)
        table[(ROW_INERT_RAMIFIED, COL_SPLIT, None)] -= 1
        return table

    monkeypatch.setattr(quotients, "quotient_table", tampered)
    doc = oracle_table(parse_group_spec("d:5"))
    failed = [c for c in doc["cells"] if c["oracle"] == "FAIL"]
    assert [(c["row"], c["col"], c["value_ord_p"]) for c in failed] == [
        (ROW_INERT_RAMIFIED, COL_SPLIT, -2)
    ]
    assert failed[0]["realizations"] > 0
    assert not doc["all_pass"]
    # the CLI prints the table and exits 2 with one line on stderr
    assert main(["tables", "d:5"]) == 2
    out = capsys.readouterr()
    assert json.loads(out.out) == doc
    assert out.err.count("\n") == 1


def test_stray_prime_in_a_quotient_fails_its_cell(monkeypatch):
    # a cell compares whole quotients, not only their p-parts
    real = quotients._evaluate

    def stray(*args):
        contributions, quotient = real(*args)
        return contributions, quotient * FactoredRational({3: 1})

    monkeypatch.setattr(quotients, "_evaluate", stray)
    doc = oracle_table(parse_group_spec("d:5"))
    assert {c["oracle"] for c in doc["cells"]} == {"FAIL"}
    assert not doc["all_pass"]


@pytest.mark.parametrize("spec", ["c2xc2", "d:3", "d:5", "d:7"])
def test_dash_cells_unreachable(spec):
    G = parse_group_spec(spec)
    reachable = {
        cell_key(lc, kind, m)[:2]
        for lc in G.local_classes
        for kind in (SPLIT_MULT, NONSPLIT_MULT)
        for m in (1, 2)
    }
    tabulated = {key[:2] for key in quotient_table(G.family)}
    for dash in ((ROW_INERT_RAMIFIED, COL_NONSPLIT_STAYS), (ROW_TOTALLY_RAMIFIED, COL_NONSPLIT_SPLITS)):
        assert dash not in reachable
        assert dash not in tabulated
    with pytest.raises(ValueError):
        cell_key(G.local_classes[0], ADDITIVE, 1)


def test_paper_cell_values_spotchecks():
    # D_2p: totally ramified x split = 1/p; inert/ramified x (nonsplit -> split over M) = p
    d5 = quotient_table(Family.parse("d:5"))
    assert d5[(ROW_TOTALLY_RAMIFIED, COL_SPLIT, None)] == -1
    assert d5[(ROW_INERT_RAMIFIED, COL_NONSPLIT_SPLITS, None)] == 1
    assert d5[(ROW_SPLITS, COL_SPLIT, None)] == 0
    # C2xC2 parity subcases
    c2 = quotient_table(Family.parse("c2xc2"))
    assert c2[(ROW_TOTALLY_RAMIFIED, COL_NONSPLIT_STAYS, PARITY_EVEN)] == 0
    assert c2[(ROW_TOTALLY_RAMIFIED, COL_NONSPLIT_STAYS, PARITY_ODD)] == -2
    assert c2[(ROW_INERT_RAMIFIED, COL_NONSPLIT_SPLITS, PARITY_EVEN)] == 1
    # odd-order families
    assert quotient_table(Family.parse("cpxcp:3"))[(ROW_TOTALLY_RAMIFIED, COL_SPLIT, None)] == -2
    assert quotient_table(Family.parse("sd:7:3"))[(ROW_INERT_RAMIFIED, COL_SPLIT, None)] == -2


def test_spec_quotient_examples():
    # the worked examples: ord_p values for specific (family, D, I, reduction)
    G = parse_group_spec("d:5")
    theta = canonical_relation(G)
    lc = LocalClass(G, Subgroup(range(G.order)), Subgroup(range(G.order)))
    rep = local_theta_quotient(theta, lc, ReductionData(0, SPLIT_MULT, 3, 1))
    assert rep.quotient.ord(5) == -1

    K = parse_group_spec("c2xc2")
    tK = canonical_relation(K)
    lcK = LocalClass(K, Subgroup(range(K.order)), Subgroup(range(K.order)))
    rep = local_theta_quotient(tK, lcK, ReductionData(0, NONSPLIT_MULT, 1, 1))
    assert rep.quotient.ord(2) == -2
    lcK2 = LocalClass(K, Subgroup(range(K.order)), K.class_by_name("C2a").representative)
    rep = local_theta_quotient(tK, lcK2, ReductionData(0, NONSPLIT_MULT, 2, 1))
    assert rep.quotient.ord(2) == 1

    for spec, expected in (("cpxcp:5", -4), ("sd:7:3", -2)):
        G = parse_group_spec(spec)
        lc = LocalClass(G, Subgroup(range(G.order)), Subgroup(range(G.order)))
        rep = local_theta_quotient(canonical_relation(G), lc, ReductionData(0, SPLIT_MULT, 1, 1))
        assert rep.quotient.ord(G.family.p) == expected


def test_good_reduction_contributes_one():
    G = parse_group_spec("d:5")
    lc = LocalClass(G, Subgroup(range(G.order)), Subgroup(range(G.order)))
    rep = local_theta_quotient(canonical_relation(G), lc, ReductionData(3, "good", 0, 1))
    assert rep.quotient == FactoredRational()


def test_additive_reduction_refused():
    G = parse_group_spec("c2xc2")
    lc = LocalClass(G, Subgroup(range(G.order)), Subgroup(range(G.order)))
    with pytest.raises(NonSemistableError):
        local_theta_quotient(canonical_relation(G), lc, ReductionData(3, "additive", 2, None))


def test_split_completely_gives_one():
    for spec in FAMILY_SPECS:
        G = parse_group_spec(spec)
        lc = LocalClass(G, Subgroup((G.identity,)), Subgroup((G.identity,)))
        for kind in (SPLIT_MULT, NONSPLIT_MULT):
            rep = local_theta_quotient(canonical_relation(G), lc, ReductionData(0, kind, 1, 1))
            assert rep.quotient == FactoredRational()


@given(st.sampled_from(FAMILY_SPECS), st.data())
@settings(max_examples=80, deadline=None)
def test_quotient_invariant_under_conjugation(spec, data):
    G = parse_group_spec(spec)
    theta = canonical_relation(G)
    lc = data.draw(st.sampled_from(G.local_classes))
    x = data.draw(st.integers(0, G.order - 1))
    row = G.conj[x]
    conj = LocalClass(
        G, Subgroup(row[h] for h in lc.decomposition), Subgroup(row[h] for h in lc.inertia)
    )
    kind = data.draw(st.sampled_from([SPLIT_MULT, NONSPLIT_MULT]))
    a = local_theta_quotient(theta, lc, ReductionData(0, kind, 1, 1))
    b = local_theta_quotient(theta, conj, ReductionData(0, kind, 1, 1))
    assert a.quotient == b.quotient


@given(
    st.sampled_from([(3, 5), (2, 3), (-1, 3), (2, -3), (5, 7), (-2, -5)]),
    st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29]),
    st.sampled_from([SPLIT_MULT, NONSPLIT_MULT]),
    st.integers(1, 4),
)
@settings(max_examples=150, deadline=None)
def test_biquadratic_contributions_match_quadratic_symbols(ds, v, kind, m):
    """Independent route: the per-subfield contributions of an mq place report
    must agree with the splitting of v in each quadratic subfield computed
    directly from residue symbols (two places e=f=1 / one inert f=2 / one
    ramified e=2), bypassing the double-coset machinery entirely."""
    from selgrowth.records import tamagawa
    from selgrowth.splitting import (
        multiquadratic_local_class,
        quadratic_symbol,
        third_discriminant,
    )

    d1, d2 = ds
    G = parse_group_spec("c2xc2")
    theta = canonical_relation(G)
    lc = multiquadratic_local_class(d1, d2, v)
    rep = local_theta_quotient(theta, lc, ReductionData(v, kind, m, 1))
    contribs = {
        G.class_names[cid]: fr for cid, fr in rep.contributions
    }
    subfield_of = {"C2a": d1, "C2b": d2, "C2c": third_discriminant(d1, d2)}
    for name, d in subfield_of.items():
        sym = quadratic_symbol(d, v)
        if sym == "split":
            expected = FactoredRational.from_int(tamagawa(kind, 1, 1, m)) ** 2
        elif sym == "inert":
            expected = FactoredRational.from_int(tamagawa(kind, 1, 2, m))
        else:
            expected = FactoredRational.from_int(tamagawa(kind, 2, 1, m))
        assert contribs[name] == expected, (name, d, sym)
    # the base field contributes the plain Tamagawa number
    assert contribs["G"] == FactoredRational.from_int(tamagawa(kind, 1, 1, m))


def test_mq_quotients_are_tamagawa_products_of_the_five_subfields():
    """A fourth description of mq: fields, from first principles. At each bad
    prime v of the first 200 seed-7 certify_mq requests, the Tamagawa products
    over the places of Q, the three quadratic fields L and K above v give
    Tam(K) Tam(Q)^2 / prod Tam(L), which must be the place's quotient; the
    ord_2 of these, summed, is the certificate's. The splitting of v in each L
    is the benchmark's symbol, and Tate's rule for I_n is written here: no
    group, Brauer relation, Mackey count or records.tamagawa."""
    checkers, workloads = bench_module("checkers"), bench_module("workloads")

    def tam(kind, m, places):
        # at a place (e, f) the fiber I_m becomes I_{em}: split when E is split
        # at v or f is even, with em components, and non-split with 1 or 2
        return math.prod(e * m if kind == SPLIT_MULT or f % 2 == 0 else 2 - e * m % 2 for e, f in places)

    def ord_2(x):
        return (x.numerator & -x.numerator).bit_length() - (x.denominator & -x.denominator).bit_length()

    quadratic_places = {"split": [(1, 1), (1, 1)], "inert": [(1, 2)], "ramified": [(2, 1)]}
    for req in workloads.make_inputs("certify_mq", 7)[0][:200]:
        cert = json.loads(workloads.certify_mq(selgrowth, req))
        d1, d2 = req["field"]
        g = math.gcd(d1, d2)
        total = 0
        for place in cert["places"]:
            kind, m = place["reduction"], place["m"]
            symbols = [checkers.splitting(d, place["v"]) for d in (d1, d2, d1 // g * (d2 // g))]
            # K is the compositum of any two L, so v is unramified (split) in K
            # when it is in two of them, and then in the third too; otherwise
            # K has degree 2 over the one L where v is, or v is in none of them:
            # e is 1, 2 or 4, and there are 4, 2 or 1 places
            e = {0: 1, 2: 2, 3: 4}[symbols.count("ramified")]
            n = {0: 1, 1: 2, 3: 4}[symbols.count("split")]
            assert 4 % (e * n) == 0
            tam_K = tam(kind, m, [(e, 4 // (e * n))] * n)
            expected = Fraction(tam_K * tam(kind, m, [(1, 1)]) ** 2,
                                math.prod(tam(kind, m, quadratic_places[s]) for s in symbols))
            assert expected == math.prod(Fraction(int(q)) ** k for q, k in place["quotient"].items()), (req, place)
            total += ord_2(expected)
        assert total == cert["ord_p"]["tamagawa_quotient"]


def test_report_internal_consistency():
    G = parse_group_spec("c2xc2")
    theta = canonical_relation(G)
    lc = LocalClass(G, Subgroup(range(G.order)), G.class_by_name("C2b").representative)
    rep = local_theta_quotient(theta, lc, ReductionData(5, NONSPLIT_MULT, 1, 1))
    # quotient equals the product of contributions raised to the coefficients
    acc = FactoredRational()
    coeffs = dict(theta.coeffs)
    for cid, contrib in rep.contributions:
        acc = acc * contrib ** coeffs[cid]
    assert acc == rep.quotient


# -- regulator quotient ------------------------------------------------------------


def test_regulator_quotient_values():
    K = parse_group_spec("c2xc2")
    assert regulator_quotient(norm_constant(canonical_relation(K)), 1).factors() == {2: -1}
    assert regulator_quotient(norm_constant(canonical_relation(K)), 0) == FactoredRational()
    G = parse_group_spec("d:5")
    assert regulator_quotient(norm_constant(canonical_relation(G)), 2).factors() == {5: -2}


# -- hypothesis checks ---------------------------------------------------------------


def test_hypothesis_check_cases():
    prof = make_profile(WeierstrassModel(0, 1, 1, -7, 5), rank=1, torsion_order=3)
    rep = hypothesis_check(prof, Family.parse("d:3"))
    assert rep.case_a and rep.case_b and rep.case_c and rep.hypotheses_pass

    prof65 = make_profile(WeierstrassModel(1, 0, 0, -1, 0), rank=1, torsion_order=2)
    rep = hypothesis_check(prof65, Family.parse("d:3"))
    assert rep.case_a and not rep.case_b and rep.failing is not None

    prof0 = make_profile(WeierstrassModel(0, -1, 1, -10, -20), rank=0, torsion_order=5)
    rep = hypothesis_check(prof0, Family.parse("c2xc2"))
    assert not (rep.case_a or rep.case_b or rep.case_c)


# -- certificates ---------------------------------------------------------------------


def example2_certificate():
    prof = make_profile(
        WeierstrassModel(1, 0, 0, -1, 0), rank=1, torsion_order=2,
        sha_p_trivial=(2,), label="65a1",
    )
    return certify(prof, FieldSpec.multiquadratic(3, 5), 2)


def test_certify_example2():
    cert = example2_certificate()
    assert cert.ord_p_tamagawa == -1
    assert cert.ord_p_rhs == 1
    assert cert.ord_p_sha_quotient == 2
    assert cert.conditional_sha_prediction == 2
    j = cert.as_json()
    assert j["conditional_prediction"]["sha_p_primary_order"] == 4
    assert j["conclusion_tier"] == "sha_nonzero"
    by_v = {p["v"]: p for p in j["places"]}
    assert by_v[5]["quotient"] == {"2": -1}
    assert by_v[13]["quotient"] == {}


def test_multiquadratic_field_validated_once_per_certificate(monkeypatch):
    # validating d1 and d2 factors them; FieldSpec.multiquadratic does it
    # once, and the places of the certificate (5 and 13) do not repeat it
    from selgrowth import splitting

    calls = []
    real = splitting._validate_multiquadratic
    monkeypatch.setattr(splitting, "_validate_multiquadratic", lambda *a: calls.append(a) or real(*a))
    assert [pr.v for pr in example2_certificate().places] == [5, 13]
    assert calls == [(3, 5)]
    with pytest.raises(ValueError):
        splitting.multiquadratic_local_class(3, 3, 7)  # the public function still checks
    assert calls == [(3, 5), (3, 3)]


def test_repeated_certificates_build_no_local_class(monkeypatch):
    # every place selects from the group's one enumeration of (D, I) pairs,
    # so once that exists a certificate checks no pair again
    from selgrowth import groups

    calls = []
    real = groups.LocalClass.__post_init__
    monkeypatch.setattr(groups.LocalClass, "__post_init__", lambda lc: calls.append(lc) or real(lc))
    prof = make_profile(WeierstrassModel(1, 0, 0, -1, 0), rank=1, torsion_order=2, label="65a1")
    abstract = FieldSpec.abstract(parse_group_spec("d:5"))
    overrides = {5: ("G", "C5"), 13: ("C2", "1")}
    for make in (lambda: certify(prof, abstract, 5, overrides),
                 lambda: certify(prof, FieldSpec.multiquadratic(3, 5), 2)):
        first = make().as_json()
        calls.clear()
        assert make().as_json() == first
        assert calls == []


def test_certify_equation3_consistency_on_example2():
    # asserted Sha orders: trivial over Q and the quadratics, order 4 over F
    cert = example2_certificate()
    n_top = cert.theta.named_coeffs()["1"]  # coefficient of the full field F
    ord_sha_lhs = n_top * 2  # ord_2 #Sha(E/F) = 2, all other fields contribute 0
    lhs = ord_sha_lhs + cert.ord_p_tamagawa
    assert lhs == cert.ord_p_rhs


def test_certify_wrong_prime_rejected():
    prof = make_profile(WeierstrassModel(1, 0, 0, -1, 0), rank=1, torsion_order=2)
    with pytest.raises(ValueError):
        certify(prof, FieldSpec.multiquadratic(3, 5), 3)


def test_certify_refuses_additive():
    prof = make_profile(WeierstrassModel(0, 0, 1, 0, -7), rank=1, torsion_order=3)
    with pytest.raises(NonSemistableError):
        certify(prof, FieldSpec.multiquadratic(3, 5), 2)


def test_certify_all_places_split_completely():
    # overrides forcing D = 1 at every bad place: quotient collapses to the rhs
    prof = make_profile(
        WeierstrassModel(1, 0, 0, -1, 0), rank=1, torsion_order=2, sha_p_trivial=(2,)
    )
    overrides = {5: ("1", "1"), 13: ("1", "1")}
    cert = certify(prof, FieldSpec.multiquadratic(3, 5), 2, overrides)
    assert cert.ord_p_tamagawa == 0
    assert cert.ord_p_sha_quotient == cert.profile.rank * norm_constant(cert.theta).ord(2) == 1


def test_certify_rank0_trivial_quotients():
    prof = make_profile(WeierstrassModel(0, -1, 1, -10, -20), rank=0, torsion_order=5)
    overrides = {11: ("1", "1")}
    cert = certify(prof, FieldSpec.multiquadratic(3, 5), 2, overrides)
    assert cert.ord_p_rhs == 0 and cert.ord_p_sha_quotient == 0
    assert cert.conclusion_tier == "none"


def test_certify_selmer_growth_tier():
    prof = make_profile(
        WeierstrassModel(0, 1, 1, -117, -1245), rank=1, torsion_order=1,
        sha_p_trivial=(2,), label="91b3",
    )
    cert = certify(prof, FieldSpec.multiquadratic(3, 5), 2)
    assert cert.conclusion_tier == "selmer_growth"
    assert cert.hypothesis.hypotheses_pass


def test_certify_dihedral_polynomial_field():
    # 91b1 over the S_3 splitting field of x^3 - x - 1 (primitive element
    # 2a + sqrt(-23)); the bad primes 7 and 13 are unramified there, with
    # Frobenius orders 2 and 3, so both land in the "splits" table row.
    prof = make_profile(
        WeierstrassModel(0, 1, 1, -7, 5), rank=1, torsion_order=3,
        sha_p_trivial=(3,), label="91b1",
    )
    sextic = (1, 0, 61, -16, 1603, 1168, 16831)
    field = FieldSpec.polynomial(sextic, parse_group_spec("d:3"))
    cert = certify(prof, field, 3)
    assert cert.hypothesis.hypotheses_pass
    for place in cert.places:
        assert place.reduction_kind == SPLIT_MULT
        assert place.quotient == FactoredRational()
    assert cert.ord_p_tamagawa == 0
    assert cert.ord_p_sha_quotient == cert.ord_p_rhs == 1


def test_certify_polynomial_field_ramified_prime_needs_override():
    # x^4 - 10x^2 + 1 cuts out Q(sqrt 2, sqrt 3); 15a1 is bad at 3, which
    # ramifies there, so the degree-pattern pathway must demand an override
    from selgrowth.splitting import MissingLocalClassError

    prof = make_profile(WeierstrassModel(1, 1, 1, -10, -10), rank=0, torsion_order=8)
    field = FieldSpec.polynomial((1, 0, -10, 0, 1), parse_group_spec("c2xc2"))
    with pytest.raises(MissingLocalClassError):
        certify(prof, field, 2)
    cert = certify(prof, field, 2, overrides={3: ("G", "C2a"), 5: ("C2b", "1")})
    assert cert.ord_p_rhs == 0


def test_certificate_round_trip_revalidates():
    cert = example2_certificate()
    blob = json.dumps(cert.as_json(), sort_keys=True)
    parsed = json.loads(blob)
    model = WeierstrassModel.from_ainvs(parsed["curve"]["model"])
    prof = make_profile(
        model,
        rank=parsed["assumptions"]["rank"],
        torsion_order=parsed["assumptions"]["torsion_order"],
        sha_p_trivial=parsed["assumptions"]["sha_p_trivial"],
        label=parsed["curve"]["label"],
    )
    field = FieldSpec.multiquadratic(parsed["field"]["d1"], parsed["field"]["d2"])
    overrides = {pl["v"]: (pl["D"], pl["I"]) for pl in parsed["places"]}
    recomputed = certify(prof, field, parsed["p"], overrides)
    assert json.dumps(recomputed.as_json(), sort_keys=True) == blob


def _semistable_models(count, seed):
    """Models with gcd(c4, delta) = 1, so minimal and semistable, drawn the same on every run."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ainvs = (1, rng.randint(-1, 1), rng.randint(0, 1), rng.randint(-10 ** 4, 10 ** 4), rng.randint(-10 ** 6, 10 ** 6))
        try:
            model = WeierstrassModel.from_ainvs(ainvs)
        except SingularModelError:
            continue
        if math.gcd(model.invariants.c4, model.invariants.delta) == 1:
            out.append(model)
    return out


def _scribble(node):
    """Change every dict and list inside a JSON document, in place."""
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for child in list(children):
        _scribble(child)
    if isinstance(node, dict):
        node.clear()
        node["scribbled"] = True
    elif isinstance(node, list):
        node.append("scribbled")


def test_memos_keep_certificates_byte_identical():
    # places, relations and multiquadratic local classes are kept on the
    # group: every certificate from the warm groups equals, byte for byte,
    # the one from groups built afresh, whatever a caller does to the JSON
    # it was handed, and each memo stays within its bound
    fields = [(3, 5), (-1, 2), (-3, 7), (6, 10), (5, 7)]
    requests = []
    for i, model in enumerate(_semistable_models(30, 17)):
        prof = make_profile(model, rank=i % 4, sha_p_trivial=(2, 3, 5) if i % 2 else ())
        requests.append((prof, lambda ds=fields[i % 5]: FieldSpec.multiquadratic(*ds), 2, None))
        spec = ("d:5", "cpxcp:3")[i % 2]
        names = [lc.names() for lc in parse_group_spec(spec).local_classes]
        overrides = {rd.v: names[(i + j) % len(names)] for j, rd in enumerate(prof.bad_places)}
        requests.append((prof, lambda spec=spec: FieldSpec.abstract(parse_group_spec(spec)), int(spec[-1]), overrides))

    def run(prof, field, p, overrides):
        return json.dumps(certify(prof, field(), p, overrides).as_json(), sort_keys=True)

    groups._family_group.cache_clear()  # so that the memos hold these requests alone
    warm = [run(*req) for req in requests]
    assert [run(*req) for req in requests] == warm
    for prof, field, p, overrides in requests:  # as_json hands out fresh containers
        _scribble(certify(prof, field(), p, overrides).as_json())
    assert [run(*req) for req in requests] == warm
    ms = {rd.m for prof, *_ in requests for rd in prof.bad_places}
    for spec in ("c2xc2", "d:5", "cpxcp:3"):
        G = parse_group_spec(spec)
        theta = canonical_relation(G)
        assert list(G.memo["relation_parts"]) == [theta]  # the one relation certify uses
        assert 0 < len(G.memo["places"]) <= len(G.local_classes)
        for degrees, names, results in G.memo["places"].values():
            assert len(degrees) == len(theta.coeffs) and names in G._local_class_index
            assert 0 < len(results) <= 2 * len(ms)
            for *_, (d_name, i_name, contributions, quotient) in results.values():
                assert (d_name, i_name) == names and len(contributions) == len(theta.coeffs)
    assert 0 < len(parse_group_spec("c2xc2").memo["symbol_classes"]) <= 3 ** 3 * 2
    fresh = []
    for req in requests:
        groups._family_group.cache_clear()
        fresh.append(run(*req))
    assert fresh == warm


THEOREM_SPECS = ["c2xc2", "d:3", "d:5", "d:7", "cpxcp:3", "cpxcp:5", "sd:7:3", "sd:13:3"]


@given(st.data())
@settings(max_examples=600, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_theorem_bound_holds_on_every_certificate(data):
    # the paper's criterion end to end, from the CLI: every place adds at most
    # 1 to ord_p of the Tamagawa quotient when it is non-split with even ord
    # (case a) or non-split (case b), and 0 in case c, so ord_p of the Sha
    # quotient is at least rank ord_p(norm) - n, n those places; the rank
    # inequality of the hypotheses makes that bound positive
    label, bad = data.draw(st.sampled_from(data_curves()))
    spec = data.draw(st.sampled_from(THEOREM_SPECS))
    G = parse_group_spec(spec)
    p = G.family.p
    argv = ["certify", "--label", label, "--data", str(DATA), "--group", spec, "-p", str(p)]
    if data.draw(st.booleans()):
        argv += ["--sha-trivial", str(p)]
    for v in bad:
        d_name, i_name = data.draw(st.sampled_from(G.local_classes)).names()
        argv += ["--local-class", f"{v}:D={d_name},I={i_name}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2 and err.getvalue().startswith("refused: additive reduction"):
        return  # not semistable: the theorem does not apply
    assert code == 0, err.getvalue()
    cert = json.loads(out.getvalue())
    hyp = cert["hypotheses"]
    n = {"a": hyp["n_nonsplit_even_ord"], "b": hyp["n_nonsplit"], "c": 0}[G.family.case]
    bound = hyp["rank"] * cert["relation"]["norm"].get(str(p), 0) - n
    assert cert["ord_p"]["sha_quotient"] >= bound
    if hyp["pass"]:
        assert bound >= 1
