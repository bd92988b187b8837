import copy
import math
import pathlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from selgrowth.curves import (
    SingularModelError,
    WeierstrassModel,
    ap_oracle,
    compute_invariants,
    legendre,
    make_profile,
    minimal_model,
)

from oracle import bench_module

# the benchmark's selgrowth-free oracle: point counts over F_v, v = 2 included
CHECKERS = bench_module("checkers")

ainv = st.integers(-25, 25)
models = st.tuples(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1), ainv, ainv)


def brute_force_is_square(a, p):
    """Oracle for the Legendre symbol: exhaustive square search."""
    a %= p
    return any(x * x % p == a for x in range(p))


# -- invariants -------------------------------------------------------------------


def test_invariants_65a1():
    inv = compute_invariants(WeierstrassModel(1, 0, 0, -1, 0))
    assert (inv.c4, inv.c6, inv.delta) == (49, -73, 65)
    assert (49 ** 3 - 73 ** 2) // 1728 == 65


def test_invariants_j_zero_curve():
    inv = compute_invariants(WeierstrassModel(0, 0, 0, 0, 1))
    assert inv.c4 == 0 and inv.delta == -432


def test_singular_model_rejected():
    with pytest.raises(SingularModelError):
        WeierstrassModel(0, 0, 0, 0, 0)


def test_models_are_immutable_values():
    m = WeierstrassModel(1, 0, 0, "-1", 0)
    assert m.ainvs() == (1, 0, 0, -1, 0) and type(m.a4) is int
    same = WeierstrassModel.from_ainvs([1, 0, 0, -1, 0])
    assert m == same and hash(m) == hash(same)
    assert m != WeierstrassModel(0, -1, 1, -10, -20) and m != (1, 0, 0, -1, 0)
    for field in ("a1", "a6"):
        with pytest.raises(AttributeError):
            setattr(m, field, 2)
        with pytest.raises(AttributeError):
            delattr(m, field)
    assert m.ainvs() == (1, 0, 0, -1, 0)
    assert repr(m) == "WeierstrassModel(a1=1, a2=0, a3=0, a4=-1, a6=0)"
    assert copy.deepcopy(m) == m == pickle.loads(pickle.dumps(m))


@given(models)
@settings(max_examples=150, deadline=None)
def test_identities_hold_on_random_models(t):
    try:
        m = WeierstrassModel(*t)
    except SingularModelError:
        assume(False)
    inv = compute_invariants(m)
    assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4 ** 2
    assert 1728 * inv.delta == inv.c4 ** 3 - inv.c6 ** 2


# -- minimal models -----------------------------------------------------------------


def test_minimal_model_65a1_unchanged():
    m = WeierstrassModel(1, 0, 0, -1, 0)
    assert minimal_model(m).ainvs() == m.ainvs()
    assert compute_invariants(minimal_model(m)).delta == 65  # 65 is 12th-power free


def test_minimal_model_unscales():
    # a_i -> u^i a_i with u = 2 recovers the original model
    scaled = WeierstrassModel(2, 0, 0, -16, 0)
    assert minimal_model(scaled).ainvs() == (1, 0, 0, -1, 0)


def test_minimal_model_tricky_3_torsion():
    # c4 = 0 with a 3-adic obstruction to scaling down (27a1 shape)
    m = WeierstrassModel(0, 0, 1, 0, -7)
    assert minimal_model(m).ainvs() == m.ainvs()


@given(models, st.sampled_from([1, 2, 3, 5, 6]))
@settings(max_examples=120, deadline=None)
def test_minimal_model_idempotent_and_divides(t, u):
    try:
        m = WeierstrassModel(*t)
    except SingularModelError:
        assume(False)
    scaled = WeierstrassModel(
        m.a1 * u, m.a2 * u ** 2, m.a3 * u ** 3, m.a4 * u ** 4, m.a6 * u ** 6
    )
    mm = minimal_model(scaled)
    assert minimal_model(mm).ainvs() == mm.ainvs()
    q, r = divmod(compute_invariants(scaled).delta, compute_invariants(mm).delta)
    assert r == 0
    # the quotient is a perfect 12th power
    root = round(abs(q) ** (1 / 12.0))
    assert q == root ** 12
    # normalized form
    assert mm.a1 in (0, 1) and mm.a3 in (0, 1) and mm.a2 in (-1, 0, 1)


# -- reduction types -----------------------------------------------------------------


def test_reduction_65a1():
    prof = make_profile(WeierstrassModel(1, 0, 0, -1, 0), rank=1, torsion_order=2)
    r5 = prof.reduction(5)
    assert (r5.kind, r5.m, r5.tamagawa) == ("nonsplit_mult", 1, 1)
    r13 = prof.reduction(13)
    assert (r13.kind, r13.m, r13.tamagawa) == ("nonsplit_mult", 1, 1)
    r2 = prof.reduction(2)
    assert (r2.kind, r2.tamagawa) == ("good", 1)


def test_reduction_11a1_split():
    prof = make_profile(WeierstrassModel(0, -1, 1, -10, -20), rank=0, torsion_order=5)
    r11 = prof.reduction(11)
    assert (r11.kind, r11.m, r11.tamagawa) == ("split_mult", 5, 5)


def test_reduction_additive_flagged():
    prof = make_profile(WeierstrassModel(0, 0, 1, 0, -7), rank=0, torsion_order=3)
    r3 = prof.reduction(3)
    assert r3.kind == "additive" and r3.tamagawa is None
    assert not prof.is_semistable()


def test_tamagawa_parity_rule():
    # 82a1: non-split at 2 with m = 2 even, so c = 2
    prof = make_profile(WeierstrassModel(1, 0, 1, -2, 0), rank=1, torsion_order=2)
    r2 = prof.reduction(2)
    assert (r2.kind, r2.m, r2.tamagawa) == ("nonsplit_mult", 2, 2)


# -- point-count oracle ---------------------------------------------------------------


def test_ap_oracle_65a1():
    m = WeierstrassModel(1, 0, 0, -1, 0)
    assert ap_oracle(m, 5) == "nonsplit"
    assert ap_oracle(m, 13) == "nonsplit"


def test_ap_oracle_split_case():
    assert ap_oracle(WeierstrassModel(0, -1, 1, -10, -20), 11) == "split"


def test_ap_oracle_rejects_good_reduction():
    with pytest.raises(ValueError):
        ap_oracle(WeierstrassModel(1, 0, 0, -1, 0), 7)


def test_ap_oracle_agrees_on_fixture_database(fixture_records):
    # the reference is the benchmark's point count, which imports nothing of
    # selgrowth; ap_oracle (odd v only) and make_profile must both match it
    checker = CHECKERS.Checker()
    checked = []
    for rec in fixture_records:
        prof = make_profile(rec.model(), rank=rec.rank, torsion_order=rec.torsion)
        ainvs = (rec.a1, rec.a2, rec.a3, rec.a4, rec.a6)
        c6 = CHECKERS.invariants(ainvs)["c6"]
        for rd in prof.bad_places:
            if rd.is_multiplicative():
                # the fixture models are minimal, so they are nodal at v
                expect = checker.multiplicative_kind(ainvs, c6, rd.v)
                assert rd.kind == expect
                if rd.v != 2:
                    assert ap_oracle(prof.model, rd.v) + "_mult" == expect
                checked.append(rd.v)
    assert len(checked) >= 20 and checked.count(2) == 4  # 14a1, 26b1, 82a1, 142a1


@given(models)
@example((1, 0, 1, 4, -6))  # 14a1: non-split at 2
@settings(derandomize=True, max_examples=200, deadline=None)
def test_reduction_kind_matches_point_counts_on_semistable_models(ainvs):
    # gcd(c4, delta) = 1 makes the model minimal and multiplicative at every
    # bad prime, so counting points on it decides split or non-split there
    inv = CHECKERS.invariants(ainvs)
    assume(inv["delta"] != 0 and math.gcd(inv["c4"], inv["delta"]) == 1)
    prof = make_profile(WeierstrassModel(*ainvs), rank=0)
    below = [rd for rd in prof.bad_places if rd.v < CHECKERS.POINT_COUNT_BELOW]
    assert sorted(rd.v for rd in below) == [
        v for v in range(2, CHECKERS.POINT_COUNT_BELOW) if CHECKERS.is_prime(v) and inv["delta"] % v == 0
    ]
    checker = CHECKERS.Checker()
    for rd in below:
        assert rd.kind == checker.multiplicative_kind(ainvs, inv["c6"], rd.v)


@given(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]), st.integers(0, 10 ** 4))
@settings(max_examples=150, deadline=None)
def test_legendre_matches_brute_force(p, a):
    sym = legendre(a, p)
    if a % p == 0:
        assert sym == 0
    else:
        assert (sym == 1) == brute_force_is_square(a, p)


# -- hypothesis counts ----------------------------------------------------------------


def test_hypothesis_counts_65a1():
    prof = make_profile(WeierstrassModel(1, 0, 0, -1, 0), rank=1, torsion_order=2)
    assert prof.hypothesis_counts() == (True, 2, 0)


def test_hypothesis_counts_91b1():
    prof = make_profile(WeierstrassModel(0, 1, 1, -7, 5), rank=1, torsion_order=3)
    assert prof.hypothesis_counts() == (True, 0, 0)


def test_hypothesis_counts_additive():
    prof = make_profile(WeierstrassModel(0, 0, 1, 0, -7), rank=0, torsion_order=3)
    assert prof.hypothesis_counts()[0] is False


def test_guards_raise_under_python_O():
    # three of the curve guards, made to fire; they must raise CurveCheckError
    # even when asserts are compiled away (a Kraus step that never succeeds
    # would otherwise loop forever)
    code = (
        "from selgrowth import curves\n"
        "from selgrowth.curves import CurveCheckError, ReductionData, SPLIT_MULT, WeierstrassModel\n"
        "def no_integral_model():\n"
        "    curves.model_from_c_invariants(-200, -2960)  # fails the Kraus condition at 2\n"
        "def kraus_never_met():\n"
        "    curves._kraus_ok_at_3 = lambda c6: False\n"
        "    curves.minimal_model(WeierstrassModel(1, 0, 0, -1, 0))\n"
        "def node_at_a_good_prime():\n"
        "    curves.reduction_at = lambda c4, c6, delta, v: ReductionData(v, SPLIT_MULT, 1, 1)\n"
        "    curves.ap_oracle(WeierstrassModel(1, 0, 0, -1, 0), 7)\n"
        "for call in (no_integral_model, kraus_never_met, node_at_a_good_prime):\n"
        "    try:\n"
        "        call()\n"
        "    except CurveCheckError:\n"
        "        continue\n"
        "    raise SystemExit(f'{call.__name__}: guard did not raise')\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
