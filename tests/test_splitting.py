import itertools
import math
import pathlib
import random
import subprocess
import sys

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from selgrowth.groups import (
    FiniteGroup, GroupError, make_dihedral, make_elem_abelian, parse_group_spec,
)
from selgrowth.splitting import (
    AmbiguousSplittingError,
    FieldSpec,
    LocalClass,
    MissingLocalClassError,
    factor_degree_pattern,
    frobenius_class,
    is_squarefree,
    multiquadratic_local_class,
    quadratic_symbol,
    third_discriminant,
)

from oracle import biquadratic_polynomial

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _divide(f, g, v):
    """Quotient and remainder of f by a monic g over F_v, coefficients degree-descending."""
    f = list(f)
    q = []
    for i in range(len(f) - len(g) + 1):
        q.append(f[i])
        for j, b in enumerate(g):
            f[i + j] = (f[i + j] - q[-1] * b) % v
    return q, f[len(q):]


def trial_division_pattern(coeffs, v):
    """Oracle: factor degrees of a monic polynomial mod v, or None if a factor repeats.

    Each monic g of degree d = 1, 2, ... is divided out while it divides; d
    stops at half the degree that is left, and what remains is irreducible.
    """
    f = [c % v for c in coeffs]
    degrees = []
    d = 1
    while 2 * d <= len(f) - 1:
        for tail in itertools.product(range(v), repeat=d):
            g = (1, *tail)
            times = 0
            while len(f) > d:
                q, r = _divide(f, g, v)
                if any(r):
                    break
                f, times = q, times + 1
            if times > 1:
                return None
            degrees += [d] * times
        d += 1
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return tuple(sorted(degrees))


def brute_force_symbol(d, v):
    """Oracle: exhaustive residue search for odd v."""
    if d % v == 0:
        return "ramified"
    return "split" if any(x * x % v == d % v for x in range(1, v)) else "inert"


# -- quadratic symbols ------------------------------------------------------------


def test_symbol_examples():
    assert quadratic_symbol(3, 13) == "split"  # 4^2 = 3 mod 13
    assert quadratic_symbol(5, 5) == "ramified"
    assert quadratic_symbol(5, 13) == "inert"


def test_symbol_at_two():
    assert quadratic_symbol(-1, 2) == "ramified"  # -1 = 3 mod 4
    assert quadratic_symbol(2, 2) == "ramified"
    assert quadratic_symbol(17, 2) == "split"  # 1 mod 8
    assert quadratic_symbol(5, 2) == "inert"  # 5 mod 8
    assert quadratic_symbol(-7, 2) == "split"  # 1 mod 8


def test_symbol_rejects_bad_d():
    for d in (0, 1, 12, -18):
        with pytest.raises(ValueError):
            quadratic_symbol(d, 5)


@given(st.integers(-60, 60), st.sampled_from(SMALL_PRIMES))
@settings(max_examples=200, deadline=None)
def test_symbol_matches_brute_force(d, v):
    assume(d not in (0, 1))
    try:
        sym = quadratic_symbol(d, v)
    except ValueError:
        assume(False)
    assert sym == brute_force_symbol(d, v)


def euler_symbol(d, v):
    """Oracle for odd prime v: Euler's criterion, d^((v - 1) / 2) mod v."""
    r = pow(d, (v - 1) // 2, v)
    return "ramified" if r == 0 else "split" if r == 1 else "inert"


def test_symbol_matches_euler_for_every_squarefree_d_up_to_10_4():
    # the symbol is a Jacobi symbol, by reciprocity: each squarefree |d| <= 10^4
    # meets four odd primes of up to 70 bits, drawn the same on every run,
    # and each odd prime dividing d, where it ramifies
    n = 10 ** 4
    squarefree = bytearray([1]) * (n + 1)
    for k in range(2, math.isqrt(n) + 1):
        squarefree[k * k::k * k] = bytes(len(range(k * k, n + 1, k * k)))
    rng = random.Random(17)
    primes = sorted({sympy.nextprime(rng.getrandbits(bits) | 2) for bits in range(2, 71) for _ in range(3)})
    checked = 0
    for d in range(-n, n + 1):
        if d in (0, 1) or not squarefree[abs(d)]:
            continue
        for v in rng.sample(primes, 4) + [q for q in sympy.primefactors(d) if q > 2]:
            assert quadratic_symbol(d, v) == euler_symbol(d, v), (d, v)
            checked += 1
    assert checked > 6 * 10 ** 4


# -- multiquadratic local classes ---------------------------------------------------


def test_is_squarefree_at_the_edges():
    assert is_squarefree(1) and is_squarefree(-1) and is_squarefree(-30)
    assert not is_squarefree(0) and not is_squarefree(-12)


def test_field_descriptions():
    poly = (1, 0, -10, 0, 1)  # Q(sqrt 2, sqrt 3)
    assert FieldSpec.multiquadratic(3, 5).describe() == {"kind": "multiquadratic", "d1": 3, "d2": 5}
    assert FieldSpec.polynomial(poly, make_elem_abelian(2)).describe() == {"kind": "polynomial", "coeffs": list(poly)}
    assert FieldSpec.abstract(make_elem_abelian(2)).describe() == {"kind": "abstract"}


def test_third_discriminant():
    assert third_discriminant(3, 5) == 15
    assert third_discriminant(6, 10) == 15
    assert third_discriminant(-3, 5) == -15


def test_mq_local_class_examples():
    # (3, 5): 13 splits in Q(sqrt 3) only; 5 ramifies except in Q(sqrt 3); 7 splits in Q(sqrt 15)
    lc = multiquadratic_local_class(3, 5, 13)
    assert lc.names() == ("C2a", "1")
    lc = multiquadratic_local_class(3, 5, 5)
    assert lc.names() == ("G", "C2a")
    lc = multiquadratic_local_class(3, 5, 7)
    assert lc.names() == ("C2c", "1")


def test_mq_local_class_at_two():
    # 3 and 15 ramify at 2; 5 is inert at 2, so I fixes Q(sqrt 5) and D = G
    lc = multiquadratic_local_class(3, 5, 2)
    assert lc.names() == ("G", "C2b")
    # -1, 2, -2: all three subfields ramified, total ramification
    lc = multiquadratic_local_class(-1, 2, 2)
    assert lc.names() == ("G", "G")


def test_mq_counting_invariant():
    # Q(sqrt -1, sqrt -2) has third discriminant 2
    for (d1, d2), v in itertools.product(((3, 5), (-1, -2)), (2, 3, 5, 7, 11, 13, 97)):
        lc = multiquadratic_local_class(d1, d2, v)
        assert lc.e * lc.f * (lc.group.order // len(lc.decomposition)) == 4  # e f g = [F:Q]


def test_mq_rejects_square_product():
    with pytest.raises(ValueError):
        multiquadratic_local_class(3, 3, 7)
    with pytest.raises(ValueError):
        multiquadratic_local_class(4, 5, 7)


@given(
    st.sampled_from([(3, 5), (2, 3), (-1, 7), (-2, -5)]),
    st.sampled_from(SMALL_PRIMES + [53, 59, 61, 67, 71]),
)
@settings(max_examples=120, deadline=None)
def test_mq_unramified_primes_have_cyclic_frobenius(ds, v):
    d1, d2 = ds
    assume(v != 2 and d1 % v != 0 and d2 % v != 0 and third_discriminant(d1, d2) % v != 0)
    lc = multiquadratic_local_class(d1, d2, v)
    assert lc.e == 1
    G = lc.group
    assert G.is_cyclic_subgroup(lc.decomposition)


# -- degree patterns -----------------------------------------------------------------


def test_pattern_quadratic():
    assert factor_degree_pattern((1, 0, 1), 5) == (1, 1)  # x^2 + 1, 5 = 1 mod 4
    assert factor_degree_pattern((1, 0, 1), 7) == (2,)


def test_pattern_biquadratic_23():
    # x^4 - 10x^2 + 1 defines Q(sqrt 2, sqrt 3); 2, 3, 6 are all squares mod 23
    assert factor_degree_pattern((1, 0, -10, 0, 1), 23) == (1, 1, 1, 1)
    lc = multiquadratic_local_class(2, 3, 23)
    assert len(lc.decomposition) == 1


def test_pattern_rejects_ramified():
    with pytest.raises(MissingLocalClassError):
        factor_degree_pattern((1, 0, -10, 0, 1), 2)


def test_trial_division_oracle_examples():
    assert trial_division_pattern((1, 0, 1), 5) == (1, 1)
    assert trial_division_pattern((1, 0, 1), 7) == (2,)
    assert trial_division_pattern((1, 0, 0, 0, 0, 0, 1), 2) is None  # (x^3 + 1)^2
    assert trial_division_pattern((1, 0, 0, 0, 1), 3) == (2, 2)  # (x^2 + x + 2)(x^2 + 2x + 2)
    assert trial_division_pattern((1, 0, 0, 0, 0, 1, 1), 2) == (6,)  # x^6 + x + 1, irreducible


@given(
    st.lists(st.integers(-99, 99), min_size=1, max_size=6),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
@example([-12, 86], 2)  # x^2 mod 2, which sympy 1.14's Poly.is_sqf calls squarefree
@settings(derandomize=True, max_examples=300, deadline=None)
def test_pattern_matches_trial_division(tail, v):
    coeffs = (1, *tail)
    expected = trial_division_pattern(coeffs, v)
    if expected is None:
        with pytest.raises(MissingLocalClassError):
            factor_degree_pattern(coeffs, v)
    else:
        assert factor_degree_pattern(coeffs, v) == expected


@given(
    st.sampled_from([(2, 3), (3, 5), (2, 5), (5, 7), (-1, 3), (2, -3), (-2, -5)]),
    st.sampled_from([v for v in SMALL_PRIMES if v < 500] + [53, 97, 211, 499]),
)
@settings(max_examples=200, deadline=None)
def test_mq_consistent_with_degree_pattern(ds, v):
    d1, d2 = ds
    poly = biquadratic_polynomial(d1, d2)
    try:
        pattern = factor_degree_pattern(poly, v)
    except MissingLocalClassError:
        assume(False)
    lc = multiquadratic_local_class(d1, d2, v)
    assume(lc.e == 1)  # pattern logic applies to unramified primes only
    assert set(pattern) == {len(lc.decomposition)}
    assert len(pattern) == 4 // len(lc.decomposition)


# -- frobenius classes ----------------------------------------------------------------


def test_frobenius_dihedral():
    G = make_dihedral(5)
    lc = frobenius_class(G, (5, 5))
    assert len(lc.decomposition) == 5 and len(lc.inertia) == 1
    lc = frobenius_class(make_dihedral(3), (1,) * 6)
    assert len(lc.decomposition) == 1


def test_frobenius_ambiguous_cases():
    K = make_elem_abelian(2)
    with pytest.raises(AmbiguousSplittingError):
        frobenius_class(K, (2, 2))
    with pytest.raises(AmbiguousSplittingError):
        frobenius_class(make_elem_abelian(3), (3, 3, 3))
    # C4 x C2, element 2a + b = (a, b): two cyclic subgroups of order 4, so
    # two classes are as ambiguous as more
    table = [[2 * ((a + c) % 4) + (b + d) % 2 for c in range(4) for d in range(2)]
             for a in range(4) for b in range(2)]
    with pytest.raises(AmbiguousSplittingError, match="the 2 order-4 classes"):
        frobenius_class(FiniteGroup(table), (4, 4))


def test_field_local_class_sources():
    # an override wins over the quadratic symbols, which give (C2a, 1) at 13;
    # a polynomial field reads its degree pattern; an abstract field has none
    mq = FieldSpec.multiquadratic(3, 5)
    assert mq.local_class(13, {13: ("G", "C2a")}).names() == ("G", "C2a")
    assert mq.local_class(13, {5: ("G", "C2a")}).names() == ("C2a", "1")
    poly = FieldSpec.polynomial((1, 0, -10, 0, 1), make_elem_abelian(2))  # Q(sqrt 2, sqrt 3)
    assert poly.local_class(23, None).names() == ("1", "1")  # 2 and 3 are squares mod 23
    with pytest.raises(MissingLocalClassError, match="abstract fields"):
        FieldSpec.abstract(make_elem_abelian(2)).local_class(13, None)


def test_frobenius_rejects_non_galois_pattern():
    with pytest.raises(ValueError):
        frobenius_class(make_dihedral(3), (1, 2, 3))


# every family group of order at most 60
SMALL_FAMILY_SPECS = ["c2xc2", "d:3", "d:5", "d:7", "d:11", "d:13", "d:17", "d:19", "d:23",
                      "d:29", "cpxcp:3", "cpxcp:5", "cpxcp:7", "sd:7:3", "sd:13:3", "sd:19:3",
                      "sd:11:5"]


def powers(G, g):
    """<g> as the list of powers e, g, g^2, ..., read from the table alone."""
    out, x = [G.identity], g
    while x != G.identity:
        out.append(x)
        x = G.table[x][g]
    return out


@pytest.mark.parametrize("spec", SMALL_FAMILY_SPECS)
def test_frobenius_class_for_every_divisor(spec):
    # oracle: the conjugacy classes of cyclic subgroups of order d, from
    # element orders; the pattern fixes the class exactly when there is one
    G = parse_group_spec(spec)
    resolved = []
    for d in (d for d in range(1, G.order + 1) if G.order % d == 0):
        cyclic = {
            G.class_of_subgroup(C).class_id
            for C in (powers(G, g) for g in range(G.order))
            if len(C) == d
        }
        pattern = (d,) * (G.order // d)
        if not cyclic:
            with pytest.raises(ValueError) as info:
                frobenius_class(G, pattern)
            assert not isinstance(info.value, AmbiguousSplittingError)
        elif len(cyclic) > 1:
            assert (G.family.name, d) in (("c2xc2", 2), ("cpxcp", G.family.p))
            with pytest.raises(AmbiguousSplittingError):
                frobenius_class(G, pattern)
        else:
            lc = frobenius_class(G, pattern)
            assert lc in G.local_classes and lc.e == 1 and len(lc.decomposition) == d
            assert G.class_of_subgroup(lc.decomposition).class_id in cyclic
            resolved.append(d)
    if G.family.name == "sd":
        assert resolved == [1, G.family.q, G.family.p]
    if G.family.name == "cpxcp":
        assert resolved == [1]


# -- field specs -----------------------------------------------------------------------


def test_field_spec_polynomial_validation():
    G = make_elem_abelian(2)
    FieldSpec.polynomial((1, 0, -10, 0, 1), G)
    with pytest.raises(ValueError):
        FieldSpec.polynomial((2, 0, -10, 0, 1), G)  # not monic
    with pytest.raises(ValueError):
        FieldSpec.polynomial((1, 0, 1), G)  # wrong degree
    with pytest.raises(ValueError):
        FieldSpec.polynomial((1, 0, -5, 0, 4), G)  # reducible


def test_local_class_validation():
    G = make_dihedral(3)
    C2 = next(c.representative for c in G.subgroup_classes if c.order == 2)
    with pytest.raises(GroupError):
        LocalClass(G, bytes(range(G.order)), C2)  # C2 not normal in G


def test_output_guards_raise_under_python_O():
    # the consistency checks of multiquadratic_local_class and
    # factor_degree_pattern, made to fire; they must raise even when asserts
    # are compiled away
    code = (
        "import sympy\n"
        "from selgrowth import splitting\n"
        "from selgrowth.groups import GroupError\n"
        "def all_subfields_ramified():\n"
        "    # a class made at 2, where all three subfields can ramify, is no answer at 7\n"
        "    splitting.multiquadratic_local_class(-1, 2, 2)\n"
        "    splitting._symbol = lambda d, v: splitting.RAMIFIED\n"
        "    splitting.multiquadratic_local_class(3, 5, 7)\n"
        "def degrees_do_not_sum():\n"
        "    factor_list = sympy.Poly.factor_list  # patched to lose the first factor\n"
        "    sympy.Poly.factor_list = lambda f: (lambda c, fs: (c, fs[1:]))(*factor_list(f))\n"
        "    splitting.factor_degree_pattern((1, 0, 1, 0), 3)  # x (x^2 + 1)\n"
        "checks = ((all_subfields_ramified, GroupError, 'quadratic subfields'),\n"
        "          (degrees_do_not_sum, ValueError, 'do not sum'))\n"
        "for call, error, words in checks:\n"
        "    try:\n"
        "        call()\n"
        "    except error as exc:\n"
        "        if words in str(exc):\n"
        "            continue\n"
        "    raise SystemExit(f'{call.__name__}: guard did not raise')\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
