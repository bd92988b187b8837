import collections
import itertools
import math
import random
import time
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from selgrowth import arith, factor_kernel
from selgrowth.arith import PSI_13, FactorizationBudgetError, factor, is_prime, is_unit_square, jacobi

# the differential tests below run the same examples on every run
DIFFERENTIAL = settings(derandomize=True, max_examples=200, deadline=None)

STRONG_PSEUDOPRIMES = [  # psi_1, psi_4, psi_9, psi_12, psi_13: composite
    2047,
    3215031751,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
]
CARMICHAEL = [561, 41041]
# psi_k: the least strong pseudoprime to the first k prime bases; is_prime
# moves from BPSW to 12 bases at 2^64, to 13 at psi_12 and to BPSW at psi_13
PSI = {7: 341550071728321, 9: 3825123056546413051, 12: 318665857834031151167461, 13: PSI_13}
# strong pseudoprimes to base 2: 2^q - 1 for a prime q, when composite, as
# 2^q = 1 modulo it and q divides (2^q - 2) / 2; and 2^(2^r) + 1, when
# composite, as 2^(2^r) = -1 modulo it
BASE_2_STRONG_PSEUDOPRIMES = [2 ** q - 1 for q in (11, 23, 29, 37, 41, 43, 47, 53, 59, 67, 71)]
BASE_2_STRONG_PSEUDOPRIMES += [2 ** 32 + 1, 2 ** 64 + 1]
MERSENNE_PRIMES = [2 ** 61 - 1, 2 ** 89 - 1]


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytearray(len(range(p * p, limit, p)))
    return flags


def _prime_near(lo, hi):
    return st.integers(lo, hi).map(sympy.nextprime)


# -- primality -----------------------------------------------------------------


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
def test_pseudoprimes_are_composite(n):
    assert not is_prime(n)


def test_psi_13_takes_the_bpsw_branch():
    assert PSI_13 == STRONG_PSEUDOPRIMES[-1]
    d, s = PSI_13 - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # psi_13 fools all 13 Miller-Rabin bases; only the Lucas half rejects it
    assert all(arith._strong_probable_prime(PSI_13, a, d, s) for a in arith._MR_BASES)
    assert not arith._strong_lucas_probable_prime(PSI_13)


@pytest.mark.parametrize("k", sorted(PSI))
def test_psi_k_fools_its_bases_and_is_composite(k):
    n = PSI[k]
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    assert all(arith._strong_probable_prime(n, a, d, s) for a in arith._MR_BASES[:k])
    assert not is_prime(n)


@pytest.mark.parametrize("k", sorted(PSI))
def test_is_prime_matches_sympy_around_psi_k(k):
    window = range(PSI[k] - 3000, PSI[k] + 3000)
    assert [n for n in window if is_prime(n)] == [n for n in window if sympy.isprime(n)]


def _odd_part(n):
    """(d, s) with n - 1 = d * 2^s and d odd."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return d, s


@pytest.mark.parametrize(
    "n", sorted({psi for psi, _ in arith._MR_RANGES} | set(PSI.values()) | set(BASE_2_STRONG_PSEUDOPRIMES))
)
def test_base_2_strong_pseudoprimes_are_rejected(n):
    assert arith._strong_probable_prime(n, 2, *_odd_part(n))
    assert not sympy.isprime(n)
    assert not is_prime(n)
    if min(sympy.factorint(n)) > arith.TRIAL_LIMIT:  # is_prime reaches the strong tests
        assert not arith._is_prime_no_small_factor(n)


def test_bpsw_below_2_64_and_twelve_bases_above():
    below, above = sympy.prevprime(2 ** 64), sympy.nextprime(2 ** 64)
    for n, bases in ((below, 1), (above, 12)):
        with mock.patch.object(arith, "_strong_probable_prime", wraps=arith._strong_probable_prime) as mr, \
                mock.patch.object(arith, "_strong_lucas_probable_prime",
                                  wraps=arith._strong_lucas_probable_prime) as lucas:
            assert is_prime(n)
        assert (mr.call_count, lucas.call_count) == (bases, int(bases == 1))
    window = range(below, above + 1)
    assert [n for n in window if is_prime(n)] == [below, above]


def _bits_uniform(lo, hi):
    """An integer in [2^lo, 2^hi), with its bit length uniform."""
    return st.integers(lo, hi - 1).flatmap(lambda b: st.integers(2 ** b, 2 ** (b + 1) - 1))


@DIFFERENTIAL
@given(st.one_of(
    _bits_uniform(20, 72),
    _bits_uniform(20, 72).map(sympy.nextprime),
    st.tuples(_bits_uniform(10, 36).map(sympy.nextprime), _bits_uniform(10, 36).map(sympy.nextprime)).map(math.prod),
))
def test_is_prime_matches_sympy_from_2_20_to_2_72(n):
    assert is_prime(n) == sympy.isprime(n)


def test_jacobi_matches_sympy_on_small_odd_moduli():
    assert all(
        jacobi(a, n) == sympy.jacobi_symbol(a, n) for n in range(1, 200, 2) for a in range(-n, 2 * n)
    )


@DIFFERENTIAL
@given(_prime_near(3, 2 ** 70), st.integers(-2 ** 80, 2 ** 80))
def test_jacobi_is_eulers_criterion_at_odd_primes(p, a):
    euler = pow(a, (p - 1) // 2, p)
    assert jacobi(a, p) == (0 if euler == 0 else 1 if euler == 1 else -1)


def test_is_unit_square_matches_brute_force_squares():
    # by Hensel's lemma a unit is a square in Q_2 when it is one mod 8, and in
    # Q_v for odd v when it is one mod v
    for v in [2] + [v for v in range(3, 100, 2) if all(v % d for d in range(3, v, 2))]:
        modulus = 8 if v == 2 else v
        squares = {y * y % modulus for y in range(modulus)}
        for x in range(-300, 300):
            if x % v:
                assert is_unit_square(x, v) == (x % modulus in squares), (x, v)


@pytest.mark.parametrize("n", MERSENNE_PRIMES)
def test_mersenne_primes(n):
    assert is_prime(n)
    assert factor(n) == {n: 1}


def test_is_prime_matches_a_sieve():
    flags = _sieve(200_000)
    assert [n for n in range(200_000) if is_prime(n)] == [n for n in range(200_000) if flags[n]]


def test_strong_lucas_test_with_selfridge_parameters():
    # the odd composites below 60000 it accepts are exactly the strong Lucas
    # pseudoprimes (OEIS A217255), and it accepts every odd prime
    flags = _sieve(60_000)
    accepted = [n for n in range(3, 60_000, 2) if arith._strong_lucas_probable_prime(n)]
    assert [n for n in accepted if not flags[n]] == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
    ]
    assert [n for n in accepted if flags[n]] == [n for n in range(3, 60_000, 2) if flags[n]]


def test_strong_lucas_test_matches_sympy():
    # the test reads U_d = 0 off V_d and V_(d+1), where sympy computes U_d
    # itself: every odd n below 10^5, with the twelve strong Lucas
    # pseudoprimes there, and odd n of 20 to 70 bits drawn the same on every run
    from sympy.ntheory.primetest import is_strong_lucas_prp

    rng = random.Random(1)
    odd = [*range(3, 100_000, 2), *(rng.getrandbits(rng.randint(20, 70)) | 1 for _ in range(3000))]
    accepted = [n for n in odd if arith._strong_lucas_probable_prime(n)]
    assert accepted == [n for n in odd if is_strong_lucas_prp(n)]
    assert [n for n in accepted if n < 100_000 and not sympy.isprime(n)] == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
    ]


@DIFFERENTIAL
@given(st.one_of(
    st.integers(PSI_13, 10 ** 40),
    _prime_near(PSI_13, 10 ** 40),
    st.tuples(_prime_near(10 ** 12, 10 ** 20), _prime_near(10 ** 12, 10 ** 20)).map(math.prod),
))
def test_is_prime_matches_sympy_above_psi_13(n):
    assert is_prime(n) == sympy.isprime(n)


# -- factorization -----------------------------------------------------------------


def test_factor_small_cases():
    assert factor(1) == {}
    assert factor(2) == {2: 1}
    assert factor(997 * 997) == {997: 2}
    assert factor(1009 ** 50) == {1009: 50}
    assert list(factor(2 ** 5 * 1013 ** 3 * 1019 ** 2 * 7)) == [2, 7, 1013, 1019]
    # rho would need about 10^10 steps for this square; the root check needs none
    big = 100000000000000000039  # the least prime above 10^20
    assert factor(1013 * big ** 2) == {1013: 1, big: 2}
    for n in (0, -5):
        with pytest.raises(ValueError):
            factor(n)


def test_perfect_powers_need_only_prime_exponents():
    q = 100000000000000000039  # the least prime above 10^20
    for e in (4, 6, 12):
        assert factor(q ** e) == {q: e}
    # q^12 has 798 bits: the check tries the primes 83, 79, ..., 3 on it, 22
    # roots where every exponent from 88 down to 12 took 77, and stops at
    # q^4, whose own split finds q^2 and then q
    n = q ** 12
    with mock.patch.object(arith, "_integer_root", wraps=arith._integer_root) as root:
        assert factor(n) == {q: 12}
    exponents = [call.args[1] for call in root.call_args_list if call.args[0] == n]
    assert exponents == [e for e in reversed(arith._SMALL_PRIMES) if 3 <= e <= 83] and len(exponents) == 22


@DIFFERENTIAL
@given(st.one_of(
    st.integers(1, 10 ** 6),
    st.integers(1, 10 ** 10).map(lambda k: k * k),
    st.tuples(_prime_near(2, 10 ** 7), st.integers(1, 6)).map(lambda t: t[0] ** t[1]),
    st.tuples(_prime_near(10 ** 5, 10 ** 7), _prime_near(10 ** 5, 10 ** 7)).map(math.prod),
))
def test_factor_matches_sympy(n):
    assert factor(n) == sympy.factorint(n)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_prime_near(10 ** 9, 10 ** 10), _prime_near(10 ** 9, 10 ** 11), st.integers(1, 1000))
def test_factor_matches_sympy_near_1e20(p, q, k):
    # the size of the discriminants in the certify_mq benchmark; sympy found p
    # and q and factors k, as sympy.factorint(k * p * q) would take seconds
    expected = collections.Counter(sympy.factorint(k))
    expected.update((p, q))
    assert factor(k * p * q) == dict(sorted(expected.items()))


def test_budget_refuses_two_large_prime_factors(monkeypatch):
    monkeypatch.setattr(arith, "RHO_BUDGET", 1000)
    with pytest.raises(FactorizationBudgetError, match="23-digit cofactor"):
        factor(10000000019 * 1000000000039)
    assert factor(1009 * 1013) == {1009: 1, 1013: 1}


def test_budget_refuses_a_1000_digit_product_within_its_stated_time():
    # a step on a longer number costs more units, so spending the budget takes
    # no longer at 1,000 digits than at 27 (README: about 0.7 s of CPU time at
    # any length); p and q are the least primes above 10^499 and 10^500
    p, q = 10 ** 499 + 153, 10 ** 500 + 961
    start = time.process_time()
    with pytest.raises(FactorizationBudgetError, match="1000-digit cofactor"):
        factor(p * q)
    assert time.process_time() - start < 1.0
    # a cofactor beyond MAX_BITS is refused before its primality test
    n = p * p * q
    with pytest.raises(FactorizationBudgetError, match=f"{n.bit_length()}-bit cofactor is longer than the 4096 bits"):
        factor(n)


# each stage alone: the first Pollard-Brent run skipped leaves the splitting
# to p - 1 or to ECM; no p - 1 run and no curves leave it to Pollard-Brent
STAGES = {
    "ecm": {"_BRENT_FIRST": 0, "_PM1_RUNS": []},
    "pm1": {"_BRENT_FIRST": 0, "_ECM_SCHEDULE": []},
    "pollard_brent": {"_PM1_RUNS": [], "_ECM_SCHEDULE": []},
    "all": {},
}


def _prime_of_digits(lo, hi):
    """A prime of lo to hi digits, with the digit count uniform."""
    return st.sampled_from(range(lo, hi + 1)).flatmap(lambda d: _prime_near(10 ** (d - 1), 10 ** d))


@pytest.mark.parametrize("stage", sorted(STAGES))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(_prime_of_digits(4, 10), st.integers(1, 3), _prime_of_digits(4, 10), st.integers(1, 1000))
def test_each_stage_factors_like_sympy(stage, p, e, q, k):
    n = p ** e * q * k
    with mock.patch.dict(vars(factor_kernel), STAGES[stage]), \
            mock.patch.object(factor_kernel, "_brent", wraps=factor_kernel._brent) as brent, \
            mock.patch.object(factor_kernel, "_pm1", wraps=factor_kernel._pm1) as pm1:
        assert factor(n) == sympy.factorint(n)
    if stage == "ecm":  # Pollard-Brent never took a step
        assert all(call.args[2] == 0 for call in brent.call_args_list)
    if stage == "pm1":  # p - 1 ran on p^e q, the one cofactor that is no perfect power
        assert pm1.called == (p != q)


def test_factor_matches_sympy_on_held_out_products():
    # p * q and k * p * q with p and q from 10^6 to 10^12, the class factor()
    # is sized for, drawn the same on every run and never used to tune it;
    # sympy factors k and finds p and q (its factorint takes about 0.5 s for
    # each p * q near 10^24); 3 * 11^2 * 838509688781 * 925464992297, which
    # took 1.78 s with one fixed B1 = 150, comes last
    rng = random.Random("factor: held-out products")
    cases = []
    for i in range(30):
        p, q = (sympy.nextprime(rng.randint(10 ** 6, 10 ** 12)) for _ in "pq")
        cases.append((rng.randint(2, 1000) if i % 2 else 1, p, q))
    cases.append((3 * 11 ** 2, 838509688781, 925464992297))
    for k, p, q in cases:
        expected = collections.Counter(sympy.factorint(k))
        expected.update((p, q))
        assert factor(k * p * q) == dict(sorted(expected.items()))


@pytest.mark.parametrize("p, q", [(3001807103, 52549330733), (1705600913, 136033980959)])
def test_ecm_splits_hard_benchmark_cofactors_within_twenty_curves(p, q):
    # the two certify_mq cofactors that took Pollard-Brent the most steps
    bits, giants, _ = factor_kernel._ECM_SCHEDULE[0]
    found = {factor_kernel._ecm_curve(p * q, sigma, bits, giants) for sigma in range(6, 26)}
    assert found & {p, q} and found <= {1, p, q, p * q}


def test_ecm_ladder_reaches_the_identity_at_the_brute_force_group_order():
    # Suyama's curve By^2 = x^3 + Ax^2 + x of sigma, set up here from its own
    # formulas: u = sigma^2 - 5, v = 4 sigma, A + 2 = (v - u)^3 (3u + v) / (4 u^3 v)
    # and x(P) = u^3 / v^3; B is taken so that P lies on the curve. Counting
    # #E(F_l) point by point gives a multiple of 12 (the curve's rational
    # torsion), and stage 1 with K = #E(F_l) must send P mod l to the identity:
    # a ladder on any other curve, or from any other point, does not
    q, cases = 1000003, 0
    for sigma in range(6, 16):
        u, v = sigma * sigma - 5, 4 * sigma
        for ell in filter(is_prime, range(50, 400)):
            if 4 * u * v % ell == 0:
                continue  # the set-up divides by zero mod l, and the kernel returns at once
            a = ((v - u) ** 3 * (3 * u + v) * pow(4 * u ** 3 * v, -1, ell) - 2) % ell
            x0 = u ** 3 * pow(v ** 3, -1, ell) % ell

            def chi(y):
                return jacobi(y % ell, ell)

            twist = chi(x0 ** 3 + a * x0 * x0 + x0)
            if twist == 0 or (a * a - 4) % ell == 0:
                continue  # P of order 2, or a singular curve
            order = 1 + sum(1 + twist * chi(x ** 3 + a * x * x + x) for x in range(ell))
            assert order % 12 == 0, (sigma, ell, order)
            assert factor_kernel._ecm_curve(ell * q, sigma, bin(order)[3:], 0) == ell, (sigma, ell)
            cases += 1
    assert cases == 625


class _CountingModulus(int):
    """A modulus that counts the reductions made modulo it.

    ``x % m`` calls ``m.__rmod__`` first, as the type of m is a subclass of
    the type of x, so every reduction the kernels make is counted.
    """

    reductions = 0

    def __rmod__(self, other):
        self.reductions += 1
        return int.__rmod__(self, other)


def test_ecm_curve_costs_its_charged_steps():
    # a step is one reduction modulo n: a curve that finds nothing makes every
    # step it is charged at each level of the schedule, and a Pollard-Brent
    # run that finds nothing makes every step it reports
    n = (10 ** 24 + 7) * (3 * 10 ** 24 + 7)
    for (bits, giants, steps), _ in itertools.groupby(factor_kernel._ECM_SCHEDULE):
        m = _CountingModulus(n)
        assert factor_kernel._ecm_curve(m, 6, bits, giants) == 1
        assert m.reductions == steps
    m = _CountingModulus(n)
    assert factor_kernel._brent(m, 1, 10_000) == (1, m.reductions)


def test_pm1_stage_2_costs_its_charge():
    # stage 1 is one built-in pow, charged 6 per 5 bits of E and 32 more; the
    # rest of the charge is stage 2's reductions: V_1, V_2, the 52 steps over
    # odd j < D/2, V_D, then the product and the next giant of each giant
    n = (10 ** 24 + 7) * (3 * 10 ** 24 + 7)
    for E, giants, steps in factor_kernel._PM1_RUNS:
        m = _CountingModulus(n)
        assert factor_kernel._pm1(m, E, giants) == 1
        assert m.reductions == 3 + 52 + 2 * giants
        assert steps == E.bit_length() * 6 // 5 + 32 + m.reductions


@pytest.mark.parametrize("p", [10000000391, 10000702343, 10000904423], ids=["stage-1", "mD+j", "mD-j"])
def test_pm1_finds_a_prime_whose_p_minus_1_is_smooth(p):
    # p - 1 is 2000-smooth, or a 2000-smooth part times one prime l in
    # (2000, 20000]: l = 12007 = 57 * 210 + 37, found by V_57D - V_37, and
    # l = 12097 = 58 * 210 - 83, found by V_58D - V_83; q - 1 = 2 * 131 * 521 * 73259
    (E, giants, _), = factor_kernel._PM1_RUNS
    q = 10000000019
    large = [f for f in sympy.factorint(p - 1) if f > 2000]
    assert large in ([], [12007], [12097]) and E % ((p - 1) // math.prod(large)) == 0
    assert factor_kernel._pm1(p * q, E, giants) == p
    # with no giant steps, stage 1 alone finds p when p - 1 divides E, and not
    # the primes whose l divides the order of 3 modulo them
    assert factor_kernel._pm1(p * q, E, 0) == (p if not large else 1)


def test_pm1_finding_every_prime_falls_through_to_ecm():
    # p - 1 and q - 1 both divide E, so stage 1 finds both primes at once
    # (gcd = n); ECM splits n instead
    p, q = 10000000391, 10000000537
    (E, _, _), = factor_kernel._PM1_RUNS
    assert E % (p - 1) == 0 and E % (q - 1) == 0
    pm1, results = factor_kernel._pm1, []

    def recorded(n, E, giants):
        results.append((n, pm1(n, E, giants)))
        return results[-1][1]

    with mock.patch.multiple(factor_kernel, _BRENT_FIRST=0, _pm1=recorded), \
            mock.patch.object(factor_kernel, "_ecm_curve", wraps=factor_kernel._ecm_curve) as ecm:
        assert factor(p * q) == {p: 1, q: 1}
    assert results == [(p * q, p * q)] and ecm.called


def test_ecm_step_count_at_todays_bounds():
    # (curves, bits of K, giants, steps) per level; a curve at B1 = 150 and
    # B2 = 3750 takes the set-up 3, the ladder 4 + 4 * 211 over K (212 bits),
    # the baby steps 4 + 2 * 52 (odd j < 105), G = 2 (105 Q) and 2G 8, the
    # giant steps 2 * 18, three per point of the batch inversion 3 * (24 + 18)
    # and the products 24 * 18
    assert (factor_kernel._ECM_D, factor_kernel._ECM_BABY) == (210, 24)
    assert factor_kernel._ecm_level(150, 3750)[1:] == (
        18, 3 + 4 + 4 * 211 + 4 + 2 * 52 + 8 + 2 * 18 + 3 * 42 + 24 * 18)
    levels = [(len(list(run)), len(bits) + 1, giants, steps)
              for (bits, giants, steps), run in itertools.groupby(factor_kernel._ECM_SCHEDULE)]
    assert levels == [(30, 212, 18, 1561), (20, 432, 58, 3601), (50, 857, 143, 7766)]
    assert [factor_kernel._ecm_level(b1, b2) for b1, b2 in ((150, 3750), (300, 12000), (600, 30000))] == [
        level for level, _ in itertools.groupby(factor_kernel._ECM_SCHEDULE)]
    K = 1
    for B1 in range(2, arith.TRIAL_LIMIT):  # K = lcm(1..B1), its exponents read off logarithms
        K = math.lcm(K, B1)
        assert factor_kernel._ecm_level(B1, 0)[0] == bin(K)[3:]
    # one p - 1 run at B1 = 2000 and B2 = 20000: E = lcm(1..2000) of 2878 bits,
    # charged 2878 * 6 // 5 + 32 for stage 1 and 3 + 52 + 2 * 96 for stage 2
    assert factor_kernel._PM1_RUNS == [factor_kernel._pm1_level(2000, 20000)]
    (E, giants, steps), = factor_kernel._PM1_RUNS
    assert E == math.lcm(*range(1, 2001)) and (E.bit_length(), giants, steps) == (2878, 96, 3732)
