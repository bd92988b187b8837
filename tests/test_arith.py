import math
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from selgrowth import arith
from selgrowth.arith import PSI_13, FactorizationBudgetError, factor, is_prime, jacobi

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
    # the size of the discriminants in the certify_mq benchmark
    n = k * p * q
    assert factor(n) == sympy.factorint(n)


def test_budget_refuses_two_large_prime_factors(monkeypatch):
    monkeypatch.setattr(arith, "RHO_BUDGET", 1000)
    with pytest.raises(FactorizationBudgetError, match="23-digit cofactor"):
        factor(10000000019 * 1000000000039)
    assert factor(1009 * 1013) == {1009: 1, 1013: 1}


# each stage alone: the first Pollard-Brent run skipped leaves the splitting
# to ECM; no curves leave it to Pollard-Brent
STAGES = {"ecm": {"_BRENT_FIRST": 0}, "pollard_brent": {"_ECM_CURVES": 0}, "all": {}}


def _prime_of_digits(lo, hi):
    """A prime of lo to hi digits, with the digit count uniform."""
    return st.sampled_from(range(lo, hi + 1)).flatmap(lambda d: _prime_near(10 ** (d - 1), 10 ** d))


@pytest.mark.parametrize("stage", sorted(STAGES))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(_prime_of_digits(4, 10), st.integers(1, 3), _prime_of_digits(4, 10), st.integers(1, 1000))
def test_each_stage_factors_like_sympy(stage, p, e, q, k):
    n = p ** e * q * k
    with mock.patch.dict(vars(arith), STAGES[stage]), mock.patch.object(arith, "_brent", wraps=arith._brent) as brent:
        assert factor(n) == sympy.factorint(n)
    if stage == "ecm":  # Pollard-Brent never took a step
        assert all(call.args[2] == 0 for call in brent.call_args_list)


@pytest.mark.parametrize("p, q", [(3001807103, 52549330733), (1705600913, 136033980959)])
def test_ecm_splits_hard_benchmark_cofactors_within_twenty_curves(p, q):
    # the two certify_mq cofactors that took Pollard-Brent the most steps
    found = {arith._ecm_curve(p * q, sigma) for sigma in range(6, 26)}
    assert found & {p, q} and found <= {1, p, q, p * q}


def test_ecm_curve_costs_its_charged_steps():
    # a curve that finds nothing runs every step: one per doubling or addition
    # and one per stage-2 product
    babies = sum(math.gcd(j, arith._ECM_D) == 1 for j in range(1, arith._ECM_D // 2, 2))
    giants = arith._ECM_B2 // arith._ECM_D + 1
    with mock.patch.object(arith, "_xadd", wraps=arith._xadd) as xadd, \
            mock.patch.object(arith, "_xdbl", wraps=arith._xdbl) as xdbl:
        assert arith._ecm_curve(1000000007 * 1000000009, 6) == 1
    assert xadd.call_count + xdbl.call_count + babies * giants == arith._ECM_STEPS


def test_ecm_step_count_at_todays_bounds():
    # ladders 423 + 15, baby steps 53, giant steps 19, products 18 * 24
    assert (arith._ECM_B1, arith._ECM_B2, arith._ECM_D) == (150, 3750, 210)
    assert arith._ECM_STEPS == 942
