"""The oracle of the package's exponent maps, and the maps checked against it.

``tests/oracle.py``'s FactoredRational is checked by ``value()`` against
``fractions.Fraction``; the quotients of ``brauer`` (sorted (prime, exponent)
pairs) are checked against it.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selgrowth.arith import factor
from selgrowth.brauer import exponent_sum, json_items, ord_of

from oracle import FactoredRational


def test_from_int_and_value():
    assert FactoredRational.from_int(1) == FactoredRational()
    assert FactoredRational.from_int(12).factors() == {2: 2, 3: 1}
    assert FactoredRational.from_int(12).value() == Fraction(12)


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        FactoredRational.from_int(0)
    with pytest.raises(ValueError):
        FactoredRational.from_int(-5)


def test_mul_pow_ord():
    a = FactoredRational.from_int(10)
    b = FactoredRational.from_int(4)
    q = a / b
    assert q.value() == Fraction(5, 2)
    assert q.ord(2) == -1 and q.ord(5) == 1 and q.ord(3) == 0
    assert (q ** 2).value() == Fraction(25, 4)
    assert q * q ** -1 == FactoredRational()


def test_no_zero_exponents_stored():
    q = FactoredRational.from_int(6) / FactoredRational.from_int(6)
    assert q.factors() == {}
    assert q == FactoredRational()


def test_json_round_trip():
    q = FactoredRational({2: -1, 13: 2})
    j = q.as_json()
    assert j == {"2": -1, "13": 2}
    assert FactoredRational({int(p): e for p, e in j.items()}) == q


@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
def test_mul_matches_fraction_arithmetic(a, b):
    fa, fb = FactoredRational.from_int(a), FactoredRational.from_int(b)
    assert (fa * fb).value() == Fraction(a) * Fraction(b)
    assert (fa / fb).value() == Fraction(a, b)


@given(st.lists(st.tuples(st.integers(1, 10 ** 4), st.integers(-3, 3)), max_size=6))
def test_product_matches_repeated_mul_and_pow(terms):
    factored = [(FactoredRational.from_int(a), k) for a, k in terms]
    expected = FactoredRational()
    for r, k in factored:
        expected = expected * r ** k
    got = FactoredRational.product(factored)
    assert got == expected and got.value() == prod((Fraction(a) ** k for a, k in terms), start=Fraction(1))


QUOTIENT_TERMS = st.lists(st.tuples(st.integers(1, 10 ** 4), st.integers(-3, 3)), max_size=6)


@given(QUOTIENT_TERMS)
def test_exponent_sum_matches_the_oracle_product(terms):
    q = exponent_sum((tuple(factor(a).items()), k) for a, k in terms)
    expected = FactoredRational.product((FactoredRational.from_int(a), k) for a, k in terms)
    assert FactoredRational(dict(q)) == expected
    assert list(q) == sorted(dict(q).items()) and all(e for _, e in q)  # sorted, no zero exponent
    assert all(ord_of(q, p) == expected.ord(p) for p in (2, 3, 5, 7, 10007))
    assert dict(json_items(q)) == expected.as_json() and list(json_items(q)) == list(expected.as_json().items())
