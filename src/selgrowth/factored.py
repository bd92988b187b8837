"""Exact positive rationals kept in factored form (prime -> exponent).

All quotient bookkeeping in this package is done on factored rationals so
that p-adic valuations are read off exactly, with no float in sight.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .arith import factor

if TYPE_CHECKING:
    from fractions import Fraction


class FactoredRational:
    """A positive rational stored as a map {prime: exponent}, no zero exponents."""

    __slots__ = ("_factors",)

    def __init__(self, factors=None):
        clean = {}
        if factors:
            for p, e in factors.items():
                p = int(p)
                e = int(e)
                if p < 2:
                    raise ValueError(f"not a prime key: {p}")
                if e != 0:
                    clean[p] = e
        self._factors = clean

    @classmethod
    def from_int(cls, n: int) -> "FactoredRational":
        return cls(factor(n))

    @classmethod
    def product(cls, terms) -> "FactoredRational":
        """prod r^k over the pairs (r, k) of ``terms``, by summing exponents."""
        exponents = {}
        for r, k in terms:
            for p, e in r._factors.items():
                exponents[p] = exponents.get(p, 0) + e * k
        out = cls.__new__(cls)
        out._factors = {p: e for p, e in exponents.items() if e}
        return out

    def ord(self, p: int) -> int:
        """Exponent of the prime p (0 if absent)."""
        return self._factors.get(int(p), 0)

    def factors(self) -> dict:
        return dict(self._factors)

    def value(self) -> Fraction:
        from fractions import Fraction  # imported here: it loads decimal, which no CLI call needs

        out = Fraction(1)
        for p, e in self._factors.items():
            out *= Fraction(p) ** e
        return out

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return FactoredRational.product(((self, 1), (other, 1)))

    def __truediv__(self, other: "FactoredRational") -> "FactoredRational":
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return FactoredRational.product(((self, 1), (other, -1)))

    def __pow__(self, k: int) -> "FactoredRational":
        return FactoredRational.product(((self, int(k)),))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return self._factors == other._factors

    def __hash__(self):
        return hash(frozenset(self._factors.items()))

    def __repr__(self):
        if not self._factors:
            return "FactoredRational(1)"
        body = " * ".join(f"{p}^{e}" for p, e in sorted(self._factors.items()))
        return f"FactoredRational({body})"

    def json_items(self) -> tuple:
        """The (str(prime), exponent) pairs of the JSON form, sorted by prime."""
        return tuple((str(p), self._factors[p]) for p in sorted(self._factors))

    def as_json(self) -> dict:
        """JSON form: string prime keys, integer exponents, sorted by prime."""
        return dict(self.json_items())
