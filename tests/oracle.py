"""Inputs and oracles the tests share, outside the package.

The groups and relations built here are test inputs: the tests check them
with the package's own code (``verify_relation``, ``norm_constant``, the
relation lattice). ``bench_module`` loads a file of the benchmark by path,
unchanged, so that the tests and the benchmark read one copy of its
selgrowth-free oracles. ``FactoredRational`` is the oracle of the package's
exponent maps, and ``root_number`` that of the parity of a C2 x C2
Tamagawa quotient.
"""

import functools
import importlib.util
import math
import pathlib
import sys
from fractions import Fraction

from selgrowth.arith import factor
from selgrowth.brauer import BrauerRelation
from selgrowth.curves import make_profile
from selgrowth.database import ingest
from selgrowth.groups import FiniteGroup

REPO = pathlib.Path(__file__).resolve().parents[1]
DATA = REPO / "data" / "curves.csv"


@functools.cache
def bench_module(name: str):
    """bench/<name>.py as a module, loaded by path, once.

    bench/ goes on the end of sys.path, so the benchmark's imports of its
    sibling files (``import inputs``, ``from checkers import ...``) resolve.
    """
    if str(REPO / "bench") not in sys.path:
        sys.path.append(str(REPO / "bench"))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", REPO / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def data_curves() -> tuple:
    """(label, bad primes) of each curve of data/curves.csv, in file order."""
    return tuple(
        (rec.label, tuple(rd.v for rd in make_profile(rec.model(), rank=rec.rank).bad_places))
        for rec in ingest(DATA).records
    )


def family_specs(max_order: int) -> list:
    """Every family spec of group order at most max_order, in normalized form."""
    odd_primes = [p for p in range(3, max_order) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    specs = ["c2xc2"]
    specs += [f"d:{p}" for p in odd_primes if 2 * p <= max_order]
    specs += [f"cpxcp:{p}" for p in odd_primes if p * p <= max_order]
    specs += [
        f"sd:{p}:{q}"
        for p in odd_primes
        for q in odd_primes
        if (p - 1) % q == 0 and p * q <= max_order
    ]
    return specs


# -- groups and relations outside the families ----------------------------------


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G x H with element (a, b) encoded as a |H| + b."""
    m = H.order
    table = [[g * m + h for g in G.table[x // m] for h in H.table[x % m]] for x in range(G.order * m)]
    return FiniteGroup(table)


def relabeled(G: FiniteGroup, perm) -> FiniteGroup:
    """The isomorphic group with element x renamed perm[x]."""
    inv = [0] * G.order
    for i, v in enumerate(perm):
        inv[v] = i
    table = [[perm[G.table[inv[a]][inv[b]]] for b in range(G.order)] for a in range(G.order)]
    return FiniteGroup(table)


def induce(theta: BrauerRelation, big: FiniteGroup, embedding) -> BrauerRelation:
    """theta moved along an injective homomorphism into ``big``: H goes to its image."""
    coeffs = {}
    for cid, n in theta.coeffs:
        H = theta.group.subgroup_classes[cid].representative
        image = big.class_of_subgroup([embedding[h] for h in H]).class_id
        coeffs[image] = coeffs.get(image, 0) + n
    return BrauerRelation.from_dict(big, coeffs)


def inflate(theta: BrauerRelation, gamma: FiniteGroup, projection) -> BrauerRelation:
    """theta moved along a surjection gamma -> theta.group: H goes to its full preimage."""
    coeffs = {}
    for cid, n in theta.coeffs:
        H = theta.group.subgroup_classes[cid].representative
        preimage = gamma.class_of_subgroup([x for x in range(gamma.order) if projection[x] in H]).class_id
        coeffs[preimage] = coeffs.get(preimage, 0) + n
    return BrauerRelation.from_dict(gamma, coeffs)


# -- lattices and fields --------------------------------------------------------


def lattice_coordinates(rows, target):
    """Integer x with sum_i x_i rows[i] = target, or None.

    The rows must be in echelon form, as Hermite rows are, or ValueError: each
    coordinate is read at its row's pivot, where the later rows are zero.
    """
    if any(len(r) != len(target) for r in rows):
        raise ValueError("rows and target differ in length")
    pivots = [next((k for k, a in enumerate(r) if a), None) for r in rows]
    if None in pivots or any(a >= b for a, b in zip(pivots, pivots[1:])):
        raise ValueError("rows are not in echelon form")
    rest = list(target)
    coords = []
    for row, pc in zip(rows, pivots):
        coords.append(rest[pc] // row[pc])
        rest = [t - coords[-1] * b for t, b in zip(rest, row)]
    return None if any(rest) else coords


def biquadratic_polynomial(d1: int, d2: int) -> tuple:
    """Minimal polynomial of sqrt(d1) + sqrt(d2), degree-descending coefficients."""
    return (1, 0, -2 * (d1 + d2), 0, (d1 - d2) ** 2)


# -- exact rationals --------------------------------------------------------------


class FactoredRational:
    """A positive rational stored as a map {prime: exponent}, no zero exponents.

    The oracle of the package's quotients, which are the sorted (prime,
    exponent) pairs of such a map: ``FactoredRational(dict(q))`` is q as an
    object with operators, and ``value()`` is the rational number itself.
    """

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
        return cls(exponents)

    def ord(self, p: int) -> int:
        """Exponent of the prime p (0 if absent)."""
        return self._factors.get(int(p), 0)

    def factors(self) -> dict:
        return dict(self._factors)

    def value(self) -> Fraction:
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

    def as_json(self) -> dict:
        """JSON form: string prime keys, integer exponents, sorted by prime."""
        return {str(p): self._factors[p] for p in sorted(self._factors)}


# -- root numbers of quadratic twists -------------------------------------------------
#
# T. & V. Dokchitser ("Root numbers and parity of ranks of elliptic curves",
# J. reine angew. Math. 658, 2011) show that ord_2 of the Tamagawa quotient of
# theta = 1 - C2a - C2b - C2c + 2G over K = Q(sqrt d1, sqrt d2) has the parity
# of the 2-Selmer rank of E/K, the sum of those of the twists E^d for d in
# {1, d1, d2, d1 d2}; each of those has the parity of w(E^d) = -1 (2-parity
# over Q). The local root numbers of a twist of a semistable curve by the
# character chi of Q(sqrt d) are Rohrlich's ("Galois theory, elliptic curves,
# and root numbers", Compositio Math. 100, 1996). No group, local class or
# Tamagawa rule of the package is read here.


def _odd_primes_of(d: int) -> list:
    """The odd primes dividing the squarefree integer d, by trial division."""
    n, out, q = abs(d), [], 3
    while n % 2 == 0:
        n //= 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            n //= q
        q += 2
    return out + ([n] if n > 1 else [])


def ramified(d: int, v: int) -> bool:
    """Whether the prime v ramifies in Q(sqrt d), d squarefree."""
    return d % 4 in (2, 3) if v == 2 else d % v == 0


def kronecker(d: int, v: int) -> int:
    """chi(v) = (d/v) at a prime v unramified in Q(sqrt d): +1 split, -1 inert."""
    if v == 2:
        return 1 if d % 8 == 1 else -1
    return 1 if pow(d % v, (v - 1) // 2, v) == 1 else -1  # Euler's criterion


def chi_of_minus_one(d: int, v: int) -> int:
    """chi_v(-1), the Hilbert symbol (d, -1)_v, at a prime v ramified in Q(sqrt d)."""
    if v == 2:
        odd = d // 2 if d % 2 == 0 else d  # d is squarefree
        return -1 if odd % 4 == 3 else 1
    return 1 if v % 4 == 1 else -1  # (-1/v)


def local_root_number(d: int, v: int, split: bool | None) -> int:
    """w_v(E^d) at a finite prime v; split is None where E has good reduction,
    else whether its multiplicative reduction at v is split."""
    if ramified(d, v):
        return chi_of_minus_one(d, v)
    if split is None:
        return 1
    return -(1 if split else -1) * kronecker(d, v)


def root_number(d: int, bad: dict) -> int:
    """w(E^d) = w_inf prod_v w_v for a semistable E with ``bad`` {v: split}:
    w_inf = -1, and only bad primes and primes ramified in Q(sqrt d) count."""
    primes = set(bad) | ({2} if ramified(d, 2) else set()) | set(_odd_primes_of(d))
    w = -1
    for v in primes:
        w *= local_root_number(d, v, bad.get(v))
    return w


def twists_with_root_number_minus_one(d1: int, d2: int, bad: dict) -> int:
    """#{d in (1, d1, d2, d3) : w(E^d) = -1}, d3 = d1 d2 over the square of their gcd."""
    g = math.gcd(d1, d2)
    d3 = (d1 // g) * (d2 // g)
    return sum(root_number(d, bad) == -1 for d in (1, d1, d2, d3))
