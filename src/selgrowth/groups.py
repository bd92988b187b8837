"""Small finite groups given by explicit Cayley tables.

Elements are the integers 0..order-1, each held in one byte: the rows of
the multiplication and conjugation tables and the element sets of subgroups
are ``bytes``, so composing a row with a set of elements is one
``bytes.translate``. Everything downstream (subgroup lattices and their
conjugacy classes, double cosets, permutation-character values) is computed
by direct enumeration over these tables, which is exact and fast at the
scale this package supports (group order at most 200).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple

from .arith import is_prime
from .records import Record

MAX_ORDER = 200  # below 256, so that every element fits in one byte
# Family groups kept by _family_group, and spec strings by Family.parse, least
# recently used dropped first. A group near the cap takes about 0.27 MB with its
# tables, lattice and local classes (d:97 after `tables`, by tracemalloc).
GROUP_CACHE_SIZE = 4


class GroupError(ValueError):
    pass


def _suffix(i: int) -> str:
    """The i-th of a, b, ..., z, aa, ab, ..., counted from 0."""
    return (_suffix(i // 26 - 1) if i >= 26 else "") + "abcdefghijklmnopqrstuvwxyz"[i % 26]


class Family(Record):
    """One of the paper's four theorem families, with its parameters.

    ``name`` is ``c2xc2`` (case (a), p = 2), ``d`` (D_2p, case (b)),
    ``cpxcp`` (Cp x Cp, case (c)) or ``sd`` (Cp : Cq, case (c)); ``p`` is the
    prime of the theorem and ``q``, given for ``sd`` alone, the order of the complement.
    Each family is C_p : C_k with t^-1 r t = r^u: ``k`` is 2 for ``d``, q for
    ``sd`` and p for ``c2xc2`` and ``cpxcp``, and ``u`` the least unit of order
    k mod p, or 1 when k = p and the action is trivial.
    Building one checks the parameters, so a Family always names a group of
    order at most MAX_ORDER. ``str`` gives the normalized spec. Families are
    immutable and compare and hash by (name, p, q).
    """

    __slots__ = ("name", "p", "q", "k", "u")

    def __init__(self, name: str, p: int, q: int | None = None):
        k = {"d": 2, "sd": q}.get(name, p)
        self._set(name, p, q, k)
        if name not in ("c2xc2", "d", "cpxcp", "sd"):
            raise GroupError(f"unknown group family {name!r}")
        if (q is None) == (name == "sd"):
            raise GroupError(f"the {name} family takes {'p and q' if name == 'sd' else 'p alone'}, got q={q}")
        # a parameter below 2 is not prime, whatever the order; otherwise the cap
        # comes first, as is_prime on a huge parameter the cap refuses takes seconds
        low = min(p, k) < 2
        if not low and self.order > MAX_ORDER:
            raise GroupError(f"order {self.order} exceeds the cap {MAX_ORDER}")
        prime = (lambda n: False) if low else is_prime
        if name == "d":
            if not prime(p) or p == 2:
                raise GroupError(f"dihedral parameter must be an odd prime, got {p}")
        elif name == "sd":
            if not prime(p) or not prime(q) or q % 2 == 0:
                raise GroupError(f"need primes p and odd q, got p={p} q={q}")
            if (p - 1) % q != 0:
                raise GroupError(f"no faithful action: {q} does not divide {p}-1")
        else:
            if not prime(p):
                raise GroupError(f"{p} is not prime")
            if (name == "c2xc2") != (p == 2):
                raise GroupError(f"the elementary abelian family of p = {p} is not {name}")
        # k is prime, so u^k = 1 with u != 1 gives order k; none exists when k = p
        object.__setattr__(self, "u", next((u for u in range(2, p) if pow(u, k, p) == 1), 1))

    @property
    def order(self) -> int:
        return self.p * self.k

    @property
    def case(self) -> str:
        """The theorem case: a (c2xc2), b (d) or c (cpxcp and sd)."""
        return {"c2xc2": "a", "d": "b"}.get(self.name, "c")

    def __str__(self):
        if self.name == "c2xc2":
            return "c2xc2"
        if self.name == "sd":
            return f"sd:{self.p}:{self.q}"
        return f"{self.name}:{self.p}"

    def _values(self) -> tuple:
        return self.name, self.p, self.q  # hashed by each _family_group call

    @staticmethod
    @lru_cache(maxsize=GROUP_CACHE_SIZE)
    def parse(spec: str) -> "Family":
        """The family of a CLI group spec: c2xc2, d:<p>, cpxcp:<p> or sd:<p>:<q>.

        Case and surrounding space are ignored, and cpxcp:2 is c2xc2. The
        latest specs are kept with their families (never with groups), so a
        repeated spec costs a lookup here and one in ``_family_group``.
        """
        spec = spec.strip().lower()
        name, *params = spec.split(":")
        if {"c2xc2": 0, "d": 1, "cpxcp": 1, "sd": 2}.get(name) != len(params):
            raise GroupError(
                f"unknown group spec {spec!r}; expected c2xc2, d:<p>, cpxcp:<p> or sd:<p>:<q>"
            )
        try:
            ints = [int(x) for x in params]
            if name == "c2xc2" or (name == "cpxcp" and ints[0] == 2):
                return Family("c2xc2", 2)
            return Family(name, *ints)
        except ValueError as exc:
            raise GroupError(f"bad group spec {spec!r}: {exc}") from None


class Subgroup(Record):
    """A subgroup stored as the bytes of its sorted element indices, and as a set.

    Subgroups are immutable and compare and hash by their elements.
    """

    __slots__ = ("elements", "element_set")

    def __init__(self, elements):
        elements = bytes(sorted(elements))
        self._set(elements, frozenset(elements))

    def _values(self) -> tuple:
        return (self.elements,)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self.element_set

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"Subgroup{tuple(self.elements)}"


class SubgroupClass(NamedTuple):
    """A conjugacy class of subgroups, keyed by its canonical representative.

    The representative is the conjugate whose sorted element bytes are
    lexicographically smallest, so class data is reproducible byte for byte.
    """

    representative: Subgroup
    class_size: int
    class_id: int

    @property
    def order(self) -> int:
        return len(self.representative)

    def __repr__(self):
        return f"SubgroupClass(id={self.class_id}, rep={tuple(self.representative.elements)}, size={self.class_size})"


class FiniteGroup:
    """Finite group on 0..order-1 with an explicit multiplication table.

    Instances are immutable after construction; derived structure (the
    conjugation table, the subgroup lattice and its conjugacy classes) is
    computed on first use and cached. The identity is read off the table: the
    element whose row and column are both 0..order-1. ``family`` is the theorem
    family of a group built by a family constructor, and None for any other
    group. Passing ``generators`` checks the group axioms by Light's test (validate).
    """

    def __init__(self, table, family=None, generators=None):
        table = tuple(table)
        n = self.order = len(table)
        if n == 0:
            raise GroupError("empty multiplication table")
        if n > MAX_ORDER:
            raise GroupError(f"group order {n} exceeds the cap {MAX_ORDER}")
        # whole-table checks, with no Python call per entry; rows that are not
        # all bytes have each entry's type (bool refused) and range checked first
        if not {bytes}.issuperset(map(type, table)):
            table = tuple(map(tuple, table))
            if not {int}.issuperset(map(type, chain.from_iterable(table))):
                raise GroupError("multiplication table entries must be int")
            if not frozenset(range(n)).issuperset(chain.from_iterable(table)):
                raise GroupError("multiplication table is not square over 0..n-1")
            table = tuple(map(bytes, table))
        if set(map(len, table)) != {n} or b"".join(table).translate(None, bytes(range(n))):
            raise GroupError("multiplication table is not square over 0..n-1")
        self.table = table
        # unique when it exists: two two-sided identities e, e' give e = e e' = e'
        elements = bytes(range(n))
        self.identity = next((e for e in range(n) if table[e] == elements
                              and bytes([row[e] for row in table]) == elements), None)
        if self.identity is None:
            raise GroupError("no element is a two-sided identity")
        self.family = family
        self._inv = self._inverse_table()
        # other layers' results kept with the group: each layer owns its key
        self.memo = {}
        if generators is not None:
            self.validate(generators)

    def _inverse_table(self):
        e, table = self.identity, self.table
        inv = []
        for a, row in enumerate(table):
            try:  # the first b with ab = e that is also a left inverse
                b = row.index(e)
                while table[b][a] != e:
                    b = row.index(e, b + 1)
            except ValueError:
                raise GroupError(f"element {a} has no two-sided inverse") from None
            inv.append(b)
        return tuple(inv)

    def validate(self, generators=None):
        """Group-axiom check: exhaustive O(n^3), or Light's test when a
        generating set is supplied (associativity on generator triples
        propagates to all triples). Identity and inverses are checked when
        the group is built."""
        table, n = self.table, self.order
        if generators is not None and len(self._join(bytes([self.identity]), (), *generators)) != n:
            raise GroupError("claimed generators do not generate the group")
        # (ab)c = a(bc) for every b and c at once: the rows ab, in the order of
        # b, against the whole table read through row a
        flat = b"".join(table)
        for a in range(n) if generators is None else generators:
            left, right = b"".join(map(table.__getitem__, table[a])), flat.translate(self._padded[a])
            if left != right:
                b, c = divmod(next(i for i, x in enumerate(left) if x != right[i]), n)
                raise GroupError(f"associativity fails at ({a},{b},{c})")
        return self

    @cached_property
    def _padded(self) -> tuple:
        """Each row of the table padded to 256 bytes: H.translate(_padded[x]) is xH."""
        pad = bytes(256 - self.order)
        return tuple(row + pad for row in self.table)

    @cached_property
    def _cyclic_subgroups(self) -> dict:
        """Least generator g -> powers (e, g, g^2, ...) of each cyclic subgroup,
        walked once: the generators g^k, gcd(k, ord g) = 1, are then skipped."""
        e, table = self.identity, self.table
        out = {}
        generated = set()
        for g in range(self.order):
            if g in generated:
                continue
            powers = [e]
            x = g
            while x != e:
                powers.append(x)
                x = table[x][g]
            m = len(powers)
            generated.update(x for k, x in enumerate(powers) if gcd(k, m) == 1)
            out[g] = powers
        return out

    @cached_property
    def element_orders(self) -> tuple:
        """The order of each element: g^k has order m / gcd(k, m) in a cyclic group of order m."""
        orders = [0] * self.order
        for powers in self._cyclic_subgroups.values():
            m = len(powers)
            for k, x in enumerate(powers):
                orders[x] = m // gcd(k, m)
        return tuple(orders)

    @cached_property
    def conj(self) -> tuple:
        """Conjugation table: conj[x][g] = x^-1 g x, one row per element x,
        padded to 256 bytes, so that H.translate(conj[x]) is x^-1 H x."""
        pad, rows, inv = bytes(256 - self.order), self._padded, bytes(self._inv)
        # for each g: x^-1 g^-1 by row x^-1, its inverse g x, then x^-1 g x by row x^-1 again
        return tuple(inv.translate(rows[i]).translate(inv + pad).translate(rows[i]) + pad for i in inv)

    @cached_property
    def _generators(self) -> tuple:
        """A small generating set: each element not yet generated, in index order."""
        gens = ()
        span = bytes([self.identity])
        for g in range(self.order):
            if g not in span:
                span = self._join(span, gens, g)
                gens += (g,)
        return gens

    # -- subgroups -----------------------------------------------------------

    def _join(self, elements: bytes, gens: tuple, *new) -> bytes:
        """Sorted elements of <H, new>, where H = ``elements`` is generated by ``gens``.

        Dimino's coset step: the join is a union of left cosets rH, grown
        until it is closed under left multiplication by gens and new. With
        H = {e} it is the closure of e under left multiplication by new.
        """
        table, padded = self.table, self._padded
        gens = gens + new
        seen = set(elements)
        reps = [self.identity]
        for r in reps:  # grows while it is read
            for s in gens:
                y = table[s][r]
                if y not in seen:
                    seen.update(elements.translate(padded[y]))
                    reps.append(y)
        return bytes(sorted(seen))

    def _conjugates(self, elements: bytes) -> set:
        """The conjugacy orbit of a subgroup, as sorted element bytes."""
        rows = [self.conj[x] for x in self._generators]
        orbit = {elements}
        stack = [elements]
        while stack:
            s = stack.pop()
            for row in rows:
                t = bytes(sorted(s.translate(row)))
                if t not in orbit:
                    orbit.add(t)
                    stack.append(t)
        return orbit

    @cached_property
    def _subgroup_orbits(self) -> list:
        """Conjugacy orbits of all subgroups, as sets of sorted element bytes,
        sorted by (order, least member).

        Cyclic extension up to conjugacy: every subgroup is generated by the
        cyclic subgroups inside it, so joining one member of each orbit found
        so far with each cyclic subgroup reaches a conjugate of every subgroup.
        """
        one, n = bytes([self.identity]), self.order
        whole = bytes(range(n))
        divisors = [d for d in range(1, n) if n % d == 0]  # orders of proper subgroups
        known = {one}
        orbits = [{one}]
        work = [(one, ())]  # (a member of a new orbit, its generators)
        while work:
            elements, gens = work.pop()
            for g, powers in self._cyclic_subgroups.items():
                if g in elements:
                    continue
                # H = elements meets <g> in <g^k>, k the least power in H, so
                # |<H, g>| is at least |H<g>| = |H| k, a multiple of |H| and m,
                # and divides n; when no proper divisor qualifies, <H, g> = G
                m = len(powers)
                k = next(k for k in range(1, m + 1) if powers[k % m] in elements)
                least, step = len(elements) * k, lcm(len(elements), m)
                if all(d < least or d % step for d in divisors):
                    joined = whole
                else:
                    joined = self._join(elements, gens, g)
                if joined in known:
                    continue
                orbit = self._conjugates(joined)
                known |= orbit
                orbits.append(orbit)
                work.append((joined, gens + (g,)))
        return sorted(orbits, key=lambda orbit: min((len(s), s) for s in orbit))

    @cached_property
    def all_subgroups(self):
        """Every subgroup, sorted by (order, elements)."""
        subs = [s for orbit in self._subgroup_orbits for s in orbit]
        subs.sort(key=lambda s: (len(s), s))
        return [Subgroup(s) for s in subs]

    @cached_property
    def subgroup_classes(self):
        """Conjugacy classes of subgroups, sorted by (order, representative)."""
        return [
            SubgroupClass(representative=Subgroup(min(orbit)), class_size=len(orbit), class_id=i)
            for i, orbit in enumerate(self._subgroup_orbits)
        ]

    @cached_property
    def _class_of(self) -> dict:
        """Sorted element bytes of every subgroup -> its SubgroupClass."""
        return {
            s: cls
            for cls, orbit in zip(self.subgroup_classes, self._subgroup_orbits)
            for s in orbit
        }

    def class_of_subgroup(self, H) -> SubgroupClass:
        """The conjugacy class containing H (H given as Subgroup or iterable).

        ``_class_of`` holds every subgroup, so the lookup is the subgroup check;
        an element outside 0..255 fails before it, as no byte holds it.
        """
        try:
            if not isinstance(H, Subgroup):
                H = Subgroup(H)
            return self._class_of[H.elements]
        except (KeyError, ValueError):
            raise GroupError(f"not a subgroup of this group: {H}") from None

    def is_cyclic_subgroup(self, H: Subgroup) -> bool:
        return any(self.element_orders[g] == len(H) for g in H)

    @cached_property
    def class_names(self):
        """Stable display names for subgroup classes: 1, C2, C2a.., U4, G."""
        bases = []
        for cls in self.subgroup_classes:
            k = cls.order
            kind = "C" if self.is_cyclic_subgroup(cls.representative) else "U"
            bases.append("1" if k == 1 else "G" if k == self.order else f"{kind}{k}")
        counts, seen = Counter(bases), Counter()
        names = []
        for b in bases:
            names.append(b if counts[b] == 1 else b + _suffix(seen[b]))
            seen[b] += 1
        return names

    def class_by_name(self, name: str) -> SubgroupClass:
        try:
            idx = self.class_names.index(name)
        except ValueError:
            raise GroupError(
                f"unknown subgroup class {name!r}; choices: {', '.join(self.class_names)}"
            ) from None
        return self.subgroup_classes[idx]

    # -- local classes --------------------------------------------------------

    @cached_property
    def local_classes(self) -> tuple:
        """Every (D, I) pair with I normal in D and D/I cyclic, as LocalClass.

        D runs over the subgroup class representatives and I over every
        subgroup of D, both in lattice order; up to simultaneous conjugacy
        this is every pair. Made once per group, this is the only source of
        local classes: every other path selects from it.
        """
        pairs = []
        for dcls in self.subgroup_classes:
            D = dcls.representative
            for I in self.all_subgroups:
                if len(I) > len(D):
                    break
                # I normal in D puts D inside N(I), of order |G| / (class size of I)
                if (self.order // self._class_of[I.elements].class_size) % len(D):
                    continue
                if not I.element_set <= D.element_set:
                    continue
                try:
                    pairs.append(LocalClass(self, D, I))
                except GroupError:
                    continue
        return tuple(pairs)

    @cached_property
    def _local_class_index(self) -> dict:
        """Class names of (D, I) -> the first enumerated local class with them."""
        # reversed, so that of two local classes with equal names the first is kept
        return {lc.names(): lc for lc in reversed(self.local_classes)}

    def local_class(self, D: SubgroupClass, I: SubgroupClass) -> LocalClass:
        """The enumerated local class whose decomposition group lies in the
        class D and whose inertia group lies in the class I."""
        key = (self.class_names[D.class_id], self.class_names[I.class_id])
        try:
            return self._local_class_index[key]
        except KeyError:
            raise GroupError(
                f"(D, I) = ({', '.join(key)}) is not a local class: "
                "I must be normal in D, up to conjugacy, with D/I cyclic"
            ) from None

    def __repr__(self):
        return f"FiniteGroup({self.family or f'order {self.order}'})"


# -- module-level operations -------------------------------------------------


def fixed_points(G: FiniteGroup, H: Subgroup, g: int) -> int:
    """Number of cosets xH fixed by g, i.e. #{x : x^-1 g x in H} / |H|."""
    hits = G.order - len(bytes([row[g] for row in G.conj]).translate(None, H.elements))
    if hits % len(H):
        raise GroupError(f"{hits} conjugates of {g} land in H, not a multiple of |H| = {len(H)}")
    return hits // len(H)


class LocalClass(Record):
    """A nested pair: inertia inside decomposition, up to simultaneous conjugacy.

    Building one is the single place where a (D, I) pair is checked: I must
    lie in D and be normal there, with D/I cyclic. The package builds them
    only in ``FiniteGroup.local_classes``, once per group; code that receives
    a LocalClass relies on the check and does not repeat it. Local classes
    are immutable and compare and hash by (group, decomposition, inertia);
    the hash is computed once, so a memo keyed by a local class (as
    G.memo["places"] is) hashes it in constant time.
    """

    __slots__ = ("group", "decomposition", "inertia", "_hash")

    def __init__(self, group: FiniteGroup, decomposition: Subgroup, inertia: Subgroup):
        self._set(group, decomposition, inertia)
        self.__post_init__()
        object.__setattr__(self, "_hash", hash(self._values()))

    def _values(self) -> tuple:
        return self.group, self.decomposition, self.inertia

    def __hash__(self):
        return self._hash

    def __post_init__(self):
        # the (D, I) check; looked up on the class at each call, so
        # bench/tracing.py can time it by wrapping this method
        G, D, I = self.group, self.decomposition, self.inertia
        iset = I.element_set
        if not iset <= D.element_set:
            raise GroupError("inertia subgroup is not contained in the decomposition group")
        table = G.table
        cosets, covered = [], set()
        for d in D:  # ascending, so d is the least element of each new coset dI
            if d not in covered:
                cosets.append(d)
                covered.update(I.elements.translate(G._padded[d]))
        # I is normalized by itself, so one element per coset decides normality
        for d in cosets:
            if not iset.issuperset(I.elements.translate(G.conj[d])):
                raise GroupError("inertia subgroup is not normal in the decomposition group")
        q = len(D) // len(I)
        orders = G.element_orders
        for d in cosets:
            if orders[d] % q:
                continue  # the order of dI in D/I divides that of d
            k, x = 1, d
            while x not in iset:
                x = table[x][d]
                k += 1
            if k == q:
                return
        raise GroupError("quotient D/I is not cyclic")

    @property
    def e(self) -> int:
        return len(self.inertia)

    @property
    def f(self) -> int:
        return len(self.decomposition) // len(self.inertia)

    def names(self) -> tuple:
        g = self.group
        return (
            g.class_names[g.class_of_subgroup(self.decomposition).class_id],
            g.class_names[g.class_of_subgroup(self.inertia).class_id],
        )


class DoubleCoset(NamedTuple):
    representative: int
    size: int
    degree: int  # |D| / |D meet x^-1 H x|, the local degree of this place
    e_index: int | None = None
    f_index: int | None = None


def double_cosets(G: FiniteGroup, H: Subgroup, D):
    """Partition of G into double cosets HxD, with local degree bookkeeping.

    D is a decomposition subgroup, or a LocalClass, whose inertia subgroup
    was checked when it was built; then each record also carries
    e = |I|/|I meet x^-1Hx| and f = degree/e.
    """
    I = None
    if isinstance(D, LocalClass):
        if D.group is not G and D.group.table != G.table:
            raise GroupError("local class and subgroup live in different groups")
        D, I = D.decomposition, D.inertia
    conj, inv, table = G.conj, G._inv, G.table
    hset = H.element_set
    h_rows = [table[h] for h in H.elements]
    d_elems = D.elements
    i_elems = I.elements if I is not None else None
    covered = set()
    records = []
    for x in range(G.order):  # ascending, so x is the least element of each new HxD
        if x in covered:
            continue
        double = {table[h_row[x]][d] for h_row in h_rows for d in d_elems}
        covered |= double
        row = conj[inv[x]]  # d lies in x^-1 H x iff x d x^-1 = row[d] lies in H
        degree = len(d_elems) // len(hset.intersection([row[d] for d in d_elems]))
        if i_elems is None:
            records.append(DoubleCoset(x, len(double), degree))
            continue
        e = len(i_elems) // len(hset.intersection([row[d] for d in i_elems]))
        if degree % e:
            raise GroupError(f"ramification index {e} does not divide the local degree {degree}")
        records.append(DoubleCoset(x, len(double), degree, e, degree // e))
    total_degree = sum(r.degree for r in records)
    if total_degree != G.order // len(H):
        raise GroupError(f"local degrees sum to {total_degree}, not [G:H] = {G.order // len(H)}")
    return records


def place_counts(G: FiniteGroup, cid: int, lc: LocalClass) -> tuple:
    """``(((e, f), count), ...)`` over the double cosets H\\G/D, sorted by (e, f),
    for H the subgroup class ``cid`` and (D, I) = ``lc``.

    Counted over the conjugates K of H, not listed: HxD has |H||D| / |D meet K|
    elements, K = x^-1 H x, and x -> K is |N(H)|-to-1, so each K adds
    |D meet K| |N(H)| / (|H||D|) places with e = |I| / |I meet K| and
    f = |D| / (|D meet K| e). The same (e, f) as ``double_cosets(G, H, lc)``.
    """
    orbit = G._subgroup_orbits[cid]
    D, I = lc.decomposition.elements, lc.inertia.elements
    d, i = len(D), len(I)
    weights = {}  # (e, f) -> sum of |D meet K|
    for K in orbit:  # |D meet K| and |I meet K|: D and I less the elements that K deletes
        meet = d - len(D.translate(None, K))
        e, degree = i // (i - len(I.translate(None, K))), d // meet
        if degree % e:
            raise GroupError(f"ramification index {e} does not divide the local degree {degree}")
        ef = e, degree // e
        weights[ef] = weights.get(ef, 0) + meet
    # each weight times |N(H)| / (|H||D|), where |N(H)| = |G| / (number of conjugates)
    norm_h, scale = G.order // len(orbit), G.subgroup_classes[cid].order * d
    counts = []
    for ef, weight in sorted(weights.items()):
        count, rest = divmod(weight * norm_h, scale)
        if rest:
            raise GroupError(f"{weight * norm_h}/{scale} places with (e, f) = {ef}, not an integer")
        counts.append((ef, count))
    return tuple(counts)


# -- constructors ------------------------------------------------------------


def _semidirect_table(p: int, k: int, u: int) -> list:
    """The table of C_p : C_k with t^-1 r t = r^u, where t^b r^a is at b p + a.

    t^b r^a t^d r^c = t^(b+d) r^(a u^d + c), so block d of row t^b r^a is the
    run t^(b+d) r^c, c = 0..p-1, turned by a u^d: its rows are slices of k
    turned runs, with no per-entry product.
    """
    runs = [bytes(range(j * p, j * p + p)) * 2 for j in range(k)] * 2  # runs[j][s:s + p] is t^j r^(s+c)
    turns = [[a * pow(u, d, p) % p for d in range(k)] for a in range(p)]
    return [b"".join([run[s:s + p] for run, s in zip(runs[b:b + k], turns[a])])
            for b in range(k) for a in range(p)]


def make_cyclic(n: int) -> FiniteGroup:
    """C_n, as C_n : C_1: the element a is r^a."""
    if n < 1 or n > MAX_ORDER:
        raise GroupError(f"cyclic order out of range: {n}")
    return FiniteGroup(_semidirect_table(n, 1, 1), generators=[1] if n > 1 else [])


def make_elem_abelian(p: int) -> FiniteGroup:
    """C_p x C_p with elements encoded base p."""
    return _family_group(Family("c2xc2" if p == 2 else "cpxcp", p))


def make_dihedral(p: int) -> FiniteGroup:
    """Dihedral group of order 2p, p an odd prime. Rotations 0..p-1, reflections p..2p-1."""
    return _family_group(Family("d", p))


def make_semidirect(p: int, q: int) -> FiniteGroup:
    """C_p : C_q with C_q acting faithfully, via the least unit of order q mod p."""
    return _family_group(Family("sd", p, q))


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def _family_group(family: Family) -> FiniteGroup:
    """The group of a theorem family, built once and shared while it stays cached:
    C_p : C_k, generated by r at index 1 and t at index p."""
    p = family.p
    return FiniteGroup(_semidirect_table(p, family.k, family.u), family=family, generators=[1, p])


def parse_group_spec(spec: str) -> FiniteGroup:
    """The group of a CLI group spec: c2xc2, d:<p>, cpxcp:<p>, sd:<p>:<q>."""
    return _family_group(Family.parse(spec))
