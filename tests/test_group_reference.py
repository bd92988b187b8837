"""The table-driven group layer against brute-force enumeration.

For every family group of order at most 60, a direct product and a relabeled
group, the subgroup lattice, its conjugacy classes, the class of each
subgroup, the (D, I) pairs and the double cosets with their (degree, e, f)
must equal what plain set arithmetic on the multiplication table gives. The
oracle below reads only ``G.table`` and ``G.identity``.
"""

import itertools
import random

import pytest

from selgrowth.groups import (
    GroupError,
    direct_product,
    double_cosets,
    make_cyclic,
    make_dihedral,
    parse_group_spec,
    relabeled,
)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def family_specs(max_order):
    specs = ["c2xc2"]
    odd_primes = [p for p in range(3, max_order) if _is_prime(p)]
    specs += [f"d:{p}" for p in odd_primes if 2 * p <= max_order]
    specs += [f"cpxcp:{p}" for p in odd_primes if p * p <= max_order]
    specs += [
        f"sd:{p}:{q}"
        for p in odd_primes
        for q in odd_primes
        if (p - 1) % q == 0 and p * q <= max_order
    ]
    return specs


def other_groups():
    product = direct_product(make_dihedral(3), make_cyclic(4))
    rng = random.Random(20261018)
    perm = list(range(product.order))
    rng.shuffle(perm)
    shuffled = relabeled(product, perm)
    assert shuffled.identity != 0
    return {"d:3 x c:4": product, "relabeled d:3 x c:4": shuffled}


class Oracle:
    """Subgroups, conjugacy and double cosets by direct set arithmetic."""

    def __init__(self, G):
        self.n = G.order
        self.t = G.table
        self.e = G.identity
        self.inv = [next(b for b in range(self.n) if self.t[a][b] == self.e) for a in range(self.n)]

    def closure(self, gens):
        out = {self.e}
        frontier = [self.e]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.t[x][g]
                if y not in out:
                    out.add(y)
                    frontier.append(y)
        return frozenset(out)

    def subgroups(self):
        """Cyclic subgroups, then joins of every pair until nothing new appears."""
        gens_of = {}
        for g in range(self.n):
            gens_of.setdefault(self.closure((g,)), (g,))
        while True:
            fresh = {}
            known = list(gens_of.items())
            for a, ga in known:
                for b, gb in known:
                    j = self.closure(ga + gb)
                    if j not in gens_of and j not in fresh:
                        fresh[j] = ga + gb
            if not fresh:
                return set(gens_of)
            gens_of.update(fresh)

    def conjugate(self, S, x):
        xi = self.inv[x]
        return frozenset(self.t[self.t[xi][s]][x] for s in S)

    def orbit(self, S):
        return {self.conjugate(S, x) for x in range(self.n)}

    def is_local_pair(self, D, I):
        if not I <= D or any(self.conjugate(I, d) != I for d in D):
            return False
        cosets = {frozenset(self.t[d][a] for a in I) for d in D}
        for d in D:
            seen, x = set(), d
            while True:
                coset = frozenset(self.t[x][a] for a in I)
                if coset in seen:
                    break
                seen.add(coset)
                x = self.t[x][d]
            if len(seen) == len(cosets):
                return True
        return False

    def double_cosets(self, H, D, I):
        """(min element, size, degree, e, f) of each HxD, by least element."""
        records = []
        covered = set()
        for x in range(self.n):
            if x in covered:
                continue
            coset = {self.t[self.t[h][x]][d] for h in H for d in D}
            covered |= coset
            xhx = self.conjugate(H, x)  # x^-1 H x
            degree = len(D) // len(D & xhx)
            e = len(I) // len(I & xhx)
            records.append((min(coset), len(coset), degree, e, degree // e))
        return records


NAMES = family_specs(60) + list(other_groups())


def group_of(name):
    others = other_groups()
    return others[name] if name in others else parse_group_spec(name)


def test_family_list_covers_every_family_up_to_60():
    assert family_specs(60) == [
        "c2xc2", "d:3", "d:5", "d:7", "d:11", "d:13", "d:17", "d:19", "d:23", "d:29",
        "cpxcp:3", "cpxcp:5", "cpxcp:7", "sd:7:3", "sd:11:5", "sd:13:3", "sd:19:3",
    ]


@pytest.mark.parametrize("name", NAMES)
def test_group_layer_matches_brute_force(name):
    G = group_of(name)
    oracle = Oracle(G)
    subs = oracle.subgroups()

    assert [s.elements for s in G.all_subgroups] == sorted(
        (tuple(sorted(s)) for s in subs), key=lambda s: (len(s), s)
    )

    classes = {}
    for S in subs:
        orbit = oracle.orbit(S)
        classes[min(tuple(sorted(c)) for c in orbit)] = len(orbit)
    expected = sorted(classes.items(), key=lambda item: (len(item[0]), item[0]))
    assert [(c.representative.elements, c.class_size) for c in G.subgroup_classes] == expected
    assert [c.class_id for c in G.subgroup_classes] == list(range(len(expected)))

    for S in subs:
        rep = min(tuple(sorted(c)) for c in oracle.orbit(S))
        assert G.class_of_subgroup(sorted(S)).representative.elements == rep

    reps = [frozenset(c.representative) for c in G.subgroup_classes]
    pairs = {(D, I) for D in reps for I in subs if oracle.is_local_pair(D, I)}
    found = G.local_classes
    assert {(frozenset(lc.decomposition), frozenset(lc.inertia)) for lc in found} == pairs
    assert len(found) == len(pairs)

    for cls in G.subgroup_classes:
        H = cls.representative
        for lc in found:
            got = [
                (r.representative, r.size, r.degree, r.e_index, r.f_index)
                for r in double_cosets(G, H, lc)
            ]
            D, I = frozenset(lc.decomposition), frozenset(lc.inertia)
            assert got == oracle.double_cosets(frozenset(H), D, I), (H, lc)
        for D in G.all_subgroups:
            got = [(r.representative, r.size, r.degree) for r in double_cosets(G, H, D)]
            want = oracle.double_cosets(frozenset(H), frozenset(D), frozenset([G.identity]))
            assert got == [w[:3] for w in want]


@pytest.mark.parametrize("spec", family_specs(60))
def test_local_class_lookup_is_a_bijection_onto_the_enumeration(spec):
    # every pair of class names either names no local class or names exactly
    # the enumerated class it selects, and every enumerated class is reached
    G = parse_group_spec(spec)
    reached = []
    for d_name, i_name in itertools.product(G.class_names, repeat=2):
        try:
            lc = G.local_class(G.class_by_name(d_name), G.class_by_name(i_name))
        except GroupError as exc:
            assert f"({d_name}, {i_name})" in str(exc)
            continue
        assert lc in G.local_classes and lc.names() == (d_name, i_name)
        reached.append(lc)
    assert len(set(reached)) == len(reached) == len(G.local_classes)
