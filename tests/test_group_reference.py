"""The table-driven group layer against brute-force enumeration.

For every family group of order at most 60, a direct product and a relabeled
group, the subgroup lattice, its conjugacy classes, the class of each
subgroup, the (D, I) pairs and the double cosets with their (degree, e, f)
must equal what plain set arithmetic on the multiplication table gives. The
oracle below reads only ``G.table`` and ``G.identity``.

The shortcuts of the group layer are checked against the plain computations
they replace, on every family group of order at most 200 and three direct
products: the family tables against the product rule entry by entry, the
(D, I) enumeration against every pair the LocalClass check accepts, Light's
test against the triple loop on a corrupted table, the subgroup orbits
against joins of cyclic subgroups with no order argument, and the place
counts of ``place_counts`` against the listed double cosets.
"""

import itertools
import random
from collections import Counter

import pytest

from selgrowth.groups import (
    FiniteGroup,
    GroupError,
    LocalClass,
    double_cosets,
    make_cyclic,
    make_dihedral,
    make_semidirect,
    parse_group_spec,
    place_counts,
)

from oracle import direct_product, family_specs, relabeled


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

    assert [tuple(s) for s in G.all_subgroups] == sorted(
        (tuple(sorted(s)) for s in subs), key=lambda s: (len(s), s)
    )

    classes = {}
    for S in subs:
        orbit = oracle.orbit(S)
        classes[min(tuple(sorted(c)) for c in orbit)] = len(orbit)
    expected = sorted(classes.items(), key=lambda item: (len(item[0]), item[0]))
    assert [(tuple(c.representative), c.class_size) for c in G.subgroup_classes] == expected
    assert [c.class_id for c in G.subgroup_classes] == list(range(len(expected)))

    for S in subs:
        rep = min(tuple(sorted(c)) for c in oracle.orbit(S))
        assert tuple(G.class_of_subgroup(sorted(S)).representative) == rep

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


# -- shortcuts against the plain computations they replace ----------------------


def product_rule(spec):
    """The multiplication table of a family, one product at a time."""
    name, *params = spec.split(":")
    if name == "c2xc2":
        name, params = "cpxcp", [2]
    p = int(params[0])
    if name == "d":
        # rotations r^a at a, reflections s r^a at p + a, and s r s = r^-1
        def mul(x, y):
            (sx, ax), (sy, ay) = divmod(x, p), divmod(y, p)
            return (sx + sy) % 2 * p + ((ay - ax) if sy else (ax + ay)) % p

        n = 2 * p
    elif name == "sd":
        q = int(params[1])
        u = min(u for u in range(2, p) if pow(u, q, p) == 1)

        # t^b r^a at b p + a, and t^-1 r t = r^u
        def mul(x, y):
            (b, a), (d, c) = divmod(x, p), divmod(y, p)
            return (b + d) % q * p + (a * u ** d + c) % p

        n = p * q
    else:
        def mul(x, y):
            return (x // p + y // p) % p * p + (x + y) % p

        n = p * p
    return tuple(tuple(mul(x, y) for y in range(n)) for x in range(n))


def family_generators(spec):
    """The generating set each family constructor hands to Light's test."""
    name, *params = spec.split(":")
    return [1, 2 if name == "c2xc2" else int(params[0])]


SHORTCUT_NAMES = family_specs(200) + ["d:3 x c:2", "c2xc2 x c:4", "sd:7:3 x c:3"]


def shortcut_group(name):
    if " x " not in name:
        return parse_group_spec(name)
    left, right = name.split(" x ")
    return direct_product(parse_group_spec(left), make_cyclic(int(right.split(":")[1])))


def test_shortcut_groups_are_the_39_families_and_three_products():
    assert len(family_specs(200)) == 39
    assert [shortcut_group(name).order for name in SHORTCUT_NAMES[-3:]] == [12, 16, 63]


@pytest.mark.parametrize("spec", family_specs(200))
def test_family_table_is_the_product_rule(spec):
    assert tuple(map(tuple, parse_group_spec(spec).table)) == product_rule(spec)


def test_semidirect_product_rule_uses_a_nontrivial_twist():
    # a twist u = 1 would make the rule abelian and the table check vacuous
    table = tuple(map(tuple, make_semidirect(7, 3).table))
    assert table != tuple(zip(*table))
    assert product_rule("sd:7:3")[7][1] != product_rule("sd:7:3")[1][7]  # t r and r t


@pytest.mark.parametrize("name", SHORTCUT_NAMES + list(other_groups()))
def test_local_classes_equal_the_unfiltered_enumeration(name):
    # every I inside D that the LocalClass check accepts, with no normalizer
    # or element-order pre-filter, in the same order; and, for every D (not
    # only class representatives) and every I inside it, the check accepts
    # exactly the oracle's pairs, on groups whose identity is not 0 too
    others = other_groups()
    G = others[name] if name in others else shortcut_group(name)
    unfiltered = []
    for dcls in G.subgroup_classes:
        D = dcls.representative
        for I in G.all_subgroups:
            if len(I) <= len(D) and set(I) <= set(D):
                try:
                    unfiltered.append(LocalClass(G, D, I))
                except GroupError:
                    pass
    assert G.local_classes == tuple(unfiltered)
    oracle = Oracle(G)
    accepted, pairs = set(), set()
    for D in G.all_subgroups:
        for I in G.all_subgroups:
            if not set(I) <= set(D):
                continue
            if oracle.is_local_pair(frozenset(D), frozenset(I)):
                pairs.add((D, I))
            try:
                LocalClass(G, D, I)
            except GroupError:
                continue
            accepted.add((D, I))
    assert accepted == pairs


def first_associativity_failure(table, firsts):
    n = len(table)
    for a in firsts:
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


@pytest.mark.parametrize("spec", family_specs(200))
def test_corrupted_family_table_fails_at_the_first_bad_triple(spec):
    table = [list(row) for row in product_rule(spec)]
    n = len(table)
    gens = family_generators(spec)
    rng = random.Random(spec)
    for _ in range(3):
        # an entry off the identity row and column that neither holds nor
        # becomes the identity, so every element keeps its two-sided inverse
        while True:
            x, y, v = rng.randrange(1, n), rng.randrange(1, n), rng.randrange(1, n)
            if table[x][y] not in (0, v):
                break
        bad = [row[:] for row in table]
        bad[x][y] = v
        triple = first_associativity_failure(bad, gens)
        assert triple is not None
        with pytest.raises(GroupError) as info:
            FiniteGroup(bad, generators=gens)
        assert str(info.value) == "associativity fails at ({},{},{})".format(*triple)


@pytest.mark.parametrize(
    "name", family_specs(200) + [f"c:{n}" for n in range(1, 25)] + list(other_groups())
)
def test_place_counts_match_the_listed_double_cosets(name):
    # the Mackey count over the conjugates of H against the double cosets
    # H\G/D themselves, for every subgroup class H and every local class
    G = make_cyclic(int(name[2:])) if name.startswith("c:") else group_of(name)
    for cls in G.subgroup_classes:
        for lc in G.local_classes:
            listed = Counter((r.e_index, r.f_index) for r in double_cosets(G, cls.representative, lc))
            assert place_counts(G, cls.class_id, lc) == tuple(sorted(listed.items())), (cls, lc)


def brute_force_subgroups(G):
    """Every subgroup, by joining each one found with each cyclic subgroup
    (breadth-first closure, no order argument), until nothing new appears."""
    t, e = G.table, G.identity

    def closure(gens):
        out, frontier = {e}, [e]
        while frontier:
            x = frontier.pop()
            for g in gens:
                if t[x][g] not in out:
                    out.add(t[x][g])
                    frontier.append(t[x][g])
        return frozenset(out)

    cyclic = {}
    for g in range(G.order):
        cyclic.setdefault(closure((g,)), g)
    found = {S: (g,) for S, g in cyclic.items()}
    work = list(found)
    while work:
        S = work.pop()
        for C, g in cyclic.items():
            if not C <= S:
                J = closure(found[S] + (g,))
                if J not in found:
                    found[J] = found[S] + (g,)
                    work.append(J)
    return set(found)


@pytest.mark.parametrize("name", SHORTCUT_NAMES)
def test_subgroup_orbits_equal_brute_force(name):
    G = shortcut_group(name)
    oracle = Oracle(G)
    subs = brute_force_subgroups(G)
    orbits = []
    while subs:
        orbit = oracle.orbit(next(iter(subs)))
        subs -= orbit
        orbits.append({tuple(sorted(S)) for S in orbit})
    orbits.sort(key=lambda orbit: min((len(s), s) for s in orbit))
    assert [{tuple(s) for s in orbit} for orbit in G._subgroup_orbits] == orbits


@pytest.mark.parametrize("name", SHORTCUT_NAMES)
def test_element_orders_and_cyclic_subgroups_by_powers(name):
    G = shortcut_group(name)
    t, e = G.table, G.identity
    orders = []
    for g in range(G.order):
        k, x = 1, g
        while x != e:
            k, x = k + 1, t[x][g]
        orders.append(k)
    assert G.element_orders == tuple(orders)
    for cls in G.subgroup_classes:
        H = cls.representative
        assert G.is_cyclic_subgroup(H) == any(orders[h] == len(H) for h in H)
