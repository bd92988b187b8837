"""Inputs and oracles the tests share, outside the package.

The groups and relations built here are test inputs: the tests check them
with the package's own code (``verify_relation``, ``norm_constant``, the
relation lattice). ``bench_module`` loads a file of the benchmark by path,
unchanged, so that the tests and the benchmark read one copy of its
selgrowth-free oracles.
"""

import functools
import importlib.util
import pathlib
import sys

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
