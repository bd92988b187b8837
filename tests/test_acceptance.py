"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every expected value is exact (integer or factored-rational equality);
the stated wall-clock budgets are asserted too.
"""

import random
import time
from fractions import Fraction

from selgrowth.brauer import (
    canonical_relation,
    norm_constant,
    relation_lattice,
    verify_relation,
)
from selgrowth.curves import WeierstrassModel, make_profile
from selgrowth.database import ScanFilters, scan
from selgrowth.groups import (
    double_cosets,
    make_cyclic,
    make_dihedral,
    make_elem_abelian,
    make_semidirect,
    parse_group_spec,
)
from selgrowth.intlinalg import hermite_normal_form_rows, integer_kernel_basis
from selgrowth.quotients import certify, oracle_table
from selgrowth.splitting import FieldSpec

from oracle import bench_module, direct_product, induce, inflate, lattice_coordinates, relabeled


def _rational_rank(A) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in A]
    rank = 0
    for col in range(len(A[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget"
            )
        return False


def test_criterion_1_norm_constants():
    """Norm constants of the four canonical relations take their known values."""
    with Budget(1, 1.0):
        for p in (3, 5, 7, 11, 13):
            assert norm_constant(canonical_relation(make_dihedral(p))).factors() == {p: 1}
        assert norm_constant(canonical_relation(make_elem_abelian(2))).factors() == {2: 1}
        for p in (3, 5, 7, 11, 13):
            assert norm_constant(canonical_relation(make_elem_abelian(p))).factors() == {
                p: p - 1
            }
        for p, q in ((7, 3), (13, 3), (31, 5)):
            assert norm_constant(canonical_relation(make_semidirect(p, q))).factors() == {
                p: q - 1
            }


def test_criterion_2_table_reproduction():
    """The double-coset oracle reproduces every table cell; dash cells unreachable."""
    with Budget(2, 5.0):
        specs = ["c2xc2", "d:3", "d:5", "d:7", "cpxcp:3", "cpxcp:5", "cpxcp:7", "sd:7:3"]
        for spec in specs:
            doc = oracle_table(parse_group_spec(spec))
            assert doc["all_pass"], spec
            assert all(c["realizations"] > 0 for c in doc["cells"]), f"{spec}: a cell never realized"
            assert doc["unreachable_observed"] == [], f"dash cell reached: {spec}"


def test_criterion_3_lattice_agreement():
    """Integer nullspace lattices: ranks and membership of canonical relations."""
    with Budget(3, 10.0):
        K = make_elem_abelian(2)
        basis = relation_lattice(K)
        assert len(basis) == 1
        canon = canonical_relation(K).coeff_vector()
        vec = basis[0].coeff_vector()
        assert vec == canon or vec == [-x for x in canon]
        for n in range(1, 31):
            assert relation_lattice(make_cyclic(n)) == []
        for G in (make_dihedral(3), make_dihedral(5), make_elem_abelian(3),
                  make_semidirect(7, 3)):
            lattice = relation_lattice(G)
            coords = lattice_coordinates([b.coeff_vector() for b in lattice],
                                         canonical_relation(G).coeff_vector())
            assert coords is not None, f"canonical relation outside lattice for {G.kind}"


def test_criterion_4_example2_certificate():
    """certify on 65a1 data over Q(sqrt 3, sqrt 5) at p = 2: ord 2, order 4."""
    with Budget(4, 1.0):
        profile = make_profile(
            WeierstrassModel(1, 0, 0, -1, 0), rank=1, torsion_order=2,
            sha_p_trivial=(2,), label="65a1",
        )
        cert = certify(profile, FieldSpec.multiquadratic(3, 5), 2)
        assert cert.ord_p_sha_quotient == 2
        doc = cert.as_json()
        assert doc["conditional_prediction"]["ord_p_sha_top"] == 2
        assert doc["conditional_prediction"]["sha_p_primary_order"] == 4


def test_criterion_5_example1_scan(fixture_records):
    """The fixture scan reproduces the expected curve lists exactly."""
    with Budget(5, 1.0):
        result = scan(fixture_records)
        assert [e.label for e in result.matches] == [
            "91b1", "91b2", "91b3", "123a1", "123a2", "141a1", "142a1", "155a1",
        ]
        torsion_free = scan(fixture_records, filters=ScanFilters(torsion_order=1))
        assert [e.label for e in torsion_free.matches] == [
            "91b3", "123a2", "141a1", "142a1",
        ]


def test_criterion_6_split_cross_oracle(fixture_records):
    """Algebraic split criterion == nodal point counting on the whole fixture, v = 2 included."""
    with Budget(6, 30.0):
        checkers = bench_module("checkers")
        checker = checkers.Checker()
        disagreements = 0
        checked = []
        for rec in fixture_records:
            profile = make_profile(rec.model(), rank=rec.rank, torsion_order=rec.torsion)
            ainvs = (rec.a1, rec.a2, rec.a3, rec.a4, rec.a6)
            c6 = checkers.invariants(ainvs)["c6"]
            for rd in profile.bad_places:
                if rd.is_multiplicative():
                    # the fixture models are minimal, so they are nodal at v
                    if checker.multiplicative_kind(ainvs, c6, rd.v) != rd.kind:
                        disagreements += 1
                    checked.append(rd.v)
        assert len(checked) >= 20 and checked.count(2) == 4  # 14a1, 26b1, 82a1, 142a1
        assert disagreements == 0


def test_criterion_7_invariant_suite():
    """Zero-sum invariants, transport invariance (200 cases), SNF identity, degree sums."""
    with Budget(7, 30.0):
        # coefficient-sum zero and degree zero on all lattice basis elements
        for spec in ("c2xc2", "d:3", "d:5", "d:7", "cpxcp:3", "sd:7:3"):
            G = parse_group_spec(spec)
            for theta in relation_lattice(G):
                assert verify_relation(theta)
                assert sum(n for _, n in theta.coeffs) == 0
                assert theta.degree() == 0

        # norm-constant ord_p invariance under induce/inflate, randomized
        rng = random.Random(20260810)
        specs = ["c2xc2", "d:3", "d:5", "cpxcp:3", "sd:7:3"]
        for case in range(200):
            spec = specs[case % len(specs)]
            G = parse_group_spec(spec)
            theta = canonical_relation(G)
            k = rng.choice((2, 3, 4, 5))
            big = direct_product(G, make_cyclic(k))
            perm = list(range(big.order))
            rng.shuffle(perm)
            shuffled = relabeled(big, perm)
            embedding = [perm[g * k] for g in range(G.order)]
            projection = [0] * big.order
            for z in range(big.order):
                projection[perm[z]] = z // k
            induced = induce(theta, shuffled, embedding)
            inflated = inflate(theta, shuffled, projection)
            p = G.family.p
            assert norm_constant(induced).ord(p) == norm_constant(theta).ord(p)
            assert norm_constant(inflated).ord(p) == norm_constant(theta).ord(p)

        # integer kernels of random matrices: A x = 0 on every basis row, as
        # many rows as n - rank over Q, and the basis is its own Hermite form
        for _ in range(60):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            basis = integer_kernel_basis(A)
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in A for vec in basis)
            assert len(basis) == n - _rational_rank(A)
            assert hermite_normal_form_rows(basis) == basis

        # double-coset local degree sums
        for spec in ("c2xc2", "d:5", "cpxcp:3", "sd:7:3"):
            G = parse_group_spec(spec)
            for H in G.all_subgroups:
                for D in G.all_subgroups:
                    recs = double_cosets(G, H, D)
                    assert sum(r.degree for r in recs) == G.order // len(H)
