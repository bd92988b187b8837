"""Seeded inputs for the four workloads.

Pure Python with no import of selgrowth: the program only ever sees what
these functions return. The same seed always gives the same inputs.
"""

from __future__ import annotations

import csv
import math
import random
from checkers import factor_small, invariants, is_prime, is_squarefree, natural_key

ORDER_CAP = 200

# certify_mq: one round is MQ_ROUND requests; every MQ_FIXTURE_EVERY-th uses a
# curve of the fixture table, each of the others a distinct random model.
MQ_ROUND = 1000
MQ_FIXTURE_EVERY = 4
# Random models: a1 = 1, a3 in {0, 1}, a2 in {-1, 0, 1}, |a4| <= A4_MAX,
# |a6| <= A6_MAX, kept only when gcd(c4, disc) = 1 (minimal and semistable).
A4_MAX = 10 ** 6
A6_MAX = 10 ** 9
# Quadratic discriminants d with |d| <= D_MAX, squarefree and not 0 or 1.
D_MAX = 100

# certify_abstract: one round is one certificate over each of these fields.
ABSTRACT_SPECS = ("d:97", "cpxcp:13")
ABSTRACT_ROUNDS = 200

COLD_ROUNDS = 60

def read_fixture(path) -> list:
    """Every row of the curve CSV as a dict; semistable rows are flagged.

    A curve is semistable exactly when its conductor is squarefree, and the
    conductor is the number in front of a Cremona label.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            label = row["label"].strip()
            n = natural_key(label)[0]
            sha = row["sha_an"].strip()
            rows.append({
                "label": label,
                "ainvs": [int(row[k]) for k in ("a1", "a2", "a3", "a4", "a6")],
                "rank": int(row["rank"]),
                "torsion": int(row["torsion"]),
                "sha_an": int(sha) if sha else None,
                "conductor": n,
                "semistable": is_squarefree(n),
                "bad_primes": sorted(factor_small(n)),
            })
    return rows


def semistable_fixture(path) -> list:
    return [r for r in read_fixture(path) if r["semistable"]]


def random_curve(rng: random.Random) -> list:
    while True:
        ainvs = [1, rng.choice((-1, 0, 1)), rng.randint(0, 1),
                 rng.randint(-A4_MAX, A4_MAX), rng.randint(-A6_MAX, A6_MAX)]
        inv = invariants(ainvs)
        if inv["delta"] != 0 and math.gcd(inv["c4"], inv["delta"]) == 1:
            return ainvs


D_POOL = [d for d in range(-D_MAX, D_MAX + 1) if d not in (0, 1) and is_squarefree(abs(d))]


def squarefree_pair(rng: random.Random) -> tuple:
    d1, d2 = rng.sample(D_POOL, 2)
    return d1, d2


def mq_round(seed: int, fixture_path) -> list:
    """One round of certify_mq requests: curve, assumptions and field.

    The random models form one fixed pool, the same for every seed: their
    cost (factoring a 20-digit discriminant) has a heavy tail, and a pool
    drawn per seed moved a round's mean and p99 by 20-50% between seeds.
    The seed draws the order, the fixture curves, ranks, assumptions and fields.
    """
    pool_rng = random.Random("certify_mq:pool")
    pool = [random_curve(pool_rng) for _ in range(MQ_ROUND - MQ_ROUND // MQ_FIXTURE_EVERY)]
    rng = random.Random(f"certify_mq:{seed}")
    rng.shuffle(pool)
    fixture = semistable_fixture(fixture_path)
    out = []
    for i in range(MQ_ROUND):
        if i % MQ_FIXTURE_EVERY == 0:
            rec = rng.choice(fixture)
            curve = {"ainvs": rec["ainvs"], "rank": rec["rank"], "torsion": rec["torsion"],
                     "label": rec["label"]}
        else:
            curve = {"ainvs": pool.pop(), "rank": rng.randint(0, 3), "torsion": 1, "label": None}
        d1, d2 = squarefree_pair(rng)
        curve["sha_trivial"] = [2] if rng.random() < 0.5 else []
        curve["field"] = [d1, d2]
        out.append(curve)
    return out


def local_pairs(spec: str) -> list:
    """(D, I) class-name pairs with I normal in D and D/I cyclic.

    d:p has classes 1, C2 (p conjugates), Cp and G; a reflection subgroup is
    not normal in G, and G/1 is not cyclic. cpxcp:p is abelian with p + 1
    classes of order p named C<p>a, C<p>b, ...; G/1 is not cyclic.
    """
    family, p = spec.split(":")
    if family == "d":
        cp = f"C{p}"
        return [("1", "1"), ("C2", "1"), ("C2", "C2"), (cp, "1"), (cp, cp), ("G", cp), ("G", "G")]
    if family == "cpxcp":
        lines = [f"C{p}{'abcdefghijklmnopqrstuvwxyz'[i]}" for i in range(int(p) + 1)]
        pairs = [("1", "1"), ("G", "G")]
        for c in lines:
            pairs += [(c, "1"), (c, c), ("G", c)]
        return pairs
    raise ValueError(f"no local pairs for {spec}")


def abstract_rounds(seed: int, fixture_path) -> list:
    """ABSTRACT_ROUNDS rounds, each one certificate over each abstract field."""
    rng = random.Random(f"certify_abstract:{seed}")
    fixture = semistable_fixture(fixture_path)
    pairs = {spec: local_pairs(spec) for spec in ABSTRACT_SPECS}
    rounds = []
    for _ in range(ABSTRACT_ROUNDS):
        rnd = []
        for spec in ABSTRACT_SPECS:
            rec = rng.choice(fixture)
            p = int(spec.split(":")[1])
            rnd.append({
                "spec": spec,
                "p": p,
                "ainvs": rec["ainvs"],
                "rank": rec["rank"],
                "torsion": rec["torsion"],
                "label": rec["label"],
                "sha_trivial": [p] if rng.random() < 0.5 else [],
                "overrides": {v: rng.choice(pairs[spec]) for v in rec["bad_primes"]},
            })
        rounds.append(rnd)
    return rounds


def family_specs(seed: int) -> list:
    """Every family spec with group order at most ORDER_CAP, in seeded order."""
    odd_primes = [p for p in range(3, ORDER_CAP) if is_prime(p)]
    specs = ["c2xc2"]
    specs += [f"d:{p}" for p in odd_primes if 2 * p <= ORDER_CAP]
    specs += [f"cpxcp:{p}" for p in odd_primes if p * p <= ORDER_CAP]
    specs += [f"sd:{p}:{q}" for q in odd_primes for p in odd_primes
              if (p - 1) % q == 0 and p * q <= ORDER_CAP]
    random.Random(f"family_sweep:{seed}").shuffle(specs)
    return specs


def cold_rounds(seed: int, fixture_path, data_arg: str) -> list:
    """COLD_ROUNDS rounds of five CLI calls: {"args": argv, "check": what to check}."""
    rng = random.Random(f"cli_cold:{seed}")
    fixture = semistable_fixture(fixture_path)
    rounds = []
    for _ in range(COLD_ROUNDS):
        rec = rng.choice(fixture)
        d1, d2 = squarefree_pair(rng)
        sha = [2] if rng.random() < 0.5 else []
        certify = ["certify", "--curve", ",".join(map(str, rec["ainvs"])),
                   "--rank", str(rec["rank"]), "--torsion", str(rec["torsion"]),
                   "--field", f"mq:{d1},{d2}", "-p", "2"] + (["--sha-trivial", "2"] if sha else [])
        req = {"ainvs": rec["ainvs"], "rank": rec["rank"], "torsion": rec["torsion"],
               "label": None, "sha_trivial": sha, "field": [d1, d2]}
        torsion_free = rng.random() < 0.5
        scan = ["scan", "--data", data_arg] + (["--torsion-free"] if torsion_free else [])
        rec = rng.choice(fixture)
        analyze = ["analyze", "--curve", ",".join(map(str, rec["ainvs"])), "--rank", str(rec["rank"])]
        rounds.append([
            {"args": certify, "check": ("certify", req)},
            {"args": scan, "check": ("scan", torsion_free)},
            {"args": ["relations", "c2xc2"], "check": ("relations", None)},
            {"args": ["tables", "c2xc2"], "check": ("tables", "c2xc2")},
            {"args": analyze, "check": ("analyze", rec["ainvs"])},
        ])
    return rounds
