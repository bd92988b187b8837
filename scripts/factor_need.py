#!/usr/bin/env python3
"""How much factoring work three reference sets of numbers need.

The sets:

- ``certify_mq``: |Delta_min| of every curve the certify_mq benchmark draws
  (its fixed pool of 750 random models and the semistable curves of
  data/curves.csv), read from bench/inputs.py;
- ``curves.csv``: |Delta_min| of every row of data/curves.csv;
- ``held-out``: 2,000 k * p * q with p and q the next primes after integers
  drawn uniformly from 10^6 to 10^12 and k from 1 to 1000, from a fixed seed
  (tests/test_arith.py draws other products of the same kind).

For each set it prints the largest budget need (the Pollard-Brent and ECM
steps that ``factor`` charges, a step being one reduction modulo the number)
and the number needing it, the total of the needs (the modular
multiplications the set costs), and the total and worst wall time of
``factor``. The last line is RHO_BUDGET as a multiple of the largest need.
Each factorization is checked: its primes pass ``is_prime`` and multiply
back to the number. A run takes about 1.5 minutes, nearly all of it on the
held-out set.

    python3 scripts/factor_need.py
    python3 scripts/factor_need.py --held-out 500 --schedule 20:150:3750,40:300:15000

``--schedule`` replaces the package's ECM schedule, as (curves, B1, B2)
levels, and ``--brent-first`` its first Pollard-Brent run, so that
candidate schedules can be compared on the same sets. Standard library only.
"""

from __future__ import annotations

import argparse
import itertools
import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402  (bench/inputs.py)
from selgrowth import arith  # noqa: E402
from selgrowth.curves import WeierstrassModel, minimal_model  # noqa: E402

DATA = ROOT / "data" / "curves.csv"


def delta_min(ainvs) -> int:
    return abs(minimal_model(WeierstrassModel(*ainvs)).invariants.delta)


def reference_sets(held_out: int) -> dict:
    fixture = inputs.read_fixture(DATA)
    mq = {tuple(r["ainvs"]) for r in inputs.mq_round(7, DATA)}  # every pool model, each round
    mq |= {tuple(r["ainvs"]) for r in fixture if r["semistable"]}
    rng = random.Random("factor_need:held-out")

    def next_prime(n):
        while not arith.is_prime(n):
            n += 1
        return n

    kpq = []
    for _ in range(held_out):
        p, q = (next_prime(rng.randint(10 ** 6, 10 ** 12)) for _ in "pq")
        kpq.append(rng.randint(1, 1000) * p * q)
    return {
        "certify_mq": sorted({delta_min(a) for a in mq}),
        "curves.csv": sorted({delta_min(r["ainvs"]) for r in fixture}),
        "held-out": kpq,
    }


def measure(numbers: list) -> dict:
    """Largest and total need, total and worst time of factor() over the numbers."""
    split, last = arith._split, [0]

    def charged(n, out, budget, k=1):  # the outermost call returns last
        left = split(n, out, budget, k)
        last[0] = budget - left
        return left

    arith._split = charged
    stats = {"numbers": len(numbers), "refused": 0, "largest_need": 0, "at": None,
             "total_steps": 0, "total_s": 0.0, "worst_s": 0.0, "worst_at": None}
    try:
        for n in numbers:
            last[0] = 0
            start = time.perf_counter()
            try:
                f = arith.factor(n)
            except arith.FactorizationBudgetError:
                stats["refused"] += 1
                continue
            finally:
                took = time.perf_counter() - start
                stats["total_s"] += took
                if took > stats["worst_s"]:
                    stats["worst_s"], stats["worst_at"] = took, n
            product = 1
            for p, e in f.items():
                if not arith.is_prime(p):
                    raise SystemExit(f"factor({n}) returned the composite {p}")
                product *= p ** e
            if product != n:
                raise SystemExit(f"factor({n}) does not multiply back: {f}")
            stats["total_steps"] += last[0]
            if last[0] > stats["largest_need"]:
                stats["largest_need"], stats["at"] = last[0], n
    finally:
        arith._split = split
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--held-out", type=int, default=2000, help="size of the held-out set (default 2000)")
    parser.add_argument("--schedule", help="ECM levels curves:B1:B2,... instead of the package's")
    parser.add_argument("--brent-first", type=int, help="steps of the first Pollard-Brent run")
    args = parser.parse_args(argv)
    if args.schedule:
        levels = [tuple(map(int, level.split(":"))) for level in args.schedule.split(",")]
        arith._ECM_SCHEDULE = [arith._ecm_level(b1, b2) for curves, b1, b2 in levels for _ in range(curves)]
    if args.brent_first is not None:
        arith._BRENT_FIRST = args.brent_first
    levels = " ".join(f"({len(list(run))}, {len(bits) + 1}, {giants}, {steps})"
                      for (bits, giants, steps), run in itertools.groupby(arith._ECM_SCHEDULE))
    print(f"RHO_BUDGET {arith.RHO_BUDGET}, first Pollard-Brent run {arith._BRENT_FIRST} steps, ECM levels"
          f" (curves, B1 bits, giants, steps per curve): {levels}")
    largest = 0
    for name, numbers in reference_sets(args.held_out).items():
        s = measure(numbers)
        largest = max(largest, s["largest_need"])
        print(f"{name}: {s['numbers']} numbers, {s['refused']} refused; largest need {s['largest_need']}"
              f" steps ({s['at']}); total {s['total_steps']} steps (modular multiplications);"
              f" time total {s['total_s']:.3f} s, worst {s['worst_s'] * 1000:.2f} ms ({s['worst_at']})")
    if largest:
        print(f"RHO_BUDGET = {arith.RHO_BUDGET / largest:.1f} x the largest need ({largest} steps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
