"""Independent checks of selgrowth's outputs.

Nothing here imports selgrowth. Every check recomputes what it can from the
request alone, with its own arithmetic: Weierstrass invariants, a
deterministic Miller-Rabin test, point counts over F_v, quadratic splitting
symbols, a transcription of the paper's local-quotient tables and a
permutation-character count. A mismatch raises CheckError.
"""

from __future__ import annotations

import math

# Deterministic Miller-Rabin: the first thirteen primes as bases decide every
# n below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3_317_044_064_679_887_385_961_981

# Split or non-split is decided by counting points below this bound, and by
# whether -c6 is a square mod v above it.
POINT_COUNT_BELOW = 300

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# The paper's tables of local Tamagawa quotients, one per family: the
# C2 x C2 table (p = 2), the D_2p table and the table shared by Cp x Cp and
# Cp : Cq. Rows say how v sits in F, columns give the reduction of E at v
# and over F. A value is ord_p of the quotient; a pair is (ord_v(delta)
# even, odd); a missing cell is a dash (no (D, I) pair realizes it). The
# odd-order tables carry split columns only: at a non-split place the
# quotient has no p-part.
SPLITS, INERT_RAMIFIED, TOTALLY_RAMIFIED = "splits", "inert_ramified", "totally_ramified"
COL_SPLIT, COL_STAYS, COL_BECOMES = "split_mult", "nonsplit_over_F", "nonsplit_becomes_split"


def transcribed_table(spec: str) -> dict:
    family, p, q = family_of(spec)
    if family == "c2xc2":
        return {
            (SPLITS, COL_SPLIT): 0, (SPLITS, COL_STAYS): 0, (SPLITS, COL_BECOMES): 0,
            (INERT_RAMIFIED, COL_SPLIT): -1, (INERT_RAMIFIED, COL_BECOMES): (1, -1),
            (TOTALLY_RAMIFIED, COL_SPLIT): -1, (TOTALLY_RAMIFIED, COL_STAYS): (0, -2),
        }
    if family == "d":
        return {
            (SPLITS, COL_SPLIT): 0, (SPLITS, COL_STAYS): 0, (SPLITS, COL_BECOMES): 0,
            (INERT_RAMIFIED, COL_SPLIT): -1, (INERT_RAMIFIED, COL_BECOMES): 1,
            (TOTALLY_RAMIFIED, COL_SPLIT): -1, (TOTALLY_RAMIFIED, COL_STAYS): 0,
        }
    k = p if family == "cpxcp" else q
    return {(SPLITS, COL_SPLIT): 0, (INERT_RAMIFIED, COL_SPLIT): 1 - k,
            (TOTALLY_RAMIFIED, COL_SPLIT): 1 - k}


def norm_ord(spec: str) -> int:
    """ord_p of the norm constant of the family's relation: 1, 1, p - 1, q - 1."""
    family, p, q = family_of(spec)
    return {"c2xc2": 1, "d": 1, "cpxcp": p - 1, "sd": (q or 0) - 1}[family]


class CheckError(Exception):
    """An output of the program disagrees with the independent computation."""


def expect(cond, message):
    if not cond:
        raise CheckError(message)


def family_of(spec: str) -> tuple:
    """(family, p, q) of a group spec; q is None outside sd:p:q."""
    if spec == "c2xc2":
        return "c2xc2", 2, None
    parts = spec.split(":")
    if parts[0] == "sd":
        return "sd", int(parts[1]), int(parts[2])
    return parts[0], int(parts[1]), None


def group_order(spec: str) -> int:
    family, p, q = family_of(spec)
    return {"c2xc2": 4, "d": 2 * p, "cpxcp": p * p, "sd": (q or 0) * p}[family]


def class_names(spec: str) -> dict:
    """Subgroup class name -> order, for the families."""
    family, p, q = family_of(spec)
    if family == "c2xc2":
        return {"1": 1, "C2a": 2, "C2b": 2, "C2c": 2, "G": 4}
    if family == "d":
        return {"1": 1, "C2": 2, f"C{p}": p, "G": 2 * p}
    if family == "cpxcp":
        names = {"1": 1, "G": p * p}
        names.update({f"C{p}{LETTERS[i]}": p for i in range(p + 1)})
        return names
    return {"1": 1, f"C{q}": q, f"C{p}": p, "G": p * q}


def canonical_coeffs(spec: str) -> dict:
    family, p, q = family_of(spec)
    if family == "c2xc2":
        return {"1": 1, "C2a": -1, "C2b": -1, "C2c": -1, "G": 2}
    if family == "d":
        return {"1": 1, "C2": -2, f"C{p}": -1, "G": 2}
    if family == "cpxcp":
        coeffs = {"1": 1, "G": p}
        coeffs.update({f"C{p}{LETTERS[i]}": -1 for i in range(p + 1)})
        return coeffs
    return {"1": 1, f"C{q}": -q, f"C{p}": -1, "G": q}


# -- arithmetic -----------------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= MR_LIMIT:
        raise CheckError(f"{n} is beyond the deterministic Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_squarefree(n: int) -> bool:
    """For small positive n."""
    return n >= 1 and all(e == 1 for e in factor_small(n).values())


def factor_small(n: int) -> dict:
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariants(ainvs) -> dict:
    a1, a2, a3, a4, a6 = ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = a1 * a3 + 2 * a4
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return {
        "c4": b2 * b2 - 24 * b4,
        "c6": -b2 ** 3 + 36 * b2 * b4 - 216 * b6,
        "delta": -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6,
    }


def iroot(n: int, k: int) -> int | None:
    """The positive integer k-th root of n > 0, or None."""
    r = round(n ** (1.0 / k))
    for cand in (r - 1, r, r + 1):
        if cand > 0 and cand ** k == n:
            return cand
    return None


def splitting(d: int, v: int) -> str:
    """How the prime v behaves in Q(sqrt d), d squarefree and not 0 or 1."""
    if v == 2:
        r = d % 8
        if r % 4 in (2, 3):
            return "ramified"
        return "split" if r == 1 else "inert"
    if d % v == 0:
        return "ramified"
    return "split" if pow(d % v, (v - 1) // 2, v) == 1 else "inert"


def ord_of(factored: dict, p: int) -> int:
    return int(factored.get(str(p), 0))


def natural_key(label: str):
    """(conductor, class letters, number) of a Cremona label, for sorting like the program."""
    i = 0
    while label[i].isdigit():
        i += 1
    j = i
    while label[j].isalpha():
        j += 1
    return int(label[:i]), len(label[i:j]), label[i:j], int(label[j:])


class Checker:
    """Checks outputs; keeps point-count tables and verified curves."""

    def __init__(self):
        self._chi = {}
        self._kind = {}
        self._curves = {}

    # -- curves ------------------------------------------------------------------

    def _residue_symbols(self, v: int) -> list:
        chi = self._chi.get(v)
        if chi is None:
            chi = [-1] * v
            chi[0] = 0
            for y in range(1, v):
                chi[y * y % v] = 1
            self._chi[v] = chi
        return chi

    def affine_points(self, ainvs, v: int) -> int:
        """#{(x, y) in F_v^2 on the model}, counted without any change of variables at v = 2."""
        a1, a2, a3, a4, a6 = (a % v for a in ainvs)
        if v == 2:
            return sum(
                1 for x in range(2) for y in range(2)
                if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % 2 == 0
            )
        chi = self._residue_symbols(v)
        total = 0
        for x in range(v):
            disc = ((a1 * x + a3) ** 2 + 4 * (x ** 3 + a2 * x * x + a4 * x + a6)) % v
            total += 1 + chi[disc]
        return total

    def multiplicative_kind(self, model, c6: int, v: int) -> str:
        """split_mult or nonsplit_mult at a prime of multiplicative reduction."""
        key = (tuple(model), v)
        kind = self._kind.get(key)
        if kind is None:
            if v < POINT_COUNT_BELOW:
                n = self.affine_points(model, v)
                # a nodal cubic has v - 1 affine points if split, v + 1 if not
                expect(n in (v - 1, v + 1), f"{n} affine points mod {v}: not multiplicative")
                kind = "split_mult" if n == v - 1 else "nonsplit_mult"
            else:
                kind = "split_mult" if pow(-c6 % v, (v - 1) // 2, v) == 1 else "nonsplit_mult"
            self._kind[key] = kind
        return kind

    def check_curve(self, ainvs, model, delta_min: int, places) -> dict:
        """Check a minimal model and its bad places; return v -> (kind, m).

        places is a list of (v, kind, m). Checks that the model is normalized,
        has discriminant delta_min, is isomorphic to the input with
        delta_input / delta_min a 12th power, that prod v^m = |delta_min| with
        every v prime, and each kind by point counts.
        """
        key = (tuple(ainvs), tuple(model), delta_min, tuple(map(tuple, places)))
        hit = self._curves.get(key)
        if hit is not None:
            return hit
        a1, a2, a3 = model[0], model[1], model[2]
        expect(a1 in (0, 1) and a3 in (0, 1) and a2 in (-1, 0, 1), f"model {model} not normalized")
        inv_in, inv = invariants(ainvs), invariants(model)
        expect(inv["delta"] == delta_min, f"delta_min {delta_min} is not the discriminant of {model}")
        expect(delta_min != 0 and inv_in["delta"] % delta_min == 0,
               "delta_min does not divide the input discriminant")
        u = iroot(inv_in["delta"] // delta_min, 12)
        expect(u is not None, "delta_input / delta_min is not a 12th power")
        expect(inv_in["c4"] == u ** 4 * inv["c4"] and inv_in["c6"] == u ** 6 * inv["c6"],
               "minimal model is not isomorphic to the input")
        vs = [v for v, _, _ in places]
        expect(vs == sorted(set(vs)), "bad places not sorted and distinct")
        product = 1
        out = {}
        for v, kind, m in places:
            expect(m >= 1 and is_prime(v), f"bad place {v}^{m} is not a prime power")
            product *= v ** m
            expect(inv["c4"] % v != 0, f"additive reduction at {v}")
            real = self.multiplicative_kind(model, inv["c6"], v)
            expect(kind == real, f"reduction at {v} is {real}, output says {kind}")
            out[v] = (kind, m)
        expect(product == abs(delta_min), f"prod v^m = {product} is not |delta_min| = {abs(delta_min)}")
        self._curves[key] = out
        return out

    # -- certificates --------------------------------------------------------------

    def check_certificate(self, req: dict, cert: dict) -> None:
        """req: ainvs, rank, torsion, label, sha_trivial and either field
        [d1, d2] (the group is c2xc2) or spec, p and overrides {v: (D, I)}."""
        spec = req.get("spec", "c2xc2")
        family, p, _ = family_of(spec)
        p = 2 if family == "c2xc2" else p
        rank, sha = req["rank"], sorted(req["sha_trivial"])
        expect(cert["schema"] == 1 and cert["group"] == spec and cert["p"] == p, "header")
        expect(cert["curve"]["label"] == req["label"], "label")
        if "field" in req:
            d1, d2 = req["field"]
            expect(cert["field"] == {"kind": "multiquadratic", "d1": d1, "d2": d2}, "field")
        else:
            expect(cert["field"] == {"kind": "abstract"}, "field")
        places = cert["places"]
        reductions = self.check_curve(
            req["ainvs"], cert["curve"]["model"], cert["curve"]["delta_min"],
            [(pl["v"], pl["reduction"], pl["m"]) for pl in places],
        )
        coeffs = canonical_coeffs(spec)
        expect(cert["relation"]["coeffs"] == coeffs, "relation is not the family's relation")
        orders = class_names(spec)
        norm = {}
        for name, n in coeffs.items():
            for q, e in factor_small(orders[name]).items():
                norm[str(q)] = norm.get(str(q), 0) + n * e
        norm = {q: e for q, e in norm.items() if e}
        nord = norm_ord(spec)
        expect(cert["relation"]["norm"] == norm == {str(p): nord}, "norm constant")
        table = transcribed_table(spec)
        odd_order = group_order(spec) % 2 == 1
        tam = 0
        for pl in places:
            v = pl["v"]
            kind, m = reductions[v]
            d_name, i_name = self.local_pair(req, spec, v)
            expect((pl["D"], pl["I"]) == (d_name, i_name),
                   f"local class at {v}: {pl['D']},{pl['I']} instead of {d_name},{i_name}")
            f = orders[d_name] // orders[i_name]
            if d_name != "G":
                row = SPLITS
            elif i_name == "G":
                row = TOTALLY_RAMIFIED
            else:
                row = INERT_RAMIFIED
            if kind == "split_mult":
                col = COL_SPLIT
            else:
                col = COL_BECOMES if f % 2 == 0 else COL_STAYS
            parity = "even" if m % 2 == 0 else "odd"
            expect(pl["table_cell"] == f"{row}|{col}|{parity}", f"table cell at {v}")
            if odd_order and col != COL_SPLIT:
                value = 0
            else:
                expect((row, col) in table, f"dash cell ({row}, {col}) reached at {v}")
                value = table[(row, col)]
                if isinstance(value, tuple):
                    value = value[0] if parity == "even" else value[1]
            expect(ord_of(pl["quotient"], p) == value,
                   f"ord_p of the quotient at {v} is {ord_of(pl['quotient'], p)}, table says {value}")
            for prime, e in pl["quotient"].items():
                total = sum(n * int(pl["contributions"][name].get(prime, 0))
                            for name, n in coeffs.items())
                expect(total == e, f"contributions at {v} do not multiply to the quotient")
            tam += value
        rhs = rank * nord
        expect(cert["ord_p"] == {"tamagawa_quotient": tam, "rhs": rhs, "sha_quotient": rhs - tam},
               f"ord_p {cert['ord_p']} != tamagawa {tam}, rhs {rhs}")
        expect(cert["regulator_quotient"] == ({str(p): -rhs} if rhs else {}), "regulator quotient")
        n_nonsplit = sum(1 for k, _ in reductions.values() if k == "nonsplit_mult")
        n_even = sum(1 for k, m in reductions.values() if k == "nonsplit_mult" and m % 2 == 0)
        case = {"c2xc2": "a", "d": "b"}.get(family, "c")
        passes = {"a": rank >= 1 and rank > n_even, "b": rank >= 1 and rank > n_nonsplit,
                  "c": rank >= 1}
        hyp = cert["hypotheses"]
        expect(hyp["semistable"] is True and hyp["rank"] == rank
               and hyp["n_nonsplit"] == n_nonsplit and hyp["n_nonsplit_even_ord"] == n_even
               and (hyp["case_a"], hyp["case_b"], hyp["case_c"]) == (passes["a"], passes["b"], passes["c"])
               and hyp["applicable_case"] == case and hyp["pass"] == passes[case]
               and (hyp["failing"] is None) == passes[case], "hypotheses")
        expect(cert["assumptions"] == {
            "rank": rank, "torsion_order": req["torsion"], "sha_p_trivial": sha,
            "mordell_weil_stable": True, "sha_trivial_in_proper_subfields": p in sha,
        }, "assumptions")
        if p in sha:
            top = rhs - tam
            expect(cert["conditional_prediction"] == {
                "ord_p_sha_top": top, "sha_p_primary_order": p ** top if top >= 0 else None,
            }, "conditional prediction")
        else:
            expect(cert["conditional_prediction"] is None, "prediction without the Sha assumption")
        if not passes[case]:
            tier = "none"
        elif p in sha:
            tier = "selmer_growth" if req["torsion"] % p else "sha_nonzero"
        else:
            tier = "sha_change"
        expect(cert["conclusion_tier"] == tier, f"tier {cert['conclusion_tier']} != {tier}")

    def local_pair(self, req: dict, spec: str, v: int) -> tuple:
        """Names of (D, I) at v: the override, or from the three quadratic subfields."""
        if "overrides" in req:
            return tuple(req["overrides"][v])
        d1, d2 = req["field"]
        g = math.gcd(d1, d2)
        subfields = ((d1, "C2a"), (d2, "C2b"), (d1 // g * (d2 // g), "C2c"))
        symbols = [(splitting(d, v), name) for d, name in subfields]
        ramified = [name for s, name in symbols if s == "ramified"]
        split = [name for s, name in symbols if s == "split"]
        expect(len(ramified) in (0, 2, 3) and len(split) in (0, 1, 3), f"subfield symbols at {v}")
        if not ramified:
            inertia = "1"
        elif len(ramified) == 2:
            inertia = next(name for s, name in symbols if s != "ramified")
        else:
            inertia = "G"
        decomposition = {0: "G", 1: split[0] if split else None, 3: "1"}[len(split)]
        expect(inertia in (decomposition, "1") or decomposition == "G", f"I not inside D at {v}")
        expect(not (decomposition == "G" and inertia == "1"), f"D/I not cyclic at {v}")
        return decomposition, inertia

    # -- other subcommands ---------------------------------------------------------

    def check_tables(self, spec: str, out: dict) -> None:
        family, p, _ = family_of(spec)
        p = 2 if family == "c2xc2" else p
        expect(out["group"] == spec and out["p"] == p, "header")
        table = transcribed_table(spec)
        expected = []
        for (row, col), value in table.items():
            if isinstance(value, tuple):
                expected += [(row, col, "even", value[0]), (row, col, "odd", value[1])]
            else:
                expected.append((row, col, None, value))
        got = [(c["row"], c["col"], c["parity"], c["value_ord_p"]) for c in out["cells"]]
        expect(sorted(got, key=repr) == sorted(expected, key=repr),
               f"cells of {spec} differ from the transcribed table")
        for c in out["cells"]:
            expect(c["oracle"] == "PASS" and c["realizations"] > 0,
                   f"cell {c['row']}|{c['col']} of {spec} not realized")
        odd_order = group_order(spec) % 2 == 1
        expect(out["nonsplit_p_part_trivial"] is (True if odd_order else None), "non-split p-part")
        expect(out["unreachable_observed"] == [] and out["all_pass"] is True, "all_pass")

    def check_relations_c2xc2(self, out: dict) -> None:
        """Each basis vector must be a Brauer relation of C2 x C2.

        Elements are pairs in F_2^2; the permutation character of G/H at g is
        [G:H] if g is in H and 0 otherwise, since G is abelian.
        """
        subgroups = {"1": {(0, 0)}, "C2a": {(0, 0), (0, 1)}, "C2b": {(0, 0), (1, 0)},
                     "C2c": {(0, 0), (1, 1)}, "G": {(0, 0), (0, 1), (1, 0), (1, 1)}}
        expect(out["group"] == "c2xc2" and out["classes"] == list(subgroups), "classes")
        # the lattice has rank (#classes of subgroups) - (#classes of cyclic subgroups)
        expect(out["rank"] == len(out["basis"]) == 1, "lattice rank")
        for b in out["basis"]:
            expect(b["verified"] is True and any(b["coeffs"].values()), "basis vector")
            for g in subgroups["G"]:
                total = sum(n * (4 // len(subgroups[name])) * (g in subgroups[name])
                            for name, n in b["coeffs"].items())
                expect(total == 0, f"basis vector is not a relation at {g}")
            two = sum(n * {1: 0, 2: 1, 4: 2}[len(subgroups[name])] for name, n in b["coeffs"].items())
            expect(b["norm"] == ({"2": two} if two else {}), "norm of a basis vector")

    def check_scan(self, rows: list, torsion_free: bool, out: dict) -> None:
        """Recompute the shortlist from the CSV rows alone (default filters)."""
        labels, skipped = [], []
        nonsplit = {}
        for r in sorted(rows, key=lambda r: natural_key(r["label"])):
            if not r["semistable"]:
                skipped.append(r["label"])
                continue
            c6 = invariants(r["ainvs"])["c6"]
            n = sum(1 for v in r["bad_primes"]
                    if self.multiplicative_kind(r["ainvs"], c6, v) == "nonsplit_mult")
            nonsplit[r["label"]] = n
            if (r["rank"] >= 1 and n == 0 and r["sha_an"] == 1
                    and (not torsion_free or r["torsion"] == 1)):
                labels.append(r["label"])
        expect(out["labels"] == labels, f"scan labels {out['labels']} != {labels}")
        expect([m["label"] for m in out["matches"]] == labels, "scan matches")
        for m in out["matches"]:
            expect(m["hypotheses"]["n_nonsplit"] == nonsplit[m["label"]], "scan non-split count")
        expect(out["skipped_nonsemistable"] == skipped and out["rejects"] == [], "scan skipped")
        expect(out["filters"]["torsion_order"] == (1 if torsion_free else None), "scan filters")

    def check_analyze(self, ainvs, out: dict) -> None:
        places = [(b["v"], b["kind"], b["m"]) for b in out["bad_places"]]
        red = self.check_curve(ainvs, out["minimal_model"], out["invariants"]["delta_min"], places)
        inv = invariants(out["minimal_model"])
        expect(out["model"] == list(ainvs), "model")
        expect(out["invariants"] == {"c4": inv["c4"], "c6": inv["c6"], "delta_min": inv["delta"],
                                     "delta_input": invariants(ainvs)["delta"]}, "invariants")
        for b in out["bad_places"]:
            kind, m = red[b["v"]]
            tamagawa = m if kind == "split_mult" else (2 if m % 2 == 0 else 1)
            expect(b["tamagawa"] == tamagawa, f"tamagawa number at {b['v']}")
        expect(out["semistable"] is True, "semistable")
        expect(out["n_nonsplit"] == sum(1 for k, _ in red.values() if k == "nonsplit_mult"), "n_nonsplit")
        expect(out["n_nonsplit_even_ord"] == sum(1 for k, m in red.values()
                                                 if k == "nonsplit_mult" and m % 2 == 0), "n_even")
