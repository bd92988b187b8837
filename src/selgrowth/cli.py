"""Command line surface: analyze, relations, tables, certify, scan.

Output is deterministic JSON on stdout (or --format pretty for humans).
Exit codes: 0 success, 1 usage error or stdout closed before the output was
written, 2 computation refused (for example a non-semistable curve, a prime
whose local class cannot be determined, or a discriminant that cannot be
factored within the work budget) or, for tables, a table cell that the
count of places does not reproduce.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

# Only the group layer and quotients load with this module: relations, tables
# and certify run them. A subcommand imports curves, splitting or database
# where it first needs them, so a cold call compiles only the layers it runs.
from .brauer import norm_constant, relation_lattice, verify_relation
from .groups import Family, parse_group_spec
from .quotients import certify, oracle_table
from .records import Refused


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(obj, pretty: bool) -> str:
    if pretty:
        return json.dumps(obj, indent=2, sort_keys=True)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_curve(text: str):
    from .curves import WeierstrassModel

    parts = [p for p in text.replace(" ", ",").split(",") if p]
    if len(parts) != 5:
        raise UsageError(f"--curve needs five integers a1,a2,a3,a4,a6, got {text!r}")
    try:
        return WeierstrassModel.from_ainvs(parts)
    except ValueError as exc:
        raise UsageError(f"--curve: {exc}")


def _parse_local_classes(items) -> dict:
    """--local-class v:D=G,I=C2a (an optional leading 'v=' is tolerated)."""
    overrides = {}
    for item in items or []:
        head, _, body = item.partition(":")
        if head.startswith("v="):
            head = head[2:]
        try:
            v = int(head)
        except ValueError:
            raise UsageError(f"--local-class must start with the prime: {item!r}")
        pieces = [piece.partition("=") for piece in body.split(",")]
        names = {key.strip().upper(): val.strip() for key, _, val in pieces}
        if len(pieces) != 2 or sorted(names) != ["D", "I"]:
            raise UsageError(f"--local-class needs D=... and I=..., each once and nothing else: {item!r}")
        if v in overrides:
            raise UsageError(f"--local-class names the prime {v} twice")
        overrides[v] = (names["D"], names["I"])
    return overrides


def _field_from_args(args):
    from .splitting import FieldSpec

    text = (args.field or "").strip()
    if text.startswith("mq:"):
        if args.group:
            raise UsageError("--group does not apply to --field mq:..., whose group is c2xc2")
        parts = text[3:].split(",")
        if len(parts) != 2:
            raise UsageError(f"--field mq needs two discriminants, got {text!r}")
        return FieldSpec.multiquadratic(int(parts[0]), int(parts[1]))
    if text.startswith("poly:"):
        if not args.group:
            raise UsageError("--field poly:... also requires --group")
        coeffs = tuple(int(c) for c in text[5:].split(","))
        return FieldSpec.polynomial(coeffs, parse_group_spec(args.group))
    if not text:
        if not args.group:
            raise UsageError("pass --field mq:d1,d2, --field poly:..., or --group for an abstract field")
        return FieldSpec.abstract(parse_group_spec(args.group))
    raise UsageError(f"unknown field spec {text!r}")


def _ingest(args, what: str) -> tuple:
    """(path, ingested file) of --data, or of SGL_DATA without it; ``what`` needs it."""
    from .database import ingest

    path = args.data or os.environ.get("SGL_DATA")
    if not path:
        raise UsageError(f"{what} needs --data or the SGL_DATA environment variable")
    try:
        return path, ingest(path)
    except OSError as exc:
        raise UsageError(f"cannot read data file {path}: {exc.strerror or exc}") from None


# -- subcommands ----------------------------------------------------------------


def _cmd_relations(args) -> dict:
    G = parse_group_spec(args.group_spec)
    basis = relation_lattice(G)
    return {
        "schema": 1,
        "group": str(G.family),
        "classes": G.class_names,
        "basis": [
            {
                "coeffs": b.named_coeffs(),
                "norm": norm_constant(b).as_json(),
                "verified": verify_relation(b),
            }
            for b in basis
        ],
        "rank": len(basis),
    }


def _cmd_tables(args) -> dict:
    return oracle_table(parse_group_spec(args.group_spec))


def _tables_pretty(out) -> str:
    lines = [f"group {out['group']}  (p = {out['p']})"]
    width = max(len(c["row"]) for c in out["cells"]) + 2
    for c in out["cells"]:
        parity = f" [{c['parity']}]" if c["parity"] else ""
        val = out["p"] ** c["value_ord_p"] if c["value_ord_p"] >= 0 else f"1/{out['p'] ** -c['value_ord_p']}"
        lines.append(
            f"  {c['row']:<{width}} x {c['col']:<22}{parity:>8}  value {val:>6}  "
            f"({c['realizations']} realizations)  {c['oracle']}"
        )
    lines.append("all cells PASS" if out["all_pass"] else "SOME CELLS FAIL")
    return "\n".join(lines)


def _curve_from_args(args) -> tuple:
    """(model as given, profile) from --label or from --curve, --rank and --torsion."""
    from .curves import make_profile

    if args.label:
        given = [f"--{name}" for name in ("curve", "rank", "torsion") if getattr(args, name) is not None]
        if given:
            raise UsageError(f"--label reads the curve, rank and torsion from the data file: drop {', '.join(given)}")
        # sha_an = 1 in the data file concerns Sha over Q only; the stronger
        # all-proper-subfields assumption stays an explicit --sha-trivial flag
        path, result = _ingest(args, "--label")
        rec = next((rec for rec in result.records if rec.label == args.label), None)
        if rec is None:
            raise UsageError(f"label {args.label!r} not found in {path}")
        model, rank, torsion, label = rec.model(), rec.rank, rec.torsion, rec.label
    else:
        if not args.curve:
            raise UsageError("pass --curve a1,a2,a3,a4,a6 or --label")
        if args.data is not None:
            raise UsageError("--curve takes the curve from the command line: drop --data or pass --label")
        model = _parse_curve(args.curve)
        if args.rank is None and args.command == "certify":
            raise UsageError("--rank is required with --curve (ranks are ingested, not computed)")
        rank = 0 if args.rank is None else args.rank  # analyze only: certify needs --rank
        torsion, label = 1 if args.torsion is None else args.torsion, None
    profile = make_profile(
        model, rank=rank, torsion_order=torsion,
        sha_p_trivial=getattr(args, "sha_trivial", None) or [], label=label,
    )
    return model, profile


def _cmd_analyze(args) -> dict:
    model, profile = _curve_from_args(args)
    semistable, n_nonsplit, n_even = profile.hypothesis_counts()
    inv = profile.model.invariants
    return {
        "schema": 1,
        "label": profile.label,
        "model": list(model.ainvs()),
        "minimal_model": list(profile.model.ainvs()),
        "invariants": {"c4": inv.c4, "c6": inv.c6, "delta_min": inv.delta,
                       "delta_input": model.invariants.delta},
        "bad_places": [
            {"v": rd.v, "kind": rd.kind, "m": rd.m, "tamagawa": rd.tamagawa}
            for rd in profile.bad_places
        ],
        "semistable": semistable,
        "n_nonsplit": n_nonsplit,
        "n_nonsplit_even_ord": n_even,
    }


def _cmd_certify(args) -> dict:
    _, profile = _curve_from_args(args)
    field = _field_from_args(args)
    overrides = _parse_local_classes(args.local_class)
    cert = certify(profile, field, args.p, overrides)
    return cert.as_json()


def _cmd_scan(args) -> dict:
    from .database import ScanFilters, scan

    _, result = _ingest(args, "scan")
    filters = ScanFilters(
        min_rank=args.min_rank,
        max_nonsplit=args.max_nonsplit,
        require_sha_an_one=not args.any_sha,
        torsion_order=1 if args.torsion_free else None,
    )
    family = None
    if args.group:
        family = Family.parse(args.group)
        if args.p is not None and args.p != family.p:
            raise UsageError(f"--group {family} pairs with p = {family.p}, not -p {args.p}")
    elif args.p is not None:
        raise UsageError("-p only makes sense together with --group")
    scanned = scan(result.records, family, filters=filters)
    return {
        "schema": 1,
        "filters": {**filters._asdict(), "group": None if family is None else str(family)},
        "matches": [e.as_json() for e in scanned.matches],
        "labels": [e.label for e in scanned.matches],
        "skipped_nonsemistable": scanned.skipped_nonsemistable,
        "rejects": [{"line": line, "reason": reason} for line, reason in result.rejects],
    }


def build_parser() -> _Parser:
    parser = _Parser(prog="selgrowth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["json", "pretty"], default="json")

    def add_curve(p):
        p.add_argument("--curve", help="a1,a2,a3,a4,a6")
        p.add_argument("--label", help="look the curve up in the data file")
        p.add_argument("--data", help="curve CSV (default: SGL_DATA)")
        p.add_argument("--rank", type=int)
        p.add_argument("--torsion", type=int)

    p_rel = sub.add_parser("relations", help="Brauer relation lattice of a group")
    p_rel.add_argument("group_spec", help="c2xc2 | d:<p> | cpxcp:<p> | sd:<p>:<q>")
    add_common(p_rel)

    p_tab = sub.add_parser("tables", help="reproduce the quotient tables with an oracle check")
    p_tab.add_argument("group_spec")
    add_common(p_tab)

    p_an = sub.add_parser("analyze", help="local reduction data of a curve")
    add_curve(p_an)
    add_common(p_an)

    p_cert = sub.add_parser("certify", help="emit a growth certificate")
    add_curve(p_cert)
    p_cert.add_argument("--sha-trivial", dest="sha_trivial", type=lambda s: [int(x) for x in s.split(",")],
                        help="primes p with Sha[p^inf] assumed trivial in all proper subfields")
    p_cert.add_argument("--field", help="mq:d1,d2 | poly:c_k,...,c_0 (degree-descending)")
    p_cert.add_argument("--group", help="group spec for poly/abstract fields")
    p_cert.add_argument("-p", dest="p", type=int, required=True)
    p_cert.add_argument("--local-class", action="append",
                        help="override, e.g. 5:D=G,I=C2a (repeatable)")
    add_common(p_cert)

    p_scan = sub.add_parser("scan", help="shortlist curves meeting the theorem hypotheses")
    p_scan.add_argument("--data", help="curve CSV (default: SGL_DATA)")
    p_scan.add_argument("--min-rank", type=int, default=1)
    p_scan.add_argument("--max-nonsplit", type=int, default=0)
    p_scan.add_argument("--torsion-free", action="store_true",
                        help="keep only curves with trivial torsion")
    p_scan.add_argument("--any-sha", action="store_true",
                        help="do not require sha_an = 1")
    p_scan.add_argument("--group", help="restrict to one theorem case")
    p_scan.add_argument("-p", dest="p", type=int)
    add_common(p_scan)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built on first use; parse_args leaves it unchanged."""
    return build_parser()


_COMMANDS = {
    "relations": _cmd_relations,
    "tables": _cmd_tables,
    "analyze": _cmd_analyze,
    "certify": _cmd_certify,
    "scan": _cmd_scan,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        out = _COMMANDS[args.command](args)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # UsageError, GroupError and the other input checks
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.format == "pretty" and args.command == "tables":
            print(_tables_pretty(out))
        else:
            print(_emit(out, pretty=args.format == "pretty"))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; keep the interpreter's exit flush quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if args.command == "tables" and not out["all_pass"]:
        print(f"check failed: the oracle does not reproduce the {out['group']} table", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
