"""Curve-database ingestion and hypothesis scanning.

The on-disk format is a CSV with header label,a1,a2,a3,a4,a6,rank,torsion,sha_an.
Rank, torsion and analytic Sha are ingested data, never computed; the scan
combines them with the computed reduction types to shortlist curves meeting
the growth-theorem hypotheses.
"""

from __future__ import annotations

import csv
import re
from typing import TYPE_CHECKING, NamedTuple

from .curves import SingularModelError, WeierstrassModel, make_profile
from .groups import Family
from .quotients import hypothesis_check

if TYPE_CHECKING:
    from fractions import Fraction

HEADER = ["label", "a1", "a2", "a3", "a4", "a6", "rank", "torsion", "sha_an"]

_LABEL_RE = re.compile(r"^(\d+)([a-z]+)(\d+)$")


class IngestError(ValueError):
    pass


class CurveRecord(NamedTuple):
    label: str
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    rank: int
    torsion: int
    sha_an: Fraction | None  # None means unknown

    def model(self) -> WeierstrassModel:
        return WeierstrassModel(self.a1, self.a2, self.a3, self.a4, self.a6)


class IngestResult(NamedTuple):
    records: list
    rejects: list | tuple = ()  # (line_no, message)


def natural_label_key(label: str):
    """Sort key for Cremona-style labels: conductor, class letters, number."""
    m = _LABEL_RE.match(label)
    if not m:
        return (float("inf"), label, 0)
    return (int(m.group(1)), (len(m.group(2)), m.group(2)), int(m.group(3)))


def _parse_sha(text: str) -> Fraction | None:
    text = text.strip()
    if not text or text.lower() == "unknown":
        return None
    from fractions import Fraction  # imported here: it loads decimal, which only data files need

    return Fraction(text)


def ingest(path) -> IngestResult:
    """Parse a curve CSV; malformed rows are reported, structural problems raise."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, expected header {','.join(HEADER)}")
        if [h.strip() for h in header] != HEADER:
            raise IngestError(
                f"{path}: bad header {','.join(header)!r}, expected {','.join(HEADER)}"
            )
        records = []
        rejects = []
        seen = {}
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(HEADER):
                rejects.append((line_no, f"expected {len(HEADER)} fields, got {len(row)}"))
                continue
            label = row[0].strip()
            if not label:
                rejects.append((line_no, "empty label"))
                continue
            if label in seen:
                raise IngestError(
                    f"{path}: duplicate label {label!r} on line {line_no} "
                    f"(first seen on line {seen[label]})"
                )
            try:
                ints = [int(c.strip()) for c in row[1:8]]
                sha = _parse_sha(row[8])
            except ValueError as exc:
                rejects.append((line_no, f"bad field: {exc}"))
                continue
            a1, a2, a3, a4, a6, rank, torsion = ints
            if rank < 0 or torsion < 1:
                rejects.append((line_no, f"bad rank/torsion {rank}/{torsion}"))
                continue
            try:
                WeierstrassModel(a1, a2, a3, a4, a6)
            except SingularModelError as exc:
                rejects.append((line_no, str(exc)))
                continue
            seen[label] = line_no
            records.append(
                CurveRecord(label, a1, a2, a3, a4, a6, rank, torsion, sha)
            )
    return IngestResult(records=records, rejects=rejects)


class ScanFilters(NamedTuple):
    min_rank: int = 1
    require_semistable: bool = True
    max_nonsplit: int = 0
    require_sha_an_one: bool = True
    torsion_order: int | None = None  # exact match when set


class ScanEntry(NamedTuple):
    label: str
    report: object  # HypothesisReport

    def as_json(self) -> dict:
        return {"label": self.label, "hypotheses": self.report.as_json()}


class ScanResult(NamedTuple):
    matches: list  # ScanEntry, sorted by label
    skipped_nonsemistable: list  # labels


def scan(records, family: Family | None = None,
         filters: ScanFilters = ScanFilters()) -> ScanResult:
    """Shortlist records meeting the filters; pure function of the input list.

    Without a family the scan demands the hypotheses of every theorem case,
    which for the default filters reduces to having no non-split places.
    With a family only its case's inequality is enforced on top of the
    filters.
    """
    matches = []
    skipped = []
    for rec in sorted(records, key=lambda r: natural_label_key(r.label)):
        profile = make_profile(
            rec.model(), rank=rec.rank, torsion_order=rec.torsion, label=rec.label
        )
        report = hypothesis_check(profile, family)
        if not profile.is_semistable():
            skipped.append(rec.label)
            if filters.require_semistable:
                continue
        if rec.rank < filters.min_rank:
            continue
        if report.n_nonsplit > filters.max_nonsplit:
            continue
        if filters.require_sha_an_one and rec.sha_an != 1:
            continue
        if filters.torsion_order is not None and rec.torsion != filters.torsion_order:
            continue
        if family is None:
            if not (report.case_a and report.case_b and report.case_c):
                continue
        elif not report.hypotheses_pass:
            continue
        matches.append(ScanEntry(rec.label, report))
    return ScanResult(matches=matches, skipped_nonsemistable=skipped)
