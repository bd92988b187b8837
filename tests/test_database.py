import json
import math
from fractions import Fraction

import pytest

from selgrowth.database import (
    IngestError,
    ScanFilters,
    ingest,
    natural_label_key,
    scan,
)
from selgrowth.curves import make_profile
from selgrowth.groups import Family

EXPECTED_LIST = ["91b1", "91b2", "91b3", "123a1", "123a2", "141a1", "142a1", "155a1"]
TORSION_FREE = ["91b3", "123a2", "141a1", "142a1"]


def write_csv(tmp_path, body):
    path = tmp_path / "curves.csv"
    path.write_text("label,a1,a2,a3,a4,a6,rank,torsion,sha_an\n" + body)
    return path


# -- ingest ------------------------------------------------------------------------


def test_ingest_fixture_clean(fixture_records):
    assert len(fixture_records) == 24
    by_label = {r.label: r for r in fixture_records}
    r65 = by_label["65a1"]
    assert (r65.a1, r65.a2, r65.a3, r65.a4, r65.a6) == (1, 0, 0, -1, 0)
    assert r65.rank == 1 and r65.torsion == 2 and r65.sha_an == Fraction(1)


def test_ingest_unknown_sha(tmp_path):
    path = write_csv(tmp_path, "65a1,1,0,0,-1,0,1,2,\n")
    result = ingest(path)
    assert result.records[0].sha_an is None
    assert not result.rejects


def test_ingest_rejects_bad_rows(tmp_path):
    path = write_csv(
        tmp_path,
        "65a1,1,0,0,-1,0,1,2,1\n"
        "oops,1,x,0,-1,0,1,1,1\n"         # non-integer coefficient
        "short,1,0,0,-1,0,1,1\n"          # wrong arity
        "sing,0,0,0,0,0,0,1,1\n",         # singular model
    )
    result = ingest(path)
    assert [r.label for r in result.records] == ["65a1"]
    assert [line for line, _ in result.rejects] == [3, 4, 5]


def test_ingest_duplicate_label_raises(tmp_path):
    path = write_csv(tmp_path, "65a1,1,0,0,-1,0,1,2,1\n65a1,1,0,0,-1,0,1,2,1\n")
    with pytest.raises(IngestError) as err:
        ingest(path)
    assert "line 3" in str(err.value)


def test_ingest_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,a1\n65a1,1\n")
    with pytest.raises(IngestError):
        ingest(path)


def test_natural_label_order():
    labels = ["123a2", "91b10", "91b2", "155a1", "91b1"]
    assert sorted(labels, key=natural_label_key) == [
        "91b1", "91b2", "91b10", "123a2", "155a1",
    ]


# -- scan --------------------------------------------------------------------------


def test_label_conductor_is_the_bad_prime_product_exactly_when_semistable(fixture_records):
    # a semistable curve has conductor rad(delta_min); any additive prime
    # enters the conductor squared or more
    additive = []
    for rec in fixture_records:
        profile = make_profile(rec.model(), rank=rec.rank, torsion_order=rec.torsion, label=rec.label)
        radical = math.prod(rd.v for rd in profile.bad_places)
        conductor = natural_label_key(rec.label)[0]
        assert (conductor == radical) == profile.is_semistable(), rec.label
        if not profile.is_semistable():
            additive.append(rec.label)
    assert additive == ["27a1"]


def test_scan_reproduces_expected_list(fixture_records):
    result = scan(fixture_records)
    assert [e.label for e in result.matches] == EXPECTED_LIST
    assert result.skipped_nonsemistable == ["27a1"]


def test_scan_torsion_free_sublist(fixture_records):
    result = scan(fixture_records, filters=ScanFilters(torsion_order=1))
    assert [e.label for e in result.matches] == TORSION_FREE


def test_scan_with_specific_case(fixture_records):
    # case (a) tolerates non-split places of odd discriminant valuation:
    # 65a1 (two odd-ord non-split places) joins once max_nonsplit allows it
    result = scan(
        fixture_records, Family.parse("c2xc2"),
        filters=ScanFilters(max_nonsplit=2),
    )
    labels = [e.label for e in result.matches]
    assert "65a1" in labels
    assert set(EXPECTED_LIST) <= set(labels)


def test_scan_is_deterministic(fixture_records):
    a = scan(fixture_records)
    b = scan(list(reversed(fixture_records)))
    assert [e.label for e in a.matches] == [e.label for e in b.matches]
    assert json.dumps([e.as_json() for e in a.matches]) == json.dumps(
        [e.as_json() for e in b.matches]
    )


def test_scan_empty():
    result = scan([])
    assert result.matches == [] and result.skipped_nonsemistable == []
