"""Tests of the benchmark's own parts: each checker rejects a tampered output.

Run from the repository root: python3 -m pytest bench
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

import checkers
import inputs
import workloads

sys.path.insert(0, str(workloads.SRC))

import selgrowth  # noqa: E402
import selgrowth.cli  # noqa: E402

CHECKER = checkers.Checker()


def cli_json(capsys, *args):
    assert selgrowth.cli.main(list(args)) == 0
    return json.loads(capsys.readouterr().out)


def mq_request():
    return {"ainvs": [1, 0, 0, -1, 0], "rank": 1, "torsion": 2, "sha_trivial": [2],
            "label": "65a1", "field": [3, 5]}


def abstract_request():
    return {"spec": "cpxcp:13", "p": 13, "ainvs": [1, 0, 0, -1, 0], "rank": 1, "torsion": 2,
            "sha_trivial": [13], "label": "65a1", "overrides": {5: ("G", "C13b"), 13: ("C13c", "C13c")}}


def certificate(req):
    fn = workloads.certify_abstract if "spec" in req else workloads.certify_mq
    return json.loads(fn(selgrowth, req))


def bump(path):
    """A tamper function that adds 1 to the integer at path inside a document."""
    def tamper(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += 1
    return tamper


CERT_TAMPERS = {
    "m of a place": bump(["places", 0, "m"]),
    "ord_p of a place quotient": bump(["places", 0, "quotient", "2"]),
    "tamagawa valuation": bump(["ord_p", "tamagawa_quotient"]),
    "sha valuation": bump(["ord_p", "sha_quotient"]),
    "norm exponent": bump(["relation", "norm", "2"]),
    "regulator exponent": bump(["regulator_quotient", "2"]),
    "relation coefficient": bump(["relation", "coeffs", "G"]),
    "model coefficient": bump(["curve", "model", 4]),
}


@pytest.mark.parametrize("tamper", CERT_TAMPERS.values(), ids=list(CERT_TAMPERS))
def test_mq_certificate_checker(tamper):
    req = mq_request()
    cert = certificate(req)
    CHECKER.check_certificate(req, cert)
    bad = copy.deepcopy(cert)
    tamper(bad)
    with pytest.raises(checkers.CheckError):
        checkers.Checker().check_certificate(req, bad)


@pytest.mark.parametrize("path", [["places", 1, "quotient", "13"], ["ord_p", "rhs"],
                                  ["relation", "norm", "13"], ["places", 0, "m"]])
def test_abstract_certificate_checker(path):
    req = abstract_request()
    cert = certificate(req)
    CHECKER.check_certificate(req, cert)
    bad = copy.deepcopy(cert)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = node.get(path[-1], 0) + 1
    with pytest.raises(checkers.CheckError):
        checkers.Checker().check_certificate(req, bad)


def test_abstract_checker_rejects_another_local_class():
    req = abstract_request()
    cert = certificate(req)
    cert["places"][0]["I"] = "C13a"
    with pytest.raises(checkers.CheckError):
        CHECKER.check_certificate(req, cert)


@pytest.mark.parametrize("spec", ["c2xc2", "d:5", "cpxcp:3", "sd:7:3"])
def test_tables_checker(capsys, spec):
    out = cli_json(capsys, "tables", spec)
    CHECKER.check_tables(spec, out)
    bad = copy.deepcopy(out)
    bad["cells"][-1]["value_ord_p"] += 1
    with pytest.raises(checkers.CheckError):
        CHECKER.check_tables(spec, bad)


def test_relations_checker(capsys):
    out = cli_json(capsys, "relations", "c2xc2")
    CHECKER.check_relations_c2xc2(out)
    for tamper in (bump(["basis", 0, "coeffs", "G"]), bump(["basis", 0, "norm", "2"])):
        bad = copy.deepcopy(out)
        tamper(bad)
        with pytest.raises(checkers.CheckError):
            CHECKER.check_relations_c2xc2(bad)


@pytest.mark.parametrize("torsion_free", [False, True])
def test_scan_checker(capsys, torsion_free):
    args = ["scan", "--data", str(workloads.DATA)] + (["--torsion-free"] if torsion_free else [])
    out = cli_json(capsys, *args)
    rows = inputs.read_fixture(workloads.DATA)
    CHECKER.check_scan(rows, torsion_free, out)
    bad = copy.deepcopy(out)
    bump(["matches", 0, "hypotheses", "n_nonsplit"])(bad)
    with pytest.raises(checkers.CheckError):
        CHECKER.check_scan(rows, torsion_free, bad)
    bad = copy.deepcopy(out)
    bad["labels"].pop()
    with pytest.raises(checkers.CheckError):
        CHECKER.check_scan(rows, torsion_free, bad)


def test_analyze_checker(capsys):
    ainvs = [0, 1, 1, -117, -1245]  # 91b3
    out = cli_json(capsys, "analyze", "--curve", ",".join(map(str, ainvs)), "--rank", "1")
    CHECKER.check_analyze(ainvs, out)
    for tamper in (bump(["bad_places", 0, "m"]), bump(["bad_places", 1, "tamagawa"]),
                   bump(["invariants", "delta_min"])):
        bad = copy.deepcopy(out)
        tamper(bad)
        with pytest.raises(checkers.CheckError):
            checkers.Checker().check_analyze(ainvs, bad)


def test_miller_rabin_against_trial_division():
    for n in range(10_000):
        assert checkers.is_prime(n) == (n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1)))
    # strong pseudoprimes to several small bases
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321):
        assert not checkers.is_prime(n)
    assert checkers.is_prime(2 ** 61 - 1)


def test_point_counts_agree_with_the_program_at_odd_primes():
    for rec in inputs.semistable_fixture(workloads.DATA):
        c6 = checkers.invariants(rec["ainvs"])["c6"]
        for v in rec["bad_primes"]:
            if v == 2:
                continue
            model = selgrowth.WeierstrassModel.from_ainvs(rec["ainvs"])
            expected = selgrowth.ap_oracle(model, v) + "_mult"
            assert CHECKER.multiplicative_kind(rec["ainvs"], c6, v) == expected


def test_inputs_depend_only_on_the_seed():
    assert inputs.mq_round(4, workloads.DATA) == inputs.mq_round(4, workloads.DATA)
    assert inputs.mq_round(4, workloads.DATA) != inputs.mq_round(5, workloads.DATA)
    specs = inputs.family_specs(1)
    assert len(specs) == len(set(specs)) == 39
    assert sorted(specs) == sorted(inputs.family_specs(2))
    labels = {r["label"] for r in inputs.semistable_fixture(workloads.DATA)}
    assert len(labels) == 23 and "27a1" not in labels


def test_traced_certificates_are_byte_identical():
    """Replaying requests under the tracer gives the same certificate JSON."""
    script = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import inputs, tracing, workloads, selgrowth
reqs = inputs.mq_round(7, workloads.DATA)[:40]
rounds = inputs.abstract_rounds(7, workloads.DATA)[:1]
def outputs():
    out = [workloads.certify_mq(selgrowth, r) for r in reqs]
    return out + [workloads.certify_abstract(selgrowth, r) for rnd in rounds for r in rnd]
plain = outputs()
tracer = tracing.Tracer()
tracing.install(tracer)
print(json.dumps({"same": outputs() == plain, "spans": len(tracer.spans)}))
"""
    here = str(workloads.ROOT / "bench")
    out = subprocess.run([sys.executable, "-c", script, here, str(workloads.SRC)],
                         capture_output=True, text=True, timeout=120, check=True).stdout
    doc = json.loads(out)
    assert doc["same"] and doc["spans"] > 0
