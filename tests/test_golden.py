"""Golden outputs: the bytes the CLI and the benchmark's certificate requests
print, pinned by sha256.

Each output set of OUTPUT_SETS is recomputed in process and compared with
tests/golden/digests.json. The file holds, per set, the sha256 of all its
outputs in order and, to name the first output that changed, the first 16
hex digits of each output's own sha256. A CLI output is its exit code,
stdout and stderr. The calls run from the repository root, so the paths
they print are relative and the bytes do not depend on the checkout.

An intended output change rewrites the file, and CHANGES.md names it:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import selgrowth
from selgrowth import cli

from oracle import REPO, bench_module, family_specs

DIGESTS = REPO / "tests" / "golden" / "digests.json"
DATA = "data/curves.csv"  # relative to the repository root, where the calls run

SCAN_FILTERS = ([], ["--torsion-free"], ["--group", "d:3", "--max-nonsplit", "3"],
                ["--any-sha", "--min-rank", "0", "--max-nonsplit", "5"])

_CURVE = ["--curve", "1,0,0,-1,0", "--rank", "1"]  # 65a1, bad at 5 and 13
CLI_CALLS = [
    ["analyze", *_CURVE],
    ["analyze", *_CURVE, "--torsion", "2", "--format", "pretty"],
    ["analyze", "--label", "11a1", "--data", DATA],
    ["certify", *_CURVE, "--torsion", "2", "--field", "mq:3,5", "-p", "2"],
    ["certify", *_CURVE, "--field", "mq:3,5", "-p", "2", "--sha-trivial", "2", "--format", "pretty"],
    ["certify", *_CURVE, "--field", "mq:3,5", "-p", "2", "--local-class", "5:D=C2a,I=1"],
    ["certify", "--curve", "1,0,1,-1,0", "--rank", "0", "--field", "mq:3,5", "-p", "2",
     "--sha-trivial", "2"],
    ["certify", "--label", "65a1", "--data", DATA, "--field", "mq:-1,13", "-p", "2"],
    ["certify", *_CURVE, "--group", "d:5", "-p", "5", "--local-class", "5:D=G,I=G",
     "--local-class", "13:D=C2,I=1"],
    ["certify", *_CURVE, "--group", "sd:7:3", "-p", "7", "--local-class", "5:D=C3,I=1",
     "--local-class", "13:D=G,I=C7"],
    ["certify", "--label", "91b1", "--data", DATA, "--sha-trivial", "3",
     "--field", "poly:1,0,61,-16,1603,1168,16831", "--group", "d:3", "-p", "3"],
    # refusals: a ramified prime, the ambiguous {2,2} pattern, additive reduction
    ["certify", *_CURVE, "--field", "poly:1,0,-16,0,4", "--group", "c2xc2", "-p", "2"],
    ["certify", *_CURVE, "--field", "poly:1,0,-10,0,1", "--group", "c2xc2", "-p", "2"],
    ["certify", "--curve", "0,0,0,0,1", "--rank", "0", "--field", "mq:3,5", "-p", "2"],
    # usage errors: bad specs, missing or unreadable data, an unknown label
    ["relations", "d:4"],
    ["tables", "d:111"],
    ["tables", "sd:101:3"],
    ["scan"],
    ["scan", "--data", "data"],
    ["scan", "--data", "data/missing.csv"],
    ["certify", "--label", "999zz9", "--data", DATA, "--field", "mq:3,5", "-p", "2"],
]


def _cli(argv) -> tuple:
    """(name, output) of one CLI call: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return " ".join(argv), f"exit {code}\n{out.getvalue()}\n--- stderr\n{err.getvalue()}"


def _certificates(workload: str, seed: int, count: int) -> list:
    """The first ``count`` certificates of a benchmark workload, as it serializes them."""
    workloads = bench_module("workloads")
    if workload == "certify_mq":
        requests = workloads.make_inputs(workload, seed)[0]
    else:
        requests = [req for rnd in workloads.make_inputs(workload, seed) for req in rnd]
    run = getattr(workloads, workload)
    return [(f"{workload} seed {seed} #{i}", run(selgrowth, req)) for i, req in enumerate(requests[:count])]


OUTPUT_SETS = {
    "tables": lambda: [_cli(["tables", spec]) for spec in family_specs(200)],
    "tables pretty": lambda: [_cli(["tables", spec, "--format", "pretty"]) for spec in family_specs(200)],
    "relations": lambda: [_cli(["relations", spec]) for spec in family_specs(200)],
    "certify_mq seed 7": lambda: _certificates("certify_mq", 7, 500),
    "certify_mq seed 8": lambda: _certificates("certify_mq", 8, 500),
    "certify_abstract seed 7": lambda: _certificates("certify_abstract", 7, 200),
    "certify_abstract seed 8": lambda: _certificates("certify_abstract", 8, 200),
    "scan": lambda: [_cli(["scan", "--data", DATA, *extra]) for extra in SCAN_FILTERS],
    "cli": lambda: [_cli(argv) for argv in CLI_CALLS],
}


def digests(outputs) -> dict:
    """The set's sha256 over every (name, output), and each output's 16-digit prefix."""
    whole = hashlib.sha256()
    prefixes = []
    for name, text in outputs:
        data = text.encode()
        whole.update(b"%s\0%d\0%s" % (name.encode(), len(data), data))
        prefixes.append(hashlib.sha256(data).hexdigest()[:16])
    return {"sha256": whole.hexdigest(), "outputs": prefixes}


def test_outputs_match_the_golden_digests(monkeypatch):
    monkeypatch.chdir(REPO)
    monkeypatch.delenv("SGL_DATA", raising=False)
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert list(golden) == list(OUTPUT_SETS)
    for set_name, make in OUTPUT_SETS.items():
        outputs = make()
        got, want = digests(outputs), golden[set_name]
        if got["sha256"] == want["sha256"]:
            continue
        changed = [name for (name, _), a, b in zip(outputs, got["outputs"], want["outputs"]) if a != b]
        assert changed or len(outputs) != len(want["outputs"]), f"{set_name}: set digest differs"
        raise AssertionError(
            f"{set_name}: first changed output {changed[0] if changed else '(none)'!r}; "
            f"{len(outputs)} outputs against {len(want['outputs'])} golden"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    os.chdir(REPO)
    os.environ.pop("SGL_DATA", None)
    DIGESTS.parent.mkdir(exist_ok=True)
    golden = {set_name: digests(make()) for set_name, make in OUTPUT_SETS.items()}
    DIGESTS.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    for set_name, entry in golden.items():
        print(f"{entry['sha256']}  {set_name} ({len(entry['outputs'])} outputs)")
