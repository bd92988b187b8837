import contextlib
import io
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from selgrowth import cli
from selgrowth.arith import FactorizationBudgetError
from selgrowth.cli import UsageError, main
from selgrowth.curves import CurveCheckError
from selgrowth.groups import GroupError, parse_group_spec
from selgrowth.quotients import NonSemistableError
from selgrowth.records import Refused
from selgrowth.splitting import AmbiguousSplittingError, MissingLocalClassError

from oracle import DATA, REPO, data_curves

SRC = REPO / "src"

EXPECTED_LIST = ["91b1", "91b2", "91b3", "123a1", "123a2", "141a1", "142a1", "155a1"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_relations_c2xc2(capsys):
    doc = run_json(capsys, "relations", "c2xc2")
    assert doc["rank"] == 1
    assert doc["basis"][0]["norm"] == {"2": 1}
    assert doc["basis"][0]["coeffs"] == {
        "1": 1, "C2a": -1, "C2b": -1, "C2c": -1, "G": 2,
    }


def test_relations_deterministic(capsys):
    a = run(capsys, "relations", "d:5")
    b = run(capsys, "relations", "d:5")
    assert a == b


def test_tables_all_pass(capsys):
    for spec in ("d:5", "c2xc2", "cpxcp:3", "sd:7:3"):
        doc = run_json(capsys, "tables", spec)
        assert doc["all_pass"], spec
        assert all(c["oracle"] == "PASS" for c in doc["cells"])
        assert doc["unreachable_observed"] == []


def test_analyze(capsys):
    doc = run_json(capsys, "analyze", "--curve", "1,0,0,-1,0", "--rank", "1")
    assert doc["invariants"]["delta_min"] == 65
    assert doc["semistable"] is True
    assert {p["v"]: p["kind"] for p in doc["bad_places"]} == {
        5: "nonsplit_mult", 13: "nonsplit_mult",
    }


def test_certify_example2(capsys):
    doc = run_json(
        capsys,
        "certify", "--curve", "1,0,0,-1,0", "--rank", "1", "--sha-trivial", "2",
        "--torsion", "2", "--field", "mq:3,5", "-p", "2",
    )
    assert doc["ord_p"]["sha_quotient"] == 2
    assert doc["conditional_prediction"]["sha_p_primary_order"] == 4


@pytest.mark.parametrize("listed, bad", [
    ("2,-7", "-7"), ("4", "4"), ("3,1", "1"),
    # 4,300 digits with no prime factor below 1000, so that is_prime would run BPSW
    # on it for seconds: refused by its length, which the message gives for its digits
    pytest.param(str(10 ** 4299 + 9), "a 14281-bit number, longer than the 4096 bits checked", id="4300-digits"),
])
def test_sha_trivial_lists_only_primes(capsys, listed, bad):
    start = time.process_time()
    code, out, err = run(
        capsys,
        "certify", "--curve", "1,0,0,-1,0", "--rank", "1", "--sha-trivial", listed,
        "--field", "mq:3,5", "-p", "2",
    )
    assert time.process_time() - start < 0.5
    assert (code, out) == (1, "")
    assert err == f"usage error: Sha[p^inf] can be assumed trivial only at primes p, got {bad}\n"


LONG_ITEM = "7" * 5000  # past the 4,300 digits that int() reads from a string


@pytest.mark.parametrize("extra, message", [
    (("--sha-trivial", "2,x", "--field", "mq:3,5"), "--sha-trivial takes comma-separated integers, got '2,x'"),
    (("--sha-trivial", "", "--field", "mq:3,5"), "--sha-trivial takes comma-separated integers, got ''"),
    (("--field", "mq:3,x"), "--field mq takes comma-separated integers, got '3,x'"),
    (("--field", "poly:1,x", "--group", "d:3"), "--field poly takes comma-separated integers, got '1,x'"),
    # an over-long item: its length, not its text
    (("--field", f"mq:3,{LONG_ITEM}"), "--field mq takes integers of at most 4300 digits, got 5000 digits in item 2"),
    (("--field", f"poly:1,0,{LONG_ITEM}", "--group", "d:3"),
     "--field poly takes integers of at most 4300 digits, got 5000 digits in item 3"),
    (("--sha-trivial", LONG_ITEM, "--field", "mq:3,5"),
     "--sha-trivial takes integers of at most 4300 digits, got 5000 digits in item 1"),
    (("--sha-trivial", f"2,x{LONG_ITEM}", "--field", "mq:3,5"),
     "--sha-trivial takes integers of at most 4300 digits, got 5001 characters in item 2"),
])
def test_a_non_integer_list_names_its_option(capsys, extra, message):
    code, out, err = run(capsys, "certify", "--curve", "1,0,0,-1,0", "--rank", "1", "-p", "2", *extra)
    assert (code, out, err) == (1, "", f"usage error: {message}\n")
    assert len(err.encode()) < 200


@pytest.mark.parametrize("extra, message", [
    (("--field", f"mq:3,5,{LONG_ITEM}"), "--field mq needs two discriminants, got an argument of 5007 characters"),
    (("--field", f"x{LONG_ITEM}"), "unknown field spec an argument of 5001 characters"),
    (("--field", "mq:3,5", "--local-class", f"5:D={LONG_ITEM}"),
     "--local-class needs D=... and I=..., each once and nothing else: an argument of 5004 characters"),
    (("--field", "mq:3,5", "--local-class", f"{LONG_ITEM}:D=G,I=1"),
     "--local-class must start with the prime: an argument of 5008 characters"),
    (("--field", "mq:3,5", "--local-class", f"{LONG_ITEM[:4000]}:D=G,I=1",
      "--local-class", f"{LONG_ITEM[:4000]}:D=1,I=1"),
     "--local-class names a prime twice: an argument of 4008 characters"),
    # a short argument is still quoted whole
    (("--field", "mq:3,5,7"), "--field mq needs two discriminants, got 'mq:3,5,7'"),
    (("--field", "mq:3,5", "--local-class", "5:D=1,I=1", "--local-class", "v=5:D=G,I=C2a"),
     "--local-class names a prime twice: 'v=5:D=G,I=C2a'"),
])
def test_an_over_long_argument_is_named_by_its_length(capsys, extra, message):
    code, out, err = run(capsys, "certify", "--curve", "1,0,0,-1,0", "--rank", "1", "-p", "2", *extra)
    assert (code, out, err) == (1, "", f"usage error: {message}\n")
    assert len(err.encode()) < 200


def test_certify_with_local_class_override(capsys):
    doc = run_json(
        capsys,
        "certify", "--curve", "1,0,0,-1,0", "--rank", "1", "--torsion", "2",
        "--field", "mq:3,5", "-p", "2",
        "--local-class", "5:D=1,I=1", "--local-class", "13:D=1,I=1",
    )
    assert doc["ord_p"]["tamagawa_quotient"] == 0
    assert doc["ord_p"]["sha_quotient"] == 1


def test_certify_refuses_nonsemistable(capsys):
    code, out, err = run(
        capsys,
        "certify", "--curve", "0,0,1,0,-7", "--rank", "0", "--field", "mq:3,5",
        "-p", "2",
    )
    assert code == 2
    assert "additive" in err


def test_certify_abstract_field_needs_overrides(capsys):
    code, out, err = run(
        capsys,
        "certify", "--curve", "1,0,0,-1,0", "--rank", "1", "--group", "d:3", "-p", "3",
    )
    assert code == 2
    assert "local class" in err.lower() or "local-class" in err.lower()


def test_certify_wrong_prime_is_usage_error(capsys):
    code, out, err = run(
        capsys,
        "certify", "--curve", "1,0,0,-1,0", "--rank", "1", "--field", "mq:3,5",
        "-p", "3",
    )
    assert code == 1


def test_scan_cli(capsys, data_path):
    doc = run_json(capsys, "scan", "--data", str(data_path))
    assert doc["labels"] == EXPECTED_LIST
    doc = run_json(capsys, "scan", "--data", str(data_path), "--torsion-free")
    assert doc["labels"] == ["91b3", "123a2", "141a1", "142a1"]


def test_scan_env_var(capsys, data_path, monkeypatch):
    monkeypatch.setenv("SGL_DATA", str(data_path))
    doc = run_json(capsys, "scan")
    assert doc["labels"] == EXPECTED_LIST


def test_label_lookup(capsys, data_path):
    doc = run_json(
        capsys,
        "certify", "--label", "65a1", "--data", str(data_path),
        "--sha-trivial", "2", "--field", "mq:3,5", "-p", "2",
    )
    assert doc["curve"]["label"] == "65a1"
    assert doc["ord_p"]["sha_quotient"] == 2


def test_usage_errors_exit_1(capsys):
    code, out, err = run(capsys, "certify", "--curve", "1,0,0,-1,0", "-p", "2")
    assert code == 1 and "rank" in err
    code, out, err = run(capsys, "relations", "nonsense")
    assert code == 1
    code, out, err = run(capsys, "scan")
    assert code == 1 and "SGL_DATA" in err


def test_certificate_cli_round_trip(capsys, data_path):
    args = (
        "certify", "--label", "91b1", "--data", str(data_path),
        "--sha-trivial", "3", "--field", "poly:1,0,61,-16,1603,1168,16831",
        "--group", "d:3", "-p", "3",
    )
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
    doc = json.loads(first[1])
    assert doc["ord_p"]["sha_quotient"] == 1


def test_main_twice_in_one_process_matches_separate_processes(capsys, data_path):
    calls = [
        ["certify", "--label", "65a1", "--data", str(data_path), "--sha-trivial", "2",
         "--field", "mq:3,5", "-p", "2"],
        ["scan", "--data", str(data_path), "--torsion-free"],
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    separate = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "selgrowth", *argv], capture_output=True, text=True,
            env=env, timeout=120,
        )
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == separate
    assert [code for code, _, _ in in_process] == [0, 0]


def test_missing_data_file_is_usage_error(capsys, tmp_path):
    missing = str(tmp_path / "missing.csv")
    for argv in (
        ("scan", "--data", missing),
        ("certify", "--label", "65a1", "--data", missing, "--field", "mq:3,5", "-p", "2"),
        ("analyze", "--label", "65a1", "--data", missing),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and missing in err
        assert err.count("\n") == 1


def test_local_class_overrides_that_would_be_dropped_are_refused(capsys):
    base = ("certify", "--curve", "1,0,0,-1,0", "--rank", "1", "--torsion", "2",
            "--field", "mq:3,5", "-p", "2")
    for extra, prime in (
        (("--local-class", "7:D=G,I=G"), "7"),  # 65a1 is bad at 5 and 13 only
        (("--local-class", "5:D=1,I=1", "--local-class", "v=5:D=G,I=C2a"), "5"),
    ):
        code, out, err = run(capsys, *base, *extra)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert prime in err


def assert_one_usage_error(result, *named):
    code, out, err = result
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert all(words in err for words in named)


def test_malformed_data_files_give_a_reject_or_one_usage_error(capsys, tmp_path):
    header = "label,a1,a2,a3,a4,a6,rank,torsion,sha_an\n"
    zero = tmp_path / "zero.csv"
    zero.write_text(header + "65a1,1,0,0,-1,0,1,2,1/0\n")
    doc = run_json(capsys, "scan", "--data", str(zero))
    assert doc["rejects"] == [{"line": 2, "reason": "bad field: Fraction(1, 0)"}]
    huge = tmp_path / "huge.csv"
    huge.write_text(header + "65a1,1,0,0,-1,0,1,2," + "1" * 200_000 + "\n")
    for argv in (("scan", "--data", str(huge)),
                 ("certify", "--label", "65a1", "--data", str(huge), "--field", "mq:3,5", "-p", "2")):
        assert_one_usage_error(run(capsys, *argv), f"{huge}: line 2: field larger than field limit")


def test_local_class_with_unknown_or_repeated_keys_is_refused(capsys):
    base = ("certify", "--curve", "1,0,0,-1,0", "--rank", "1", "--group", "d:5", "-p", "5",
            "--local-class", "13:D=G,I=G", "--local-class")
    for item in ("5:D=G,I=C2a,X=1", "5:D=G,I=C2a,I=C2b", "5:D=G,D=G,I=C2a", "5:D=G,I=C2a,", "5:D=G"):
        assert_one_usage_error(run(capsys, *base, item), repr(item))


def test_arguments_that_would_be_ignored_are_refused(capsys, data_path):
    curve = ("--curve", "1,0,0,-1,0", "--rank", "1")
    assert_one_usage_error(
        run(capsys, "certify", *curve, "--field", "mq:3,5", "--group", "d:5", "-p", "2"), "--group",
    )
    label = ("--label", "65a1", "--data", str(data_path))
    certify = ("--field", "mq:3,5", "-p", "2")
    for extra, named in (
        (("--curve", "1,0,0,-1,0"), "--curve"),
        (("--rank", "1"), "--rank"),
        (("--torsion", "2"), "--torsion"),
        (curve, "--curve, --rank"),
    ):
        assert_one_usage_error(run(capsys, "certify", *label, *extra, *certify), "--label", named)
        assert_one_usage_error(run(capsys, "analyze", *label, *extra), "--label", named)
    # without the extra arguments both calls succeed
    assert run(capsys, "certify", *label, *certify)[0] == 0
    assert run(capsys, "analyze", *label)[0] == 0


def test_data_with_curve_is_refused(capsys, tmp_path, data_path):
    # the curve comes from --curve, so a --data file would be dropped unread
    curve = ("--curve", "1,0,0,-1,0", "--rank", "1")
    certify = ("--field", "mq:3,5", "-p", "2")
    for data in (str(tmp_path / "nonexistent.csv"), str(data_path)):
        assert_one_usage_error(run(capsys, "certify", *curve, "--data", data, *certify), "--curve", "--data")
        assert_one_usage_error(run(capsys, "analyze", *curve, "--data", data), "--curve", "--data")
    assert run(capsys, "certify", *curve, *certify)[0] == 0
    assert run(capsys, "analyze", *curve)[0] == 0


def test_invalid_local_class_pairs_are_usage_errors(capsys):
    # 65a1 is bad at 5 and 13; the override at 13 is valid throughout
    base = ("certify", "--curve", "1,0,0,-1,0", "--rank", "1", "--group", "d:5", "-p", "5",
            "--local-class", "13:D=G,I=G", "--local-class")
    for d_name, i_name, named in (
        ("C4", "1", ("'C4'",)),  # no such class in d:5
        ("C2", "C5", ("(C2, C5)",)),  # I outside D
        ("G", "C2", ("(G, C2)",)),  # I not normal in D
        ("G", "1", ("(G, 1)",)),  # D/I not cyclic
    ):
        code, out, err = run(capsys, *base, f"5:D={d_name},I={i_name}")
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "Traceback" not in err and all(words in err for words in named)


def _selgrowth(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "selgrowth", *argv], env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120, **kwargs,
    )


def test_closed_stdout_exits_1_without_traceback():
    argv = ("relations", "d:97", "--format", "pretty")
    # the reader is gone before anything is written, as when `| head -1` has
    # already exited: every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _selgrowth(*argv, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")
    # the reader closes after the first line; whether the write still fails
    # depends on timing, but it never ends in a traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "selgrowth", *argv], env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) in (0, 1) and err == ""


def test_discriminant_with_two_large_prime_factors_is_refused():
    # two primes of 25 digits: squarefreeness of d2 needs its factorization,
    # which the Pollard-Brent budget refuses instead of running for hours
    d2 = (10 ** 24 + 7) * (3 * 10 ** 24 + 7)
    proc = _selgrowth(
        "certify", "--curve", "1,0,0,-1,0", "--rank", "1", "--field", f"mq:3,{d2}", "-p", "2",
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("refused: ") and proc.stderr.count("\n") == 1
    assert "49-digit" in proc.stderr


def test_polynomial_field_without_sympy_is_usage_error(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "sympy", None)  # import sympy now fails
    code, out, err = run(
        capsys, "certify", "--curve", "0,-1,1,-10,-20", "--rank", "0",
        "--field", "poly:1,0,61,-16,1603,1168,16831", "--group", "d:3", "-p", "3",
    )
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "'poly' extra" in err


def _assert_not_imported(modules, *python_flags):
    """None of ``modules`` is loaded by `import selgrowth.cli`, nor by a
    certify call over Q(sqrt 3, sqrt 5), in a fresh interpreter."""
    code = (
        "import sys\n"
        f"watched = {tuple(modules)!r}\n"
        "def loaded(): return [m for m in watched if m in sys.modules]\n"
        "if loaded(): raise SystemExit(f'loaded before selgrowth: {loaded()}')\n"
        "import selgrowth.cli\n"
        "if loaded(): raise SystemExit(f'import selgrowth.cli imported {loaded()}')\n"
        "status = selgrowth.cli.main(['certify', '--curve', '1,0,0,-1,0', '--rank', '1',\n"
        "                             '--torsion', '2', '--field', 'mq:3,5', '-p', '2'])\n"
        "if status != 0: raise SystemExit(f'certify exited {status}')\n"
        "if loaded(): raise SystemExit(f'certify imported {loaded()}')\n"
    )
    proc = subprocess.run(
        [sys.executable, *python_flags, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_sympy_stays_off_the_runtime_path():
    _assert_not_imported(["sympy"])


def test_record_machinery_stays_off_the_runtime_path():
    # records are NamedTuples and records.Record classes, so no dataclasses
    # (which brings inspect, ast, dis and tokenize); fractions (with decimal)
    # is loaded only to read sha_an from a data file. -S: no site hooks
    _assert_not_imported(["dataclasses", "inspect", "fractions", "decimal"], "-S")


_CALL_IN_FRESH_INTERPRETER = (
    "import json, runpy, sys\n"
    "argv = json.loads(sys.argv[1])\n"
    "code = None\n"
    "if argv is None:\n"
    "    import selgrowth\n"
    "else:\n"
    "    sys.argv = ['selgrowth', *argv]\n"
    "    try:\n"
    "        runpy.run_module('selgrowth', run_name='__main__')\n"
    "    except SystemExit as exc:\n"
    "        code = exc.code\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('selgrowth.'))\n"
    "sys.stderr.write(json.dumps([code, loaded]) + '\\n')\n"
)

_CERTIFY_MQ = ["certify", "--curve", "1,0,0,-1,0", "--rank", "1", "--torsion", "2", "--field", "mq:3,5", "-p", "2"]


# the modules that cli loads with itself, and so every subcommand
_CLI_LAYERS = {"arith", "brauer", "cli", "groups", "intlinalg", "quotients", "records"}


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (None, None),  # import selgrowth: no submodule at all
        (["tables", "c2xc2"], ["curves", "splitting", "database", "factor_kernel"]),
        (["relations", "c2xc2"], ["curves", "splitting", "database", "factor_kernel"]),
        (["analyze", "--curve", "1,0,0,-1,0", "--rank", "1"], ["splitting", "database", "factor_kernel"]),
        (_CERTIFY_MQ, ["database", "factor_kernel"]),
        (["scan", "--data", str(DATA)], ["splitting", "factor_kernel"]),
    ],
    ids=["import", "tables", "relations", "analyze", "certify-mq", "scan"],
)
def test_cold_call_loads_only_the_layers_it_runs(argv, unloaded):
    # each call as `python -m selgrowth` makes it, in a fresh interpreter:
    # a layer that a subcommand never runs is never compiled either. No
    # discriminant of data/curves.csv (65a1 among them) leaves a composite
    # cofactor after trial division, so the factoring kernel stays unloaded.
    # tables and relations load exactly cli's own layers
    proc = subprocess.run(
        [sys.executable, "-c", _CALL_IN_FRESH_INTERPRETER, json.dumps(argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    if argv is None:
        assert loaded == []
    else:
        assert code == 0, proc.stderr
        assert "selgrowth.cli" in loaded
        assert [m for m in loaded if m.split(".")[1] in unloaded] == []
        if argv[0] in ("tables", "relations"):
            assert {m.split(".")[1] for m in loaded} == _CLI_LAYERS


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (NonSemistableError, 2, "refused: "),
        (MissingLocalClassError, 2, "refused: "),
        (AmbiguousSplittingError, 2, "refused: "),
        (FactorizationBudgetError, 2, "refused: "),
        (CurveCheckError, 2, "refused: "),
        (GroupError, 1, "usage error: "),
        (UsageError, 1, "usage error: "),
        (ValueError, 1, "usage error: "),
    ],
)
def test_exit_code_of_each_error(capsys, monkeypatch, error, code, prefix):
    # main maps a records.Refused to exit 2 and any other ValueError to exit 1
    assert issubclass(error, Refused) == (code == 2)

    def raise_it(args):
        raise error("the reason")

    monkeypatch.setitem(cli._COMMANDS, "relations", raise_it)
    result = run(capsys, "relations", "c2xc2")
    assert result == (code, "", f"{prefix}the reason\n")


# -- the argv grammar, generated ----------------------------------------------------

SMALL_GROUPS = ["c2xc2", "d:3", "d:5", "cpxcp:3", "sd:7:3"]
GROUP_SPECS = st.sampled_from(SMALL_GROUPS + [
    " D:05", "cpxcp:2", "d:4", "d:2", "q8", "d:x", "d:", "cpxcp:17", "sd:7:4", "sd:7", "sd:5:3", "d:-3", "",
])
CLASS_NAMES = st.sampled_from(["1", "C2", "C2a", "C2c", "C3", "C3b", "C5", "C7", "G", "U4", "X", ""])
INTS = st.integers(-30, 30).map(str) | st.sampled_from(["x", "", "1.5", "0x10", "1e3"])
CURVES = st.lists(st.integers(-30, 30), min_size=5, max_size=5).map(lambda a: ",".join(map(str, a)))
FIELDS = st.one_of(
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)).map(lambda d: f"mq:{d[0]},{d[1]}"),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(lambda c: "poly:" + ",".join(map(str, [1, *c]))),
    st.sampled_from(["mq:3", "mq:3,5,7", "mq:x,5", "poly:", "poly:2,0,1", "poly:1,x", "bogus", "",
                     f"mq:3,{LONG_ITEM}", f"poly:1,0,{LONG_ITEM}", f"mq:3,5,{LONG_ITEM}", f"x{LONG_ITEM}"]),
)
LOCAL_CLASSES = (
    st.builds("{}:D={},I={}".format, st.sampled_from(["2", "3", "5", "11", "13", "x", "v=5"]), CLASS_NAMES, CLASS_NAMES)
    | st.sampled_from(["5:D=G", "5:D=G,I=1,D=G", "5", "5:d=G,i=1", ":D=G,I=1", f"5:D={LONG_ITEM}"])
)
LABELS = st.sampled_from(["11a1", "65a1", "91b1", "nosuch"])
DATA_PATHS = st.sampled_from([str(DATA), "/nonexistent/curves.csv", str(REPO / "data"), str(REPO / "README.md")])


def _options(draw, candidates) -> list:
    """A drawn subset of the (flag, strategy) candidates, each with a drawn value, in drawn order."""
    chosen = [[flag] if value is None else [flag, draw(value)]
              for flag, value in candidates if draw(st.booleans())]
    return [word for option in draw(st.permutations(chosen)) for word in option]


def _curve_options(draw) -> tuple:
    """(argv, bad primes): a curve of the data file, or drawn coefficients and a rank."""
    curve = draw(st.none() | st.sampled_from(data_curves()))
    if curve is None:
        return [f"--curve={draw(CURVES)}", "--rank", str(draw(st.integers(0, 3)))], ()
    label, bad = curve
    return ["--label", label, "--data", str(DATA)], bad


def _certify_options(draw) -> list:
    """A curve, a field and p that fit together, with drawn local classes."""
    argv, bad = _curve_options(draw)
    field = draw(st.sampled_from(["mq", "poly", "abstract"]))
    if field == "mq":
        d1, d2 = draw(st.permutations([-1, 2, 3, 5, -3, 6, 7]))[:2]
        argv += ["--field", f"mq:{d1},{d2}", "-p", "2"]
    elif field == "poly":
        # Q(sqrt 2, sqrt 3) and Q(sqrt 2, sqrt 5)
        argv += ["--field", draw(st.sampled_from(["poly:1,0,-10,0,1", "poly:1,0,-14,0,9"])), "--group", "c2xc2",
                 "-p", "2"]
    else:
        G = parse_group_spec(draw(st.sampled_from(SMALL_GROUPS)))
        argv += ["--group", str(G.family), "-p", str(G.family.p)]
        for v in bad:
            argv.append("--local-class={}:D={},I={}".format(v, *draw(st.sampled_from(G.local_classes)).names()))
    if draw(st.booleans()):
        argv += ["--sha-trivial", draw(st.sampled_from(["2", "3", "2,3"]))]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--local-class", draw(LOCAL_CLASSES)]
    return argv


@st.composite
def argvs(draw) -> list:
    """A call of each subcommand: mostly well formed with drawn values, else any mix of its options."""
    command = draw(st.sampled_from(["relations", "tables", "analyze", "certify", "scan"]))
    argv = [command]
    well_formed = draw(st.integers(0, 3)) > 0
    if command in ("relations", "tables"):
        argv.append(draw(GROUP_SPECS))
    elif command == "analyze" and well_formed:
        argv += _curve_options(draw)[0]
    elif command == "certify" and well_formed:
        argv += _certify_options(draw)
    elif command == "scan":
        argv += _options(draw, [
            ("--data", DATA_PATHS), ("--min-rank", INTS), ("--max-nonsplit", INTS), ("--torsion-free", None),
            ("--any-sha", None), ("--group", GROUP_SPECS), ("-p", INTS),
        ])
    else:
        argv += _options(draw, [
            ("--curve", CURVES | st.sampled_from(["1,2,3", "a,b,c,d,e", "", "1 0 0 -1 0"])), ("--label", LABELS),
            ("--data", DATA_PATHS), ("--rank", INTS), ("--torsion", INTS),
        ])
        if command == "certify":
            argv += _options(draw, [
                ("--field", FIELDS), ("--group", GROUP_SPECS), ("-p", INTS),
                ("--sha-trivial", st.sampled_from(["2", "2,3", "x", "", LONG_ITEM])), ("--local-class", LOCAL_CLASSES),
            ])
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "pretty", "pretty", "xml"]))]
    return argv


@given(argvs(), st.sampled_from([None, str(DATA), "/nonexistent/curves.csv"]))
# the over-long list items are seldom drawn, so each also runs as an example
@example(["certify", "--curve", "1,0,0,-1,0", "--rank", "1", "-p", "2", "--field", f"mq:3,{LONG_ITEM}"], None)
@example(["certify", "--curve", "1,0,0,-1,0", "--rank", "1", "-p", "2", "--group", "d:3",
          "--field", f"poly:1,0,{LONG_ITEM}"], None)
@example(["certify", "--curve", "1,0,0,-1,0", "--rank", "1", "-p", "2", "--field", "mq:3,5",
          "--sha-trivial", LONG_ITEM], None)
@example(["certify", "--curve", "1,0,0,-1,0", "--rank", "1", "-p", "2", "--field", f"mq:3,5,{LONG_ITEM}"], None)
@example(["certify", "--curve", "1,0,0,-1,0", "--rank", "1", "-p", "2", "--field", f"x{LONG_ITEM}"], None)
@example(["certify", "--curve", "1,0,0,-1,0", "--rank", "1", "-p", "2", "--field", "mq:3,5",
          "--local-class", f"5:D={LONG_ITEM}"], None)
@settings(max_examples=1500, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_generated_call_exits_cleanly(argv, sgl_data):
    # every input path succeeds or refuses with exit 1 or 2 and one line on
    # stderr, never a traceback; the small groups and curves keep each call
    # far from the factoring budget
    env = {} if sgl_data is None else {"SGL_DATA": sgl_data}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if sgl_data is None:
            os.environ.pop("SGL_DATA", None)
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert out and err == "", (argv, err)
    else:
        assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err, (argv, err)
        assert len(err.encode()) < 200, (argv, err[:200])
        assert out == "" or (argv[0] == "tables" and code == 2), (argv, out)
