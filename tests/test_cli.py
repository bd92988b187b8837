import json
import os
import pathlib
import subprocess
import sys

from selgrowth.cli import main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

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
