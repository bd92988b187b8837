#!/usr/bin/env python3
"""A sampled mutation probe of the tests, one package module at a time.

A mutant changes one node of ``src/selgrowth/<module>.py`` outside f-string
messages: it flips a comparison to its negation (< and >=, <= and >, == and
!=, in and not in, is and is not), adds 1 to a small integer constant, or
swaps + and -. The probe copies src/, tests/, bench/ and data/ into a work
directory, writes one mutant at a time into the copy, and runs the module's
layer of tests (LAYER_TESTS) against it with ``pytest -x``. A mutant
survives when those tests still pass. The sample of each module comes from
a fixed seed, and so do the tests' random examples, so a run repeats while
the source and the tests stay the same; ``--mutants 0`` takes every site.

Mutants known to be equivalent (no input can tell them from the module) are
listed in EQUIVALENT, each with a one-line reason, and reported apart from
the survivors. The exit code is 1 when any other mutant survives. This is
not a tier-1 test: a mutant takes 1-4 s, and every site of curves, records
and splitting (258 mutants) about 6 minutes on 2 cores.

Each test run may take at most MEMORY_CAP bytes of address space
(RLIMIT_AS, set in the child before pytest starts). The unmutated layer runs
peak at 53-95 MB of it (VmPeak, Python 3.11.7; the largest is quotients'
layer with the golden test), so the cap of 512 MiB leaves more than five
times that: a mutant that grows a list without end then fails with a
MemoryError within seconds, where it used to fill the machine's memory.

    python3 scripts/mutation_probe.py curves records splitting
    python3 scripts/mutation_probe.py curves --mutants 0
    python3 scripts/mutation_probe.py --list curves

Standard library only; pytest and the tests' own dependencies run the tests.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "data")
SMALL = 1000  # integer constants up to this size are mutated
SEED = 0  # of the sample of sites and of the tests' random examples
TIMEOUT = 300  # seconds per test run; a mutant that runs longer is killed
MEMORY_CAP = 512 * 2 ** 20  # bytes of address space per test run (see above)

# the tests that exercise each module: its own test file, plus the files of
# the layers that read it where it has none
LAYER_TESTS = {
    "arith": ["tests/test_arith.py"],
    "brauer": ["tests/test_brauer.py"],
    "curves": ["tests/test_curves.py"],
    "database": ["tests/test_database.py"],
    "factor_kernel": ["tests/test_arith.py"],
    "factored": ["tests/test_factored.py"],
    "groups": ["tests/test_groups.py", "tests/test_group_reference.py"],
    "intlinalg": ["tests/test_intlinalg.py"],
    "quotients": ["tests/test_quotients.py", "tests/test_golden.py"],
    "records": ["tests/test_curves.py", "tests/test_quotients.py"],
    "splitting": ["tests/test_splitting.py"],
}

# (module, enclosing function, original, mutant) -> why no input tells them apart
EQUIVALENT = {
    ("curves", "_ord", "n == 0", "n == 1"):
        "no caller passes 0 or 1: |delta| > 1 for every curve over Q, and c4, c6 are read only when nonzero",
    ("curves", "_ainvs_from_c_invariants", "b2 > 6", "b2 > 7"):
        "at b2 = 7, both 7 and -5 are 3 mod 4, which the next check refuses with the same message",
    ("curves", "_ainvs_from_c_invariants", "(b2 - a1) // 4", "(b2 + a1) // 4"):
        "a1 = b2 mod 2 and b2 = 0 or 1 mod 4, so both floors are the same",
    ("curves", "_ainvs_from_c_invariants", "(b4 - a1 * a3) % 2", "(b4 + a1 * a3) % 2"):
        "a1 a3 is 0 or 1, and b4 - 1 and b4 + 1 have the same parity",
    ("curves", "_ainvs_from_c_invariants", "(b6 - a3) // 4", "(b6 + a3) // 4"):
        "a3 = b6 mod 2 and 4 divides b6 - a3 (checked above), so both floors are the same",
    ("factor_kernel", "_ecm_level", "len(range(1, _ECM_D // 2, 2))", "len(range(2, _ECM_D // 2, 2))"):
        "range(1, 105, 2) and range(2, 105, 2) both have 52 entries",
    ("factor_kernel", "_pm1_level", "len(range(1, _ECM_D // 2, 2))", "len(range(2, _ECM_D // 2, 2))"):
        "range(1, 105, 2) and range(2, 105, 2) both have 52 entries",
    ("factor_kernel", "_ecm_curve", "(1, xs[-_ECM_BABY:])", "(2, xs[-_ECM_BABY:])"):
        "n is odd, so gcd(2 acc, n) = gcd(acc, n)",
    ("factor_kernel", "_pm1", "(1, 2, vd)", "(2, 2, vd)"):
        "n is odd, so gcd(2 acc, n) = gcd(acc, n)",
    ("groups", "<module>", "GROUP_CACHE_SIZE = 4", "GROUP_CACHE_SIZE = 5"):
        "a cache size: every result is the same at any size, and the cache test reads the bound by its name",
    ("groups", "element_orders", "[0] * self.order", "[1] * self.order"):
        "every element is a power of a walked generator, so every entry is written over",
    ("groups", "_subgroup_orbits", "range(1, n)", "range(2, n)"):
        "the divisor 1 decides only a join with |H| k = 1, that is g in H, which the loop skips",
    ("groups", "_subgroup_orbits", "range(1, m + 1)", "range(2, m + 1)"):
        "k = 1 would mean g in H, which the loop skips",
    ("groups", "_subgroup_orbits", "range(1, m + 1)", "range(1, m + 2)"):
        "k = m always qualifies, as powers[0] = e lies in H, so k never reaches m + 1",
    ("groups", "_semidirect_table", "s:s + p", "s:s - p"):
        "each run is doubled, 2p bytes, and 0 <= s < p, so index s - p is index s + p",
    ("groups", "_semidirect_table", "b:b + k", "b:b - k"):
        "runs is a doubled list of 2k runs and 0 <= b < k, so index b - k is index b + k",
    ("groups", "_semidirect_table", "[bytes(range(j * p, j * p + p)) * 2 for j in range(k)]",
     "[bytes(range(j * p, j * p + p)) * 3 for j in range(k)]"):
        "a slice s:s + p with 0 <= s < p reads only the first 2p entries of a run",
    ("groups", "_semidirect_table", "[bytes(range(j * p, j * p + p)) * 2 for j in range(k)] * 2",
     "[bytes(range(j * p, j * p + p)) * 2 for j in range(k)] * 3"):
        "a slice b:b + k with 0 <= b < k reads only the first 2k runs",
    ("groups", "make_cyclic", "FiniteGroup(_semidirect_table(n, 1, 1), generators=[1] if n > 1 else [])",
     "FiniteGroup(_semidirect_table(n, 1, 2), generators=[1] if n > 1 else [])"):
        "with k = 1 the twist is read only as u^0, which is 1 mod n > 1 and 0 = 1 mod 1",
    ("arith", "_strong_probable_prime", "range(s - 1)", "range(s + 1)"):
        "the added turns test a^(n-1) and a^(2(n-1)) against -1, which no odd n > 1 passes: each prime r | n, "
        "and so n, would be 1 mod 2^(v2(n-1)+1)",
    ("arith", "_strong_lucas_probable_prime", "(n + 1, 0)", "(n + 1, 1)"):
        "the added turn tests V_(n+1) = 0, which (D/n) = -1 rules out: each prime r | n would be (D/r) mod "
        "2^(v2(n+1)+1), and so n would be (D/n) = -1 mod it",
    ("splitting", "quadratic_symbol", "d in (0, 1)", "d in (1, 1)"):
        "is_squarefree(0) is False, so d = 0 is refused by the same condition with the same message",
    ("splitting", "_validate_multiquadratic", "d in (0, 1)", "d in (1, 1)"):
        "is_squarefree(0) is False, so d = 0 is refused by the same condition with the same message",
    ("splitting", "_multiquadratic_class", "v == 2", "v != 2"):
        "the memo key tells v = 2 from odd v by either flag",
}

_FLIP = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add}


def _sites(tree: ast.Module) -> list:
    """Every mutation site, in a fixed order: (node, op index or None, function, shown node).

    The shown node names the mutant: a comparison itself, an operation with
    its parent expression, a constant with up to two levels of expression
    around it (or its statement, when it stands right in one), so that equal
    snippets at two sites of one function rarely coincide.
    """
    out = []

    def shown(chain, levels):
        node = chain[-1]
        for parent in reversed(chain[-1 - levels:-1]):
            if not isinstance(parent, ast.expr):
                return parent if node is chain[-1] else node
            node = parent
        return node

    def visit(chain, func):
        node = chain[-1]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare):
            out.extend((node, j, func, node) for j, op in enumerate(node.ops) if type(op) in _FLIP)
        elif isinstance(node, ast.BinOp) and type(node.op) in _SWAP:
            out.append((node, None, func, shown(chain, 1)))
        elif isinstance(node, ast.Constant) and type(node.value) is int and abs(node.value) <= SMALL:
            out.append((node, None, func, shown(chain, 2)))
        if isinstance(node, ast.JoinedStr):
            return  # messages: the golden test pins those that the CLI prints
        for child in ast.iter_child_nodes(node):
            visit(chain + [child], func)

    visit([tree], "<module>")
    return out


def _mutate(node, j) -> None:
    if isinstance(node, ast.Compare):
        node.ops[j] = _FLIP[type(node.ops[j])]()
    elif isinstance(node, ast.BinOp):
        node.op = _SWAP[type(node.op)]()
    else:
        node.value += 1


def mutant(source: str, index: int) -> tuple:
    """(mutated module source, (function, original, mutant)) of site ``index``."""
    tree = ast.parse(source)
    node, j, func, shown = _sites(tree)[index]
    before = ast.unparse(shown)
    _mutate(node, j)
    return ast.unparse(tree), (func, before, ast.unparse(shown))


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _run_tests(work: pathlib.Path, tests: list) -> str:
    """'pass', 'fail' or 'timeout' of the layer tests in the work directory."""
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)  # no replay of another mutant's failure
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", f"--hypothesis-seed={SEED}", *tests]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT, preexec_fn=_cap_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if proc.returncode == 0 else "fail"


def probe(module: str, work: pathlib.Path, count: int) -> list:
    """Run a sample of the module's mutants; return the survivors not listed as equivalent."""
    path = work / "src" / "selgrowth" / f"{module}.py"
    source = (ROOT / "src" / "selgrowth" / f"{module}.py").read_text(encoding="utf-8")
    tests = LAYER_TESTS[module]
    n_sites = len(_sites(ast.parse(source)))
    rng = random.Random(f"{SEED}:{module}")
    chosen = sorted(rng.sample(range(n_sites), count)) if 0 < count < n_sites else range(n_sites)
    survivors = []
    try:
        path.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        if _run_tests(work, tests) != "pass":
            raise SystemExit(f"{module}: the layer tests fail on the unmutated module")
        print(f"{module}: {len(chosen)} of {n_sites} sites, tests {' '.join(tests)}", flush=True)
        for index in chosen:
            text, key = mutant(source, index)
            path.write_text(text, encoding="utf-8")
            t0 = time.perf_counter()
            outcome = _run_tests(work, tests)
            verdict = {"pass": "SURVIVED", "fail": "killed", "timeout": "killed (timeout)"}[outcome]
            if outcome == "pass" and (module, *key) in EQUIVALENT:
                verdict = "equivalent"
            elif outcome == "pass":
                survivors.append((module, *key))
            func, before, after = key
            print(f"  #{index} {func}: {before}  ->  {after}: {verdict} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
    finally:
        path.write_text(source, encoding="utf-8")
    return survivors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("modules", nargs="+", choices=sorted(LAYER_TESTS))
    ap.add_argument("--mutants", type=int, default=20, help="mutants per module, 0 for every site (default 20)")
    ap.add_argument("--workdir", type=pathlib.Path, help="where to copy the repository (default: a temporary directory)")
    ap.add_argument("--list", action="store_true", help="print every site of the modules and run nothing")
    args = ap.parse_args(argv)
    if args.list:
        for module in args.modules:
            source = (ROOT / "src" / "selgrowth" / f"{module}.py").read_text(encoding="utf-8")
            for index in range(len(_sites(ast.parse(source)))):
                func, before, after = mutant(source, index)[1]
                print(f"{module} #{index} {func}: {before}  ->  {after}")
        return 0
    if args.workdir is not None and not args.workdir.is_dir():
        print(f"mutation_probe: --workdir {args.workdir} is not a directory", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        work = pathlib.Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
        survivors = [s for m in args.modules for s in probe(m, work, args.mutants)]
    print(f"survivors: {len(survivors)}")
    for module, func, before, after in survivors:
        print(f"  {module}.{func}: {before}  ->  {after}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
