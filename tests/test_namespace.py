"""The lazy package namespace: `selgrowth.<name>` imports the name's home module on first use."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# raises instead of asserting, so it checks the same under python -O
_CHECK = """
import sys
import selgrowth
loaded = [m for m in sys.modules if m.startswith("selgrowth.")]
if loaded:
    raise SystemExit(f"import selgrowth loaded {loaded}")
names = selgrowth.__all__
if not names or len(set(names)) != len(names):
    raise SystemExit(f"__all__ is empty or repeats a name: {names}")
missing = sorted(set(names) - set(dir(selgrowth)))
if missing:
    raise SystemExit(f"dir(selgrowth) lacks {missing}")
star = {}
exec("from selgrowth import *", star)
for name in names:
    obj = getattr(selgrowth, name)
    home = sys.modules.get(getattr(obj, "__module__", ""))
    if home is None or not home.__name__.startswith("selgrowth.") or getattr(home, name, None) is not obj:
        raise SystemExit(f"selgrowth.{name} is not the object in its home module")
    if star.get(name) is not obj:
        raise SystemExit(f"from selgrowth import * does not bind {name}")
# FactoredRational left the package for tests/oracle.py
for unknown in ("no_such_name", "FactoredRational"):
    try:
        getattr(selgrowth, unknown)
    except AttributeError as exc:
        if unknown not in str(exc):
            raise SystemExit(f"the AttributeError does not name the attribute: {exc}")
    else:
        raise SystemExit(f"the unknown name {unknown} did not raise AttributeError")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_public_names_resolve_to_their_home_modules(flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _CHECK], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
