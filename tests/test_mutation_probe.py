"""The mutation probe's command line (scripts/mutation_probe.py)."""

import subprocess
import sys

from oracle import REPO

MODULES = ["arith", "brauer", "curves", "database", "factor_kernel", "groups", "intlinalg",
           "quotients", "records", "splitting"]


def test_list_into_a_closed_pipe_ends_quietly():
    # every site of every module is about 74 kB of lines, more than a pipe
    # holds, and takes seconds to list: the probe is still writing when the
    # reader goes away after one line
    proc = subprocess.Popen([sys.executable, str(REPO / "scripts" / "mutation_probe.py"), "--list", *MODULES],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"arith #0 ")
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (0, b"")
