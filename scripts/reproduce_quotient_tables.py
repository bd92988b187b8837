#!/usr/bin/env python3
"""Print the local-quotient tables for all four group families.

For every family this prints each table cell next to the value recomputed by
the oracle, the Mackey count of the places above v, over all realizable
(decomposition, inertia) pairs, with a PASS/FAIL agreement column. Dash cells
are checked to be unreachable.
"""

import sys

from selgrowth.cli import main

if __name__ == "__main__":
    status = 0
    for spec in ("c2xc2", "d:3", "d:5", "d:7", "cpxcp:3", "cpxcp:5", "sd:7:3"):
        status |= main(["tables", spec, "--format", "pretty"])
        print()
    sys.exit(status)
