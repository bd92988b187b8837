"""Machine speed, from fixed reference work.

The speed of a shared machine drifts by tens of percent within minutes. A
fixed pure-Python loop slows down in step with the interpreter work the
benchmark measures in process, so every slice of that work (about half a
second, one abstract pair, one spec of a sweep) is bracketed by
the loop, and its time is multiplied by NOMINAL_MS / (mean of the two loop
times): the time it would have taken where the loop takes NOMINAL_MS.

A fresh interpreter importing the package (a cold call or a set-up) does
not track that loop, but does track a fresh interpreter importing a fixed
set of standard modules, run just before it: its times are scaled by
NOMINAL_CHILD_MS / (that child's time).
"""

from __future__ import annotations

import time

LOOP = 100_000
NOMINAL_MS = 10.0
REFERENCE_CHILD = ["-c", "import argparse, csv, decimal, email.parser, fractions, json, unittest, xml.dom.minidom"]
NOMINAL_CHILD_MS = 100.0


def reference_ms() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1000


class Scale:
    """Reference-loop samples taken between slices of work."""

    def __init__(self):
        self.samples = [reference_ms()]

    def factor(self) -> float:
        """Scale factor for the work done since the previous sample; takes a new one."""
        before, after = self.samples[-1], reference_ms()
        self.samples.append(after)
        return NOMINAL_MS / ((before + after) / 2)
