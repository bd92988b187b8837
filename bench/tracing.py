"""Spans around the calls into selgrowth's layers, for the traced run.

install() replaces each listed public function or method, in every
selgrowth module that holds it, by a wrapper that records a span: name,
start, end, parent span and request id. Spans stay in memory; a layer's self
time is its spans' time minus the time their child spans cover. The program's
files are not touched and its outputs do not change.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name, counter); a counter of groups.subgroups
# counts the subgroups a lattice call returns, any other counts calls.
TARGETS = [
    ("groups", "parse_group_spec", "groups.build", None),
    ("groups", "make_cyclic", "groups.build", None),
    ("groups", "make_elem_abelian", "groups.build", None),
    ("groups", "make_dihedral", "groups.build", None),
    ("groups", "make_semidirect", "groups.build", None),
    ("groups", "FiniteGroup.all_subgroups", "groups.lattice", "groups.subgroups"),
    ("groups", "FiniteGroup.subgroup_classes", "groups.lattice", None),
    ("groups", "double_cosets", "groups.double_cosets", "groups.double_coset_calls"),
    ("brauer", "canonical_relation", "brauer.canonical_relation", None),
    ("brauer", "relation_lattice", "brauer.relation_lattice", None),
    ("intlinalg", "integer_kernel_basis", "intlinalg.kernel", None),
    ("curves", "make_profile", "curves.profile", None),
    ("splitting", "FieldSpec.multiquadratic", "splitting.field", None),
    ("splitting", "FieldSpec.abstract", "splitting.field", None),
    ("splitting", "multiquadratic_local_class", "splitting.local_class", None),
    ("splitting", "LocalClass.__post_init__", "splitting.local_class", None),
    ("quotients", "local_theta_quotient", "quotients.place", "quotients.places"),
    ("quotients", "certify", "quotients.certify", None),
    ("quotients", "GrowthCertificate.as_json", "quotients.serialize", None),
    ("database", "ingest", "database.ingest", None),
    ("database", "scan", "database.scan", None),
    ("cli", "build_parser", "cli.parser", None),
    ("cli", "main", "cli.main", None),
]

# Per-layer metrics that are self times of spans of the same name.
TIMED = [
    "groups.build", "groups.lattice", "groups.double_cosets", "brauer.canonical_relation",
    "brauer.relation_lattice", "intlinalg.kernel", "curves.profile", "splitting.field",
    "splitting.local_class", "quotients.place", "quotients.serialize", "database.ingest",
    "database.scan", "cli.parser",
]
COUNTED = ["groups.subgroups", "groups.double_coset_calls", "quotients.places"]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, request id]
        self.counts = Counter()
        self.request = None
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter == "groups.subgroups":
                self.counts[(counter, self.request)] += len(result)
            elif counter:
                self.counts[(counter, self.request)] += 1
            return result
        return traced

    def self_times(self, ref: bool) -> dict:
        """Span name -> total self time in ns, over the reference calls or the rest."""
        child = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(int)
        for i, (name, start, end, _, req) in enumerate(self.spans):
            if (req == "ref") == ref:
                out[name] += end - start - child[i]
        return out

    def count(self, counter, ref: bool) -> int:
        return sum(n for (c, req), n in self.counts.items() if c == counter and (req == "ref") == ref)

    def export(self) -> dict:
        counts = Counter()
        for (c, _), n in self.counts.items():
            counts[c] += n
        return {"spans": self.spans, "counts": dict(counts)}

    def absorb(self, exported: dict, offset: int) -> None:
        """Add what a child process exported, shifting its request ids by offset."""
        base = len(self.spans)
        for name, start, end, parent, req in exported["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, offset + req])
        for counter, n in exported["counts"].items():
            self.counts[(counter, offset)] += n


def install(tracer: Tracer) -> None:
    """Wrap every target in each selgrowth module that refers to it."""
    for mod_name, *_ in TARGETS:
        importlib.import_module(f"selgrowth.{mod_name}")
    modules = [m for name, m in sys.modules.items()
               if name == "selgrowth" or name.startswith("selgrowth.")]
    for mod_name, attr, name, counter in TARGETS:
        home = sys.modules[f"selgrowth.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            if isinstance(orig, functools.cached_property):
                prop = functools.cached_property(tracer.wrap(orig.func, name, counter))
                prop.__set_name__(cls, meth)
                setattr(cls, meth, prop)
            elif isinstance(orig, staticmethod):
                setattr(cls, meth, staticmethod(tracer.wrap(orig.__func__, name, counter)))
            else:
                setattr(cls, meth, tracer.wrap(orig, name, counter))
            continue
        orig = getattr(home, attr)
        wrapped = tracer.wrap(orig, name, counter)
        for mod in modules:
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapped)
