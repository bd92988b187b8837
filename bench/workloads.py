"""Set-up and requests of the workloads, run inside a process that imports selgrowth.

Requests go through selgrowth's documented surfaces only: make_profile,
FieldSpec.multiquadratic / FieldSpec.abstract, parse_group_spec, certify,
GrowthCertificate.as_json and selgrowth.cli.main.
"""

from __future__ import annotations

import importlib
import io
import json
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data" / "curves.csv"
DATA_ARG = "data/curves.csv"  # as passed to the CLI, relative to the repository root

NAMES = ("family_sweep", "certify_mq", "certify_abstract", "cli_cold")


def make_inputs(name: str, seed: int):
    if name == "family_sweep":
        return inputs.family_specs(seed)
    if name == "certify_mq":
        return [inputs.mq_round(seed, DATA)]
    if name == "certify_abstract":
        return inputs.abstract_rounds(seed, DATA)
    return inputs.cold_rounds(seed, DATA, DATA_ARG)


def setup(name: str, seed: int) -> tuple:
    """Import the package and make the inputs: the set-up that setup_s times.

    Returns (module, inputs, set-up seconds, import seconds).
    """
    t0 = time.perf_counter()
    module = importlib.import_module("selgrowth.cli" if name in ("family_sweep", "cli_cold") else "selgrowth")
    t1 = time.perf_counter()
    data = make_inputs(name, seed)
    return module, data, time.perf_counter() - t0, t1 - t0


def _span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def _serialize(cert, tracer) -> str:
    with _span(tracer, "quotients.serialize"):
        return json.dumps(cert.as_json(), sort_keys=True, separators=(",", ":"))


def certify_mq(sg, req, tracer=None) -> str:
    """a-invariants to certificate JSON over Q(sqrt d1, sqrt d2)."""
    profile = sg.make_profile(
        sg.WeierstrassModel.from_ainvs(req["ainvs"]), rank=req["rank"],
        torsion_order=req["torsion"], sha_p_trivial=req["sha_trivial"], label=req["label"],
    )
    field = sg.FieldSpec.multiquadratic(*req["field"])
    return _serialize(sg.certify(profile, field, 2), tracer)


def certify_abstract(sg, req, tracer=None) -> str:
    """Spec string to certificate JSON over an abstract field with overrides."""
    field = sg.FieldSpec.abstract(sg.parse_group_spec(req["spec"]))
    profile = sg.make_profile(
        sg.WeierstrassModel.from_ainvs(req["ainvs"]), rank=req["rank"],
        torsion_order=req["torsion"], sha_p_trivial=req["sha_trivial"], label=req["label"],
    )
    return _serialize(sg.certify(profile, field, req["p"], dict(req["overrides"])), tracer)


def tables(cli, spec: str) -> tuple:
    """`tables <spec>` through cli.main in process: (exit code, stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["tables", spec])
    return code, buf.getvalue()


REFERENCE_REPEATS = 5


def reference_calls(sg, tracer) -> None:
    """A fixed small call into every layer, under request id "ref".

    Supplies the per-layer figure of a layer that a workload never reaches.
    """
    cli = importlib.import_module("selgrowth.cli")
    tracer.request = "ref"
    for _ in range(REFERENCE_REPEATS):
        cli.build_parser()
        sg.relation_lattice(sg.parse_group_spec("c2xc2"))
        sg.scan(sg.ingest(DATA).records)
        req = {"ainvs": [1, 0, 0, -1, 0], "rank": 1, "torsion": 2, "sha_trivial": [2],
               "label": "65a1", "field": [3, 5]}
        certify_mq(sg, req, tracer)
    tracer.request = None
