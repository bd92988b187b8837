"""Benchmark of selgrowth: four workloads, checked outputs, one JSON report.

Run from the repository root:

  python3 bench/run.py --workload certify_mq --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
with spans around the calls into each layer and prints the per-layer
metrics. Lines before the last are information; the last line is the
result: {"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checkers
import inputs
import speed
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 5  # fresh-interpreter set-ups per run; setup_s is their median
SLICE_S = 0.5  # in-process work between two reference-loop samples
CHILD_TIMEOUT_S = 150
DIGEST_REQUESTS = {"family_sweep": 39, "certify_mq": 1000, "certify_abstract": 20, "cli_cold": 5}


class Run:
    """What one workload run measured.

    Each completed request keeps its raw time, the slice it ran in and the
    unit it belongs to (a request, an abstract pair, a sweep or a call); each
    slice gets a speed factor when it closes.
    """

    def __init__(self, name):
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.raw_ns = []
        self.slice_of = []
        self.unit_of = []
        self.factors = []
        self.errors = []
        self.peak_rss_mb = 0.0
        self.repeat_spec = 0
        self.repeat_curve = 0
        self._digest = hashlib.sha256()
        self._digested = 0

    def done(self, ns: int, output: str, unit: int) -> None:
        self.attempted += 1
        self.raw_ns.append(ns)
        self.slice_of.append(len(self.factors))
        self.unit_of.append(unit)
        if self._digested < DIGEST_REQUESTS[self.name]:
            self._digest.update(output.encode())
            self._digested += 1

    def close_slice(self, factor: float) -> None:
        if self.slice_of and self.slice_of[-1] == len(self.factors):
            self.factors.append(factor)

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"failed: {what}"[:300])

    def check(self, check) -> None:
        """Run one check of an output; any exception means the output is wrong."""
        try:
            check()
        except Exception as exc:  # a malformed output can fail anywhere in a checker
            self.errors.append(f"wrong output: {type(exc).__name__}: {exc}"[:300])

    def scaled_ns(self) -> list:
        return [ns * self.factors[s] for ns, s in zip(self.raw_ns, self.slice_of)]

    def units(self, values: list) -> list:
        out = {}
        for v, u in zip(values, self.unit_of):
            out[u] = out.get(u, 0) + v
        return list(out.values())

    def digest(self) -> str:
        return f"{self._digest.hexdigest()[:16]} over {self._digested} outputs"


def spawn(cmd: list) -> tuple:
    """Run a child to completion: (exit code, output, wall seconds, its peak RSS in MB).

    Linux carries the parent's RSS high-water mark into a child across exec,
    so a child never reads below its parent; parents of measured children
    therefore do not import the package.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(workloads.SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        data = proc.stdout.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, data.decode(errors="replace"), time.perf_counter() - t0, usage.ru_maxrss / 1024


def spawn_scaled(cmd: list, reference_ms: list) -> tuple:
    """spawn() after the reference child; also returns the factor that scales the child's times."""
    reference = spawn([sys.executable, *speed.REFERENCE_CHILD])[2] * 1000
    reference_ms.append(reference)
    return (*spawn(cmd), speed.NOMINAL_CHILD_MS / reference)


def worker_cmd(*args) -> list:
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


# -- workloads -------------------------------------------------------------------


def run_in_process(name: str, seed: int, seconds: float, tracer, scale) -> Run:
    """certify_mq and certify_abstract: library calls in this process, checked between requests."""
    sys.path.insert(0, str(workloads.SRC))
    sg, rounds, _, _ = workloads.setup(name, seed)
    if tracer:
        tracing.install(tracer)
    request = getattr(workloads, name)
    run, checker = Run(name), checkers.Checker()
    specs, curves = set(), set()
    start = slice_start = time.perf_counter()
    scale.factor()
    for i in range(10 ** 9):
        for req in rounds[i % len(rounds)]:
            spec, curve = req.get("spec", "c2xc2"), tuple(req["ainvs"])
            run.repeat_spec += spec in specs
            run.repeat_curve += curve in curves
            specs.add(spec)
            curves.add(curve)
            if tracer:
                tracer.request = run.attempted
            t0 = time.perf_counter_ns()
            try:
                if tracer:
                    with tracer.span("request"):
                        out = request(sg, req, tracer)
                else:
                    out = request(sg, req)
            except Exception as exc:  # any crash of the program is a failed operation
                run.fail(f"{type(exc).__name__}: {exc}")
                continue
            # an abstract pair is one unit; an mq request is its own unit
            run.done(time.perf_counter_ns() - t0, out, i if name == "certify_abstract" else run.attempted)
            run.check(lambda: checker.check_certificate(req, json.loads(out)))
            if name == "certify_mq" and time.perf_counter() - slice_start >= SLICE_S:
                run.close_slice(scale.factor())
                slice_start = time.perf_counter()
        if name == "certify_abstract":
            run.close_slice(scale.factor())
        if time.perf_counter() - start >= seconds:
            break
    run.close_slice(scale.factor())
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run


def run_family_sweep(seed: int, seconds: float, tracer, scale) -> Run:
    """Whole sweeps, each in its own fresh worker, while the next one still fits."""
    run, checker = Run("family_sweep"), checkers.Checker()
    start = time.perf_counter()
    sweeps = 0
    while True:
        code, out, _, rss = spawn(worker_cmd("sweep", seed, int(bool(tracer))))
        run.peak_rss_mb = max(run.peak_rss_mb, rss)
        try:
            doc = json.loads(out.splitlines()[-1]) if code == 0 else None
        except (ValueError, IndexError):
            doc = None
        if doc is None:
            for _ in inputs.family_specs(seed):
                run.fail(f"sweep worker exited {code}: {out[-200:]}")
            break
        base = run.attempted
        seen = set()
        for spec, spec_code, ns, factor, text in doc["items"]:
            run.repeat_spec += spec in seen
            seen.add(spec)
            if spec_code != 0:
                run.fail(f"tables {spec} exited {spec_code}: {text[-200:]}")
                continue
            run.done(ns, text, sweeps)
            run.close_slice(factor)
            run.check(lambda: checker.check_tables(spec, json.loads(text)))
        scale.samples += doc["reference_ms"]
        if tracer:
            tracer.absorb(doc["trace"], base)
        sweeps += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / sweeps > seconds:
            break
    return run


def check_call(checker, rows: list, kind: str, arg, doc: dict) -> None:
    if kind == "certify":
        checker.check_certificate(arg, doc)
    elif kind == "scan":
        checker.check_scan(rows, arg, doc)
    elif kind == "relations":
        checker.check_relations_c2xc2(doc)
    elif kind == "tables":
        checker.check_tables(arg, doc)
    else:
        checker.check_analyze(arg, doc)


def run_cli_cold(seed: int, seconds: float, tracer, reference_ms: list) -> Run:
    """Whole rounds of five `python -m selgrowth` calls, each in a fresh interpreter."""
    run, checker = Run("cli_cold"), checkers.Checker()
    rounds = inputs.cold_rounds(seed, workloads.DATA, workloads.DATA_ARG)
    rows = inputs.read_fixture(workloads.DATA)
    start = time.perf_counter()
    for i in range(10 ** 9):
        for call in rounds[i % len(rounds)]:
            if tracer:
                cmd = worker_cmd("call", "--", *call["args"])
            else:
                cmd = [sys.executable, "-m", "selgrowth", *call["args"]]
            code, out, wall, rss, factor = spawn_scaled(cmd, reference_ms)
            if code != 0:
                run.fail(f"{' '.join(call['args'])} exited {code}: {out[-200:]}")
                continue
            lines = out.rstrip("\n").split("\n")
            if tracer:
                tracer.absorb(json.loads(lines.pop()[len(worker.TRACE_MARK):]), run.attempted)
            text = "\n".join(lines)
            run.done(int(wall * 1e9), text, run.attempted)
            run.close_slice(factor)
            run.peak_rss_mb = max(run.peak_rss_mb, rss)
            kind, arg = call["check"]
            run.check(lambda: check_call(checker, rows, kind, arg, json.loads(text)))
        if time.perf_counter() - start >= seconds:
            break
    return run


def setup_probes(name: str, seed: int, reference_ms: list) -> list:
    """(wall s, set-up s, import s) of fresh interpreters doing the workload's set-up, scaled."""
    probes = []
    for _ in range(PROBES):
        code, out, wall, _, factor = spawn_scaled(worker_cmd("setup", name, seed), reference_ms)
        if code != 0:
            raise RuntimeError(f"set-up failed with exit code {code}:\n{out}")
        doc = json.loads(out.splitlines()[-1])
        probes.append((wall * factor, doc["setup_s"] * factor, doc["import_s"] * factor))
    return probes


# -- metrics ---------------------------------------------------------------------


def tail(values: list) -> tuple:
    """p99 when at least ten samples lie beyond it, else the median. Returns (value, basis).

    A workload gives either thousands of samples or a few dozen, so the
    basis does not flip between two percentiles from one run to the next.
    """
    s = sorted(values)
    if len(s) >= 1000:
        return s[int(0.99 * len(s))], f"p99 of {len(s)}"
    return statistics.median(s), f"median of {len(s)} (under 1000 samples)"


def end_to_end(run: Run, probes: list) -> tuple:
    scaled = run.scaled_ns()
    units = run.units(scaled)
    per_s = len(scaled) / (sum(scaled) / 1e9)
    p99, basis = tail(units)
    # only cli_cold makes cold calls; elsewhere the key carries the median unit latency
    cold = units if run.name == "cli_cold" else [statistics.median(units)]
    metrics = {
        "setup_s": (statistics.median(s for _, s, _ in probes), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "specs_per_s": (per_s, "1/s"),
        "certs_per_s": (per_s, "1/s"),
        "cert_p50_ms": (statistics.median(units) / 1e6, "ms"),
        "cert_p99_ms": (p99 / 1e6, "ms"),
        "cold_call_p50_ms": (statistics.median(cold) / 1e6, "ms"),
    }
    info = {
        "cert_p99_basis": basis,
        "cold_call_samples": len(cold),
        "setup_probe_wall_ms": round(statistics.median(wall for wall, _, _ in probes) * 1000, 3),
        "unscaled_per_s": round(len(scaled) / (sum(run.raw_ns) / 1e9), 4),
        "unscaled_cert_p50_ms": round(statistics.median(run.units(run.raw_ns)) / 1e6, 4),
    }

    return metrics, info


def per_layer(run: Run, tracer, probes: list, interpreter_s: list) -> tuple:
    """Mean self time (ms) and counts per request, from the traced run.

    Times are scaled by the run's median speed factor. A layer that the
    workload's requests never reached takes its figure from the reference
    calls instead, and is listed in the information line.
    """
    workloads.reference_calls(sys.modules["selgrowth"], tracer)
    factor = statistics.median(run.factors)
    n = len(run.raw_ns)
    own, ref = tracer.self_times(ref=False), tracer.self_times(ref=True)
    metrics, from_ref = {}, []
    for name in tracing.TIMED:
        if own.get(name):
            metrics[f"{name}_ms"] = (own[name] * factor / 1e6 / n, "ms")
        else:
            metrics[f"{name}_ms"] = (ref[name] * factor / 1e6 / workloads.REFERENCE_REPEATS, "ms")
            from_ref.append(name)
    for name in tracing.COUNTED:
        count = tracer.count(name, ref=False)
        if count:
            metrics[name] = (count / n, "count")
        else:
            metrics[name] = (tracer.count(name, ref=True) / workloads.REFERENCE_REPEATS, "count")
            from_ref.append(name)
    metrics["cli.interpreter_ms"] = (statistics.median(interpreter_s) * 1000, "ms")
    metrics["cli.import_ms"] = (statistics.median(i for _, _, i in probes) * 1000, "ms")
    return metrics, {"per_layer_from_reference_calls": from_ref}


def _spread(samples: list, nominal: float) -> dict:
    return {"median": round(statistics.median(samples), 3), "min": round(min(samples), 3),
            "max": round(max(samples), 3), "samples": len(samples), "nominal": nominal}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (workloads.SRC / "selgrowth" / "__init__.py", workloads.DATA) if not p.is_file()]
    if missing:
        print(f"not inside a selgrowth checkout: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    scale, reference_child_ms = speed.Scale(), []
    try:
        probes = setup_probes(args.workload, args.seed, reference_child_ms)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    interpreter_s, tracer = [], None
    if args.trace:
        for _ in range(PROBES):
            _, _, wall, _, factor = spawn_scaled([sys.executable, "-c", "pass"], reference_child_ms)
            interpreter_s.append(wall * factor)
        tracer = tracing.Tracer()
        if args.workload in ("family_sweep", "cli_cold"):
            sys.path.insert(0, str(workloads.SRC))
            tracing.install(tracer)

    t0 = time.perf_counter()
    if args.workload == "family_sweep":
        run = run_family_sweep(args.seed, args.seconds, tracer, scale)
    elif args.workload == "cli_cold":
        run = run_cli_cold(args.seed, args.seconds, tracer, reference_child_ms)
    else:
        run = run_in_process(args.workload, args.seed, args.seconds, tracer, scale)
    wall = time.perf_counter() - t0
    scale.samples.append(speed.reference_ms())
    if not run.raw_ns:
        print(f"no request completed: {run.errors[:3]}", file=sys.stderr)
        return 1

    metrics, info = end_to_end(run, probes)
    if tracer:
        traced = {"traced_" + k: round(v, 4) for k, (v, _) in metrics.items()
                  if k in ("certs_per_s", "cert_p50_ms")}
        metrics, extra = per_layer(run, tracer, probes, interpreter_s)
        info.update(traced, **extra)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "requests": run.attempted, "wall_s": round(wall, 3),
        "reference_loop_ms": _spread(scale.samples, speed.NOMINAL_MS),
        "reference_child_ms": _spread(reference_child_ms, speed.NOMINAL_CHILD_MS),
        "outputs_sha256": run.digest(),
        "repeat_spec_share": round(run.repeat_spec / run.attempted, 4),
        "repeat_curve_share": round(run.repeat_curve / run.attempted, 4),
        "errors": run.errors[:5],
        **info,
    }
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    if tracer:
        (out_dir / f"trace-{stem}.json").write_text(json.dumps(tracer.export()))
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
