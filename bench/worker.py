"""Child processes of the benchmark; each prints one JSON line and exits.

  worker.py setup <workload> <seed>   time one set-up in a fresh interpreter
  worker.py sweep <seed> <trace>      one family sweep: `tables` for every spec
  worker.py call -- <cli args>        one traced cold CLI call
"""

from __future__ import annotations

import json
import sys
import time

import speed
import workloads

TRACE_MARK = "#trace "


def sweep(seed: int, trace: bool) -> dict:
    """Items are [spec, exit code, ns, speed factor, stdout], one per spec."""
    cli, specs, _, _ = workloads.setup("family_sweep", seed)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    scale = speed.Scale()
    items = []
    for i, spec in enumerate(specs):
        if tracer:
            tracer.request = i
        t0 = time.perf_counter_ns()
        try:
            if tracer:
                with tracer.span("request"):
                    code, out = workloads.tables(cli, spec)
            else:
                code, out = workloads.tables(cli, spec)
        except Exception as exc:  # a crash is a failed operation, reported to the parent
            code, out = None, f"{type(exc).__name__}: {exc}"
        ns = time.perf_counter_ns() - t0
        items.append([spec, code, ns, scale.factor(), out])
    return {"items": items, "reference_ms": scale.samples,
            "trace": tracer.export() if tracer else None}


def traced_call(args: list) -> int:
    """cli.main(args) as `python -m selgrowth` runs it, then one line of spans."""
    import selgrowth.cli as cli

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.request = 0
    with tracer.span("request"):
        code = cli.main(args)
    sys.stdout.write(TRACE_MARK + json.dumps(tracer.export()) + "\n")
    return code


def main(argv: list) -> int:
    sys.path.insert(0, str(workloads.SRC))
    role = argv[0]
    if role == "setup":
        _, _, setup_s, import_s = workloads.setup(argv[1], int(argv[2]))
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
    elif role == "sweep":
        print(json.dumps(sweep(int(argv[1]), argv[2] == "1")))
    elif role == "call":
        return traced_call(argv[2:])
    else:
        print(f"unknown role {role!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
