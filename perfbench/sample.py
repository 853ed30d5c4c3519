"""One workload sample in a fresh interpreter.

    python3 -m perfbench.sample --workload NAME --seed N --trace 0|1 --out FILE

The runner starts this once per sample so that every sample begins with
cold dataset caches, as a CLI invocation does.  It writes one JSON
object to ``--out``; with ``--trace 1`` it also writes the spans as
JSONL next to it.
"""

from __future__ import annotations

import argparse
import json
import resource
import warnings
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    from repro.exceptions import ConvergenceWarning

    from perfbench.tracing import Tracer, install, layer_metrics, layer_self_times
    from perfbench.workloads import WORKLOADS

    # Short runs on small datasets hit iteration caps by design.
    warnings.simplefilter("ignore", ConvergenceWarning)
    tracer = Tracer(enabled=bool(args.trace))
    install(tracer)
    workload = WORKLOADS[args.workload]
    with tracer.span("workload", name=args.workload) as root:
        sample = workload(args.seed, tracer, args.out.parent)
    result = {
        "wall_s": sample.wall_s,
        "resume_ms": sample.resume_ms,
        "online_s": tracer.online_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cells": sample.cells,
        "checks": sample.checks,
    }
    if root is not None:
        trace_path = args.out.with_suffix(".jsonl")
        tracer.write_jsonl(trace_path, f"{args.workload}-{args.seed}")
        result["trace_path"] = str(trace_path)
        result["traced_total_s"] = root["end"] - root["start"]
        result["layers"] = layer_metrics(tracer)
        result["self_times"] = layer_self_times(tracer.spans)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
