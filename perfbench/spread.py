"""Run one workload at several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload figure5_scalability --seeds 1 2 3 4 5

Each seed is one untraced run of ``perfbench/run.py`` for
``run_seconds`` (from ``BENCHMARK.json``).  The spread is the distance
between the first and third quartile of the per-run values
(``statistics.quantiles(values, n=4)``) as a share of their median; the
benchmark is steady when every spread stays below a third of the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {values}", flush=True)

    print(f"{'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for declared in spec["end_to_end"]:
        values = [run["metrics"][declared["name"]]["value"] for run in runs]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        flag = "" if spread < declared["bound"] / 3 else "  above bound/3"
        print(
            f"{declared['name']:14s} {statistics.median(values):12.6g} "
            f"{spread:8.4f} {declared['bound']:6.2f}{flag}"
        )
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
