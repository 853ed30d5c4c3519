"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload table2_accuracy --seed 2012 --seconds 50 --trace 0

Run from the repository root (the directory holding ``src/repro`` and
``BENCHMARK.json``).  Nothing is installed or built: samples import the
package from ``src``.

A run is a closed loop with one client: samples execute one after the
other, each in a fresh interpreter on the serial backend, with BLAS
pinned to one thread.  ``--trace 0`` starts samples while they should
end within ``--seconds`` (at least three) and reports the ``end_to_end``
metrics of ``BENCHMARK.json`` as medians over samples.  The runner times
the fixed kernel of ``perfbench/calibrate.py`` before the first sample
and after each one; ``wall_rel`` is the run's total artifact wall time
over the total time of those calibration passes, which cancels much of
the speed drift of a shared host.  The raw ``wall_s`` is printed beside it.
``--trace 1`` runs two
plain samples and one traced sample and reports the ``per_layer``
metrics of the traced one.  Every sample's outputs are checked against
the reference cells recorded for the seed in ``perfbench/reference/``,
or, for a seed without a reference, against the run's first sample.
``--record`` stores the first sample's cells as the seed's reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.tracing import absent_reason  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, compare_cell  # noqa: E402

REFERENCE_DIR = ROOT / "perfbench" / "reference"
WORK_DIR = ROOT / ".perfbench_work"

#: Interpreter spawns timed per run for ``setup_s`` (after one warm-up
#: spawn that compiles bytecode in a fresh checkout).
SETUP_SPAWNS = 5
MIN_SAMPLES = 3
#: Plain samples a traced run takes as the base of ``trace.overhead_frac``.
TRACED_RUN_PLAIN_SAMPLES = 2
SAMPLE_TIMEOUT_S = 150
#: Metrics with at most this many samples list them all.
LISTED_SAMPLES = 10

SETUP_PROBE = (
    "import sys, time; import repro; t = time.monotonic(); import numpy; "
    "print(t, len(sys.modules), numpy.__version__)"
)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # The serial backend is one client on one core; a multi-threaded
    # BLAS would put the other core's load into every timing.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def setup_probe(env: Dict[str, str]) -> Tuple[float, int, str]:
    """Seconds from spawning an interpreter until ``import repro`` returns."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    imported, modules, numpy_version = proc.stdout.split()
    return float(imported) - start, int(modules), numpy_version


def run_sample(workload: str, seed: int, trace: int, env, index: int) -> Optional[dict]:
    """One sample in a fresh interpreter; ``None`` when it failed."""
    out = WORK_DIR / f"{workload}-{seed}-{os.getpid()}-{index}.json"
    log = out.with_suffix(".log")
    command = [
        sys.executable, "-m", "perfbench.sample", "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--out", str(out),
    ]
    try:
        with open(log, "w", encoding="utf-8") as handle:
            proc = subprocess.run(
                command, env=env, cwd=ROOT, stdout=handle, stderr=subprocess.STDOUT,
                timeout=SAMPLE_TIMEOUT_S,
            )
        failed = proc.returncode != 0 or not out.exists()
    except subprocess.TimeoutExpired:
        failed = True
    if failed:
        tail = log.read_text(encoding="utf-8").splitlines()[-20:]
        print(f"sample {index} failed:", *tail, sep="\n  ", file=sys.stderr)
        return None
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    log.unlink()
    return result


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> Optional[dict]:
    path = reference_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))


def record_reference(workload: str, seed: int, cells: dict) -> None:
    path = reference_path(workload)
    data = {"workload": workload, "seeds": {}}
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    data["seeds"][str(seed)] = cells
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda item: int(item[0])))
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def check_outputs(samples: List[Optional[dict]], reference: Optional[dict]) -> Tuple[int, List[str]]:
    """(attempted, failures) over every sample's cells and checks."""
    good = [s for s in samples if s is not None]
    expected = reference if reference is not None else (good[0]["cells"] if good else {})
    attempted = 0
    failures: List[str] = []
    for index, sample in enumerate(samples):
        if sample is None:
            attempted += max(len(expected), 1)
            failures.extend(f"sample {index}: {name} (sample failed)" for name in expected or ["?"])
            continue
        names = set(expected) | set(sample["cells"])
        for name in sorted(names):
            attempted += 1
            if name not in expected or name not in sample["cells"]:
                failures.append(f"sample {index}: {name} missing on one side")
            elif not compare_cell(sample["cells"][name], expected[name]):
                failures.append(f"sample {index}: {name} differs from the reference")
        for name, passed in sorted(sample["checks"].items()):
            attempted += 1
            if not passed:
                failures.append(f"sample {index}: check {name} failed")
    return attempted, failures


def end_to_end(samples: List[dict], setups: List[float], calibrations: List[float]) -> Dict[str, List[float]]:
    """Per-metric sample lists; each metric's value is their median."""
    return {
        "wall_rel": [sum(s["wall_s"] for s in samples) / sum(calibrations)],
        "setup_s": setups,
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }


def print_series(name: str, values: List[float], unit: str) -> None:
    print(f"{name}: {stats.describe(values, unit)}")
    if len(values) <= LISTED_SAMPLES:
        print("  samples: " + " ".join(f"{v:.4g}" for v in values))


def print_self_table(traced: dict) -> None:
    total = traced["traced_total_s"]
    table = dict(traced["self_times"])
    unattributed = table.pop("workload", 0.0)
    print(f"per-layer self time of the traced sample (total {total:.4f} s):")
    for layer, self_s in sorted(table.items(), key=lambda item: -item[1]):
        print(f"  {layer:34s} {self_s:10.4f} s  {100 * self_s / total:6.2f} %")
    print(f"  {'unattributed (benchmark code)':34s} {unattributed:10.4f} s  {100 * unattributed / total:6.2f} %")
    accounted = sum(table.values()) + unattributed
    print(f"  layers + unattributed = {accounted:.6f} s of {total:.6f} s traced")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store the cells as the seed's reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/repro package to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK_DIR.mkdir(exist_ok=True)
    env = child_env()

    setup_probe(env)
    probes = [setup_probe(env) for _ in range(SETUP_SPAWNS)]
    setups = [p[0] for p in probes]
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload, "not in BENCHMARK.json")
    print(
        f"workload {args.workload} seed {args.seed}: {why}\n"
        f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {probes[0][2]}, BLAS threads 1, serial backend"
    )

    start = time.monotonic()
    if args.trace:
        samples = [run_sample(args.workload, args.seed, 0, env, i) for i in range(TRACED_RUN_PLAIN_SAMPLES)]
        traced = run_sample(args.workload, args.seed, 1, env, len(samples))
        checked = samples + [traced]
    else:
        from perfbench import calibrate

        samples = []
        calibrations = [calibrate.seconds()]
        durations: List[float] = []
        # Start another sample only while it should end within --seconds.
        while len(samples) < MIN_SAMPLES or (
            time.monotonic() - start + statistics.median(durations) <= args.seconds
        ):
            began = time.monotonic()
            samples.append(run_sample(args.workload, args.seed, 0, env, len(samples)))
            calibrations.append(calibrate.seconds())
            durations.append(time.monotonic() - began)
        traced = None
        checked = samples
    good = [s for s in samples if s is not None]
    if not good or (args.trace and traced is None):
        print("error: no sample completed", file=sys.stderr)
        return 1

    # Recording checks the samples against each other, not the old reference.
    reference = None if args.record else load_reference(args.workload, args.seed)
    attempted, failures = check_outputs(checked, reference)
    basis = "recorded reference" if reference is not None else "the run's first sample (no reference for this seed)"
    print(f"outputs checked against {basis}: {attempted} cells and checks")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(f"error_rate = {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    if args.record:
        if failures:
            print("error: samples disagree; reference not recorded", file=sys.stderr)
            return 1
        record_reference(args.workload, args.seed, good[0]["cells"])
        print(f"recorded reference cells for seed {args.seed} in {reference_path(args.workload)}")

    metrics: Dict[str, dict] = {}
    if not args.trace:
        series = end_to_end(good, setups, calibrations)
        for declared in spec["end_to_end"]:
            values = series[declared["name"]]
            print_series(declared["name"], values, declared["unit"])
            metrics[declared["name"]] = {"value": statistics.median(values), "unit": declared["unit"]}
        # Not gated: on a shared host their run-to-run spread exceeds any allowed bound.
        print_series("wall_s (not gated)", [s["wall_s"] for s in good], "s")
        print_series("calibration_s (not gated)", calibrations, "s")
        print_series("online_s (not gated)", [s["online_s"] for s in good], "s")
    else:
        untraced_wall = statistics.median(s["wall_s"] for s in good)
        layers = dict(traced["layers"])
        layers["setup.modules_loaded"] = probes[0][1]
        layers["trace.overhead_frac"] = traced["wall_s"] / untraced_wall - 1
        resume_ms = [t for sample in good for t in sample["resume_ms"]]
        layers["sweep.resume_ms"] = statistics.median(resume_ms) if resume_ms else 0.0
        if resume_ms:
            print(f"sweep.resume_ms of the untraced samples: {stats.describe(resume_ms, 'ms')}")
        print_self_table(traced)
        print(f"trace written to {traced['trace_path']}")
        for declared in spec["per_layer"]:
            name = declared["name"]
            value = layers[name]
            reason = absent_reason(name, layers)
            note = f"  (absent: {reason})" if reason else ""
            print(f"{name} = {value:.6g} {declared['unit']}{note}")
            metrics[name] = {"value": value, "unit": declared["unit"]}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
