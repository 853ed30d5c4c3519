"""End-to-end benchmark of the paper artifacts, with a traced per-layer split.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`perfbench.workloads`) as a batch job: every
sample is a fresh interpreter on the serial backend, the outputs are
checked against recorded reference cells, and the last line of standard
output is one JSON result object.  ``BENCHMARK.json`` at the repository
root declares the workloads and metrics; ``perfbench/meta.json`` records
which end-to-end metric each layer metric should move and the machine
the reference figures were taken on.
"""
