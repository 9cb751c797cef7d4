"""msvgd benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload star_compare --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; msvgd is imported from ``src``.
The run writes its configs, data and program outputs under
``perfbench/out/<workload>-seed<seed>-trace<0|1>/`` and, in sequence:

1. writes the workload's inputs (configs; for ``logistic_fisher`` also the
   dataset); ``--seed`` shuffles the order of operations in each round and
   draws the benchmark's own reference samples,
2. times set-up (import msvgd, parse every config, build every target) in
   ``SETUP_REPEATS`` fresh interpreters and keeps the median,
3. runs one shortened warm-up round,
4. runs whole rounds (every method, the cheap ones repeated) until
   ``--seconds`` have passed and the workload's seed panel has been covered
   once,
5. reads the peak resident memory, then checks every output against the
   benchmark's own oracles.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps every
public function of each msvgd module in a span, reports per-layer metrics
per round and writes the spans to ``trace.json``.  The last line of stdout
is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one process, no extra threads

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from msvgd.harness import build_target, parse_config
for path in sys.argv[2:]:
    with open(path) as fh:
        build_target(parse_config(fh.read()))
print(time.perf_counter() - start)
"""


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _setup_seconds(config_paths) -> float:
    """Median wall time of import + parse + build in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *map(str, config_paths)],
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class OpTimer:
    """Times each ``harness.run_experiment`` call at every name it is
    looked up by (``harness.compare`` and ``cli`` both call it)."""

    def __init__(self, modules):
        self.seconds: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        harness = modules[0]
        self._original = harness.run_experiment
        self._sites = [m for m in modules if m.__dict__.get("run_experiment") is self._original]
        for site in self._sites:
            site.run_experiment = self._timed

    def _timed(self, config, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            record = self._original(config, *args, **kwargs)
        except BaseException:
            self.failed += 1
            raise
        self.seconds.setdefault(config.method, []).append(time.perf_counter() - start)
        return record

    def reset(self):
        self.seconds.clear()
        self.attempted = self.failed = 0

    def uninstall(self):
        for site in self._sites:
            site.run_experiment = self._original


def _bytes_under(paths) -> int:
    return sum(f.stat().st_size for p in paths for f in p.rglob("*") if f.is_file())


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "msvgd" / "__init__.py").is_file():
        print(f"perfbench: no msvgd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import msvgd
    from msvgd import cli, harness

    import oracles
    import tracer as tracing
    from workloads import METHODS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](run_dir, args.seed)

    phase = time.perf_counter()
    config_paths = workload.prepare()
    setup_s = _setup_seconds(config_paths)
    print(f"perfbench: inputs and set-up probes took {time.perf_counter() - phase:.1f} s",
          file=sys.stderr)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    timer = OpTimer([harness, cli, msvgd])
    workload.run_round(0, warm_up=True)
    timer.reset()
    if tracer:
        tracer.reset()
    start = time.perf_counter()
    rounds = 0
    while rounds < len(workload.PANEL) or time.perf_counter() - start < args.seconds:
        workload.run_round(rounds)
        rounds += 1
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timer.uninstall()
    if tracer:
        tracer.uninstall()

    print(f"perfbench: {rounds} rounds took {measured_s:.1f} s", file=sys.stderr)
    phase = time.perf_counter()
    problems = [f"oracle self-test failed: {name}" for name in oracles.self_test(msvgd)]
    problems += workload.check()
    print(f"perfbench: checks took {time.perf_counter() - phase:.1f} s", file=sys.stderr)
    if timer.attempted - timer.failed != workload.operations_written():
        problems.append("operation count does not match the outputs written")
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)

    run_s = {m: statistics.median(timer.seconds.get(m, [float("nan")])) for m in METHODS}
    if tracer:
        persist_bytes = _bytes_under(workload.round_dirs[1:])
        units = dict(tracing.per_layer_metric_names())
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in tracer.summarize(rounds, persist_bytes).items()}
        tracer.write(run_dir / "trace.json")
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        for m in METHODS:
            metrics[f"{m}.run_s"] = {"value": run_s[m], "unit": "s"}
        for m in METHODS:
            ksd = workload.ksd[m]
            metrics[f"{m}.ksd_sq"] = {"value": statistics.median(ksd) if ksd else float("nan"),
                                      "unit": "KSD2"}
    result = {"correct": not problems, "attempted": timer.attempted, "failed": timer.failed,
              "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {**result, "rounds": rounds, "measured_s": measured_s, "run_s": run_s,
         "op_seconds": timer.seconds}, indent=2) + "\n")
    for round_dir in workload.round_dirs:
        shutil.rmtree(round_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
