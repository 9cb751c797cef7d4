"""Whole-run A/B timing of two msvgd checkouts in one interpreter, by the
benchmark's own workloads, operation timer and output checks.

    python3 tools/ab_runs.py A B [--rounds 10] [--workload NAME ...]

A and B are checkout roots (each holds ``src/msvgd``).  Both are imported
into this one process, as the packages ``msvgd_a`` and ``msvgd_b``, so the
two sides share the host's state at each moment: whole-run timings taken
in separate processes drift between runs far more than within one.

The benchmark is the ``perfbench/`` of the checkout that holds this script,
imported read-only.  Each side runs its own perfbench ``Workload``, both
built from one benchmark seed, so every round, the warm-up included,
shuffles the two sides' operations into the same order, and both sides
read one logistic dataset file.  perfbench's ``OpTimer`` times every
``run_experiment`` call on each side's modules.  The sides take turns
operation by operation: one ``msvgd compare`` on star_compare, one
``run_experiment`` call on the other workloads, A first in even rounds and
B first in odd ones.  ``--rounds`` must cover the longest seed panel of the
chosen workloads (10 with star_compare), because the output checks judge
the whole panel.  Outputs are written to a temporary directory, with BLAS
on one thread.

Prints one JSON object: per workload, each side's verdict as perfbench
reaches it (``correct``, ``problems``, ``attempted``, ``failed``: the
oracle self-test, the workload's output checks and the operation count),
whether the two sides' first-round output trees are the same bytes
(``first_round_records``), and per method each side's operation seconds,
their median and quartiles, B's median over A's and in how many of the
paired operations B was faster.  Run it with the same checkout as A and B
to see the tool's own spread: a claimed gain should exceed it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported, as perfbench runs

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_SEED = 0


def _exec(path: Path, name: str):
    """The module at ``path``, executed as ``name`` without entering ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_package(root, name: str):
    """The ``msvgd`` package of the checkout at ``root``, imported as
    ``name``, with its ``harness`` and ``cli`` submodules loaded."""
    init = Path(root).resolve() / "src" / "msvgd" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_runs: no msvgd sources under {root}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def load_benchmark(package):
    """perfbench's ``run`` and ``workloads`` modules, with ``workloads``
    importing ``package`` as msvgd.  No bytecode is written under
    ``perfbench/``, and ``sys.path`` and ``sys.modules`` are left as they
    were."""
    saved = {name: sys.modules.get(name) for name in ("oracles", "msvgd")}
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        run = _exec(BENCH / "run.py", "perfbench_run")
        sys.modules.update(oracles=_exec(BENCH / "oracles.py", "perfbench_oracles"), msvgd=package)
        workloads = _exec(BENCH / "workloads.py", "perfbench_workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module
    return run, workloads


def _round(bench, index: int, warm_up: bool = False):
    """``bench.run_round(index, warm_up)``, one operation per step.
    ``run_round`` runs with ``_run`` stubbed, so perfbench's own bookkeeping
    picks the program seed, the round directory and the shuffled order; the
    workload's ``_run`` then runs the operations.  ``StarCompare._run`` runs
    its whole ``msvgd compare`` on the first step."""
    calls = []
    bench._run = lambda *args: calls.append(args) or ()
    try:
        bench.run_round(index, warm_up)
    finally:
        del bench._run
    program_seed = calls[0][0]
    for method, out in bench._run(*calls[0]):
        if not warm_up:
            bench.outputs.append((program_seed, method, out))
        yield method


def _alternate(workloads, sides: dict, steps: dict) -> None:
    """Step each side's round in turns, in the order of ``steps``, with the
    ``workloads`` module bound to that side's ``harness`` and ``cli``."""
    while steps:
        for s in list(steps):
            workloads.harness, workloads.cli = sides[s].harness, sides[s].cli
            if next(steps[s], None) is None:
                del steps[s]


def paired_rounds(benchmark, sides: dict, benches: dict, rounds: int) -> dict:
    """Prepare the perfbench workloads ``benches`` ({"a": workload, "b":
    workload}, built from one benchmark seed), run their warm-up and
    ``rounds`` rounds on ``sides`` ({"a": package, "b": package}) in turns,
    and check each side's outputs; returns the workload's report."""
    run, workloads = benchmark
    a, b = benches["a"], benches["b"]
    if hasattr(a, "data_path"):  # one dataset file, so the records' config echoes agree
        b.data_path = a.data_path
    for bench in (a, b):
        bench.prepare()
    _alternate(workloads, sides, {s: _round(benches[s], 0, warm_up=True) for s in "ab"})
    timers = {s: run.OpTimer([p.harness, p.cli, p]) for s, p in sides.items()}
    try:
        for r in range(rounds):
            order = "ab" if r % 2 == 0 else "ba"
            _alternate(workloads, sides, {s: _round(benches[s], r) for s in order})
    finally:
        for timer in timers.values():
            timer.uninstall()
    verdicts = {}
    for s, bench in benches.items():
        problems = [f"oracle self-test failed: {name}" for name in workloads.oracles.self_test(sides[s])]
        problems += bench.check()
        if timers[s].attempted - timers[s].failed != bench.operations_written():
            problems.append("operation count does not match the outputs written")
        verdicts[s] = {"correct": not problems, "problems": problems,
                       "attempted": timers[s].attempted, "failed": timers[s].failed}
    # round_dirs[0] is the warm-up
    cells = {"verdict": verdicts, "first_round_records": record_identity(a.round_dirs[1], b.round_dirs[1])}
    for m in workloads.METHODS:
        a_s, b_s = timers["a"].seconds.get(m, []), timers["b"].seconds.get(m, [])
        if min(len(a_s), len(b_s)) < 2:  # failed operations; the verdicts say which
            continue
        cells[m] = {"a": quartiles(a_s), "b": quartiles(b_s),
                    "b_over_a": statistics.median(b_s) / statistics.median(a_s),
                    "b_faster_pairs": sum(y < x for x, y in zip(a_s, b_s)), "a_s": a_s, "b_s": b_s}
    return cells


def record_identity(a: Path, b: Path) -> dict:
    """Compare two run output directories, ``timing.json`` aside: whether
    they hold the same files with the same bytes, the files that differ or
    are on one side only, and the largest |difference| of a particle
    coordinate over the particle CSVs that differ (inf for a change of
    shape, None if no particle CSV differs)."""
    def files(root):
        return {p.relative_to(root): p for p in root.rglob("*") if p.is_file() and p.name != "timing.json"}

    fa, fb = files(a), files(b)
    differing = sorted(str(name) for name in fa.keys() | fb.keys()
                       if name not in fa or name not in fb or fa[name].read_bytes() != fb[name].read_bytes())
    deltas = []
    for name in map(Path, differing):
        if name.name.startswith("particles_") and name in fa and name in fb:
            x, y = (np.loadtxt(side[name], delimiter=",", skiprows=1, ndmin=2)[:, 2:] for side in (fa, fb))
            deltas.append(float(np.max(np.abs(x - y))) if x.shape == y.shape else float("inf"))
    return {"identical": not differing, "differing": differing, "max_abs_diff": max(deltas, default=None)}


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    sides = {"a": load_package(args.a, "msvgd_a"), "b": load_package(args.b, "msvgd_b")}
    benchmark = load_benchmark(sides["a"])
    known = benchmark[1].WORKLOADS
    names = args.workload or list(known)
    if not set(names) <= set(known):
        ap.error(f"--workload must be one of {sorted(known)}")
    if args.rounds < max(len(known[w].PANEL) for w in names):
        ap.error("--rounds must cover the seed panel of every chosen workload")
    report = {"a": str(Path(args.a).resolve()), "b": str(Path(args.b).resolve()),
              "rounds": args.rounds, "blas_threads": 1, "workloads": {}}
    with tempfile.TemporaryDirectory() as scratch:
        for w in names:
            benches = {s: known[w](Path(scratch, w, s), BENCH_SEED) for s in "ab"}
            report["workloads"][w] = paired_rounds(benchmark, sides, benches, args.rounds)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
