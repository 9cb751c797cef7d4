"""Whole-run A/B timing of two msvgd checkouts in one interpreter.

    python3 tools/ab_runs.py A B [--rounds 10] [--workload NAME ...]

A and B are checkout roots (each holds ``src/msvgd``).  Both are imported
into this one process, as the packages ``msvgd_a`` and ``msvgd_b``, so the
two sides share the host's state at each moment: whole-run timings taken
in separate processes drift between runs far more than within one.  Each
round runs every method of every workload once per side, in a method order
shuffled per round by the round index, and times each
``harness.run_experiment`` call, as perfbench does, by wrapping the module
attribute.  ``star_compare`` runs a round's methods through one
``harness.compare`` per side, as ``msvgd compare`` does, so they share one
prepared MMD reference; the other workloads run one ``run_experiment``
call at a time.  The sides alternate compare by compare or call by call
(A first in even rounds, B first in odd ones).

The workloads have the shapes of perfbench's (same configs and seed
panels, one BLAS thread): ``star_compare`` (n=50, 30 iterations, MMD
against 2000 reference draws at iterations 0 and 30, every method of a
round on one program seed), ``star_dynamics``
(n=200, 10 iterations, scoring off) and ``logistic_fisher`` (20-D logistic
posterior on a 1000-row CSV, Fisher curvature).  Outputs are written to a
temporary directory, as a run would write them.

Prints one JSON object: per workload, whether the two sides' first-round
output trees are the same bytes (``record_identity``; ``comparison.csv``
included), and per method each side's seconds and their median and
quartiles, B's median over A's and in how many of the paired rounds B was
faster.  Run it with the same checkout as A and B to see the tool's own
spread: a claimed gain should exceed it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one process, no extra threads, as perfbench runs

import argparse
import importlib
import importlib.util
import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

METHODS = ("vanilla_svgd", "matrix_svgd_average", "matrix_svgd_mixture", "svn")
LOGISTIC_ROWS, LOGISTIC_DIM, LOGISTIC_SEED = 1000, 20, 20191028


def star_config(n, iters, checkpoints, mmd_reference_n):
    def config(method, seed, data_path):
        return {"target": {"kind": "star_mixture"}, "method": method, "n": n, "iters": iters,
                "seed": seed, "checkpoints": checkpoints, "precond": {"floor_ratio": 0.05},
                "mmd_reference_n": mmd_reference_n}
    return config


def logistic_config(method, seed, data_path):
    return {"target": {"kind": "logistic_posterior", "data_path": str(data_path)},
            "method": method, "n": 100, "iters": 30, "seed": seed, "checkpoints": [0, 30]}


# name: (config builder, program seed panel)
WORKLOADS = {
    "star_compare": (star_config(50, 30, [0, 30], 2000), tuple(range(10))),
    "star_dynamics": (star_config(200, 10, [0, 5, 10], 0), (0, 1, 2, 3, 4)),
    "logistic_fisher": (logistic_config, (0, 1, 2, 3, 4)),
}


def write_logistic_data(path: Path) -> None:
    """perfbench's logistic dataset: an intercept and 19 standard normal
    features, labels drawn from weights linspace(-1, 1, 20)."""
    rng = np.random.default_rng(LOGISTIC_SEED)
    feats = np.column_stack([np.ones(LOGISTIC_ROWS),
                             rng.standard_normal((LOGISTIC_ROWS, LOGISTIC_DIM - 1))])
    z = feats @ np.linspace(-1.0, 1.0, LOGISTIC_DIM)
    labels = (rng.random(LOGISTIC_ROWS) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    np.savetxt(path, np.column_stack([feats, labels]), delimiter=",", fmt="%.17g")


def load_harness(root: str, name: str):
    """``msvgd.harness`` of the checkout at ``root``, imported as ``name``."""
    init = Path(root).resolve() / "src" / "msvgd" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_runs: no msvgd sources under {root}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.harness")


# the workloads whose methods one ``harness.compare`` runs
COMPARED = ("star_compare",)


def timed_runs(harness, raws, out: Path, through_compare: bool) -> dict[str, float]:
    """Seconds of each ``harness.run_experiment`` call, by method, for the
    configs ``raws``: run through one ``harness.compare`` into ``out``, or
    each in its own call into ``out/<method>``."""
    configs = [harness.parse_config(raw) for raw in raws]
    run = harness.run_experiment
    seconds = {}

    def timed(config, *args, **kwargs):
        start = time.perf_counter()
        record = run(config, *args, **kwargs)
        seconds[config.method] = time.perf_counter() - start
        return record

    harness.run_experiment = timed
    try:
        if through_compare:
            harness.compare(configs, out)
        else:
            for config in configs:
                harness.run_experiment(config, out_dir=str(out / config.method))
    finally:
        harness.run_experiment = run
    return seconds


def paired_runs(sides: dict, order, workload: str, methods, seed: int, root, data_path,
                **overrides) -> list[tuple[str, str, float]]:
    """(side, method, seconds) of every run of one round of ``workload`` on
    program seed ``seed``, each side's outputs under ``root/<side>/<workload>``:
    the methods in one ``compare`` per side for a ``COMPARED`` workload, else
    one call per method, the sides taken in ``order`` compare by compare or
    call by call.  ``overrides`` replace config keys."""
    config = WORKLOADS[workload][0]
    raws = [{**config(m, seed, data_path), **overrides} for m in methods]
    through_compare = workload in COMPARED
    timed = []
    for unit in [raws] if through_compare else [[raw] for raw in raws]:
        for s in order:
            runs = timed_runs(sides[s], unit, Path(root, s, workload), through_compare)
            timed += [(s, m, t) for m, t in runs.items()]
    return timed


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
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    names = args.workload or list(WORKLOADS)
    sides = {"a": load_harness(args.a, "msvgd_a"), "b": load_harness(args.b, "msvgd_b")}
    seconds = {(w, m, s): [] for w in names for m in METHODS for s in sides}
    records = {}
    with tempfile.TemporaryDirectory() as scratch:
        data_path = Path(scratch, "logistic.csv")
        write_logistic_data(data_path)
        for w in names:  # warm-up: one short run per side and method
            paired_runs(sides, ("a", "b"), w, METHODS, WORKLOADS[w][1][0], Path(scratch, "warm-up"),
                        data_path, iters=2, checkpoints=[0, 2])
        for r in range(args.rounds):
            order = ("a", "b") if r % 2 == 0 else ("b", "a")
            for w in names:
                methods = list(METHODS)
                random.Random(r).shuffle(methods)
                panel = WORKLOADS[w][1]
                for s, m, t in paired_runs(sides, order, w, methods, panel[r % len(panel)], scratch,
                                           data_path):
                    seconds[w, m, s].append(t)
            if r == 0:
                records = {w: record_identity(Path(scratch, "a", w), Path(scratch, "b", w)) for w in names}
    report = {"a": str(Path(args.a).resolve()), "b": str(Path(args.b).resolve()),
              "rounds": args.rounds, "blas_threads": 1, "workloads": {}}
    for w in names:
        cells = report["workloads"].setdefault(w, {"first_round_records": records[w]})
        for m in METHODS:
            a, b = seconds[w, m, "a"], seconds[w, m, "b"]
            cells[m] = {"a": quartiles(a), "b": quartiles(b),
                        "b_over_a": statistics.median(b) / statistics.median(a),
                        "b_faster_pairs": sum(y < x for x, y in zip(a, b)),
                        "a_s": a, "b_s": b}
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
