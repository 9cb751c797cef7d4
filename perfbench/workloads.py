"""The benchmark's workloads: their inputs, one round of operations, and the
checks of what the operations wrote.

One operation is one ``harness.run_experiment`` call.  Round r runs every
method ``REPEATS[method]`` times, all with program seed
``PANEL[r % len(PANEL)]``, in an order shuffled by the benchmark seed.  The
cheap methods repeat so that each run times enough of them for a steady
median.  The first ``len(PANEL)`` rounds cover the seed panel once; every
later run of a (seed, method) pair must reproduce the first byte for byte,
and the quality figures come from the first runs.

The program's inputs are fixed panels, not drawn from the benchmark seed:
the final-particle quality of one program seed is heavy-tailed (on the star
target one method's KSD^2 ranges over two orders of magnitude across seeds)
and one dataset draw moves the logistic KSD^2 by about 20%, so medians over
a few seeds drawn per run would not repeat.  The benchmark seed shuffles the
order of operations in each round and draws the benchmark's own reference
samples, so runs with different seeds time the same work in varied order.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np

import oracles
from msvgd import cli, harness

METHODS = ("vanilla_svgd", "matrix_svgd_average", "matrix_svgd_mixture", "svn")
REFERENCE_N = 2000
# agreement of the program's MMD with the benchmark's, in sampling standard deviations
MMD_SAMPLING_SDS = 6.0
MMD_REFERENCE_SETS = 4
BANDWIDTH_RTOL = 0.05
LAPLACE_SDS = 5.0
ACCURACY_MARGIN = 0.03
PREDICTIVE_ATOL = 1e-12


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def read_particles(path: Path, iteration: int, n: int, d: int):
    """Parse a particle CSV with the benchmark's own reader; returns
    (positions, problem) where problem is None when the file is sound."""
    lines = path.read_text().splitlines()
    header = ["iter", "particle"] + [f"coord_{m}" for m in range(d)]
    if not lines or lines[0].split(",") != header:
        return None, f"{path}: bad header"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if rows.shape != (n, d + 2):
        return None, f"{path}: shape {rows.shape}, expected {(n, d + 2)}"
    if not np.all(rows[:, 0] == iteration) or not np.array_equal(rows[:, 1], np.arange(n)):
        return None, f"{path}: iteration or particle columns are wrong"
    if not np.all(np.isfinite(rows[:, 2:])):
        return None, f"{path}: non-finite coordinates"
    return rows[:, 2:], None


def _compare_bytes(first: Path, again: Path) -> list[str]:
    names = sorted(p.name for p in first.iterdir() if p.name != "timing.json")
    if names != sorted(p.name for p in again.iterdir() if p.name != "timing.json"):
        return [f"{again}: file set differs from {first}"]
    return [f"{again / name}: differs from the same seed's first run"
            for name in names if (first / name).read_bytes() != (again / name).read_bytes()]


class Workload:
    """Shared round bookkeeping; subclasses define the inputs and checks."""

    name = ""
    PANEL: tuple[int, ...] = ()
    REPEATS = {m: 1 for m in METHODS}
    n = 0
    dim = 0
    iters = 0
    checkpoints: tuple[int, ...] = ()

    def __init__(self, run_dir: Path, seed: int):
        self.run_dir = run_dir
        self.rng = np.random.default_rng([seed, 20191028])
        self.config_paths: dict[str, Path] = {}
        self.round_dirs: list[Path] = []
        self.outputs: list[tuple[int, str, Path]] = []  # (program seed, method, output dir)
        self.ksd: dict[str, list[float]] = {m: [] for m in METHODS}

    def config(self, method: str) -> dict:
        raise NotImplementedError

    def prepare(self) -> list[Path]:
        """Write the workload's inputs; returns the config files."""
        cfg_dir = self.run_dir / "configs"
        cfg_dir.mkdir(parents=True)
        for method in METHODS:
            path = cfg_dir / f"{method}.json"
            _write_json(path, self.config(method))
            self.config_paths[method] = path
        return list(self.config_paths.values())

    def run_round(self, index: int, warm_up: bool = False) -> None:
        program_seed = self.PANEL[index % len(self.PANEL)]
        round_dir = self.run_dir / ("warm-up" if warm_up else f"round{index:03d}")
        self.round_dirs.append(round_dir)
        order = [m for m in METHODS for _ in range(1 if warm_up else self.REPEATS[m])]
        self.rng.shuffle(order)
        for method, out in self._run(program_seed, round_dir, order, warm_up):
            if not warm_up:
                self.outputs.append((program_seed, method, out))

    def _run(self, program_seed, round_dir, order, warm_up):
        """Run the operations in ``order``; yields (method, output dir)."""
        for k, method in enumerate(order):
            raw = json.loads(self.config_paths[method].read_text())
            raw["seed"] = program_seed
            if warm_up:
                raw.update(iters=2, checkpoints=[0, 2])
            out = round_dir / f"{k:02d}-{method}"
            try:
                harness.run_experiment(harness.parse_config(raw), out_dir=str(out))
            except Exception as exc:  # counted by the operation timer; the round goes on
                print(f"perfbench: {method} seed {program_seed} failed: {exc!r}", file=sys.stderr)
            yield method, out

    def check(self) -> list[str]:
        """Check every operation's outputs; returns the problems found."""
        problems = []
        first_runs = {}
        for program_seed, method, out in self.outputs:
            if not (out / "metrics.json").is_file():
                continue  # a failed operation, counted apart
            first = first_runs.setdefault((program_seed, method), out)
            if first is not out:
                problems += _compare_bytes(first, out)
                continue
            doc = json.loads((out / "metrics.json").read_text())
            rows = {row["iter"]: row for row in doc["metrics"]}
            if doc["config"]["seed"] != program_seed or sorted(rows) != list(self.checkpoints):
                problems.append(f"{out}: config echo or checkpoint rows are wrong")
                continue
            snapshots, unreadable = {}, []
            for c in self.checkpoints:
                snapshots[c], problem = read_particles(out / f"particles_iter{c:06d}.csv", c,
                                                       self.n, self.dim)
                unreadable += [problem] if problem else []
            problems += unreadable or self.check_operation(method, snapshots, rows, out)
        return problems + self.check_panel()

    def check_operation(self, method, snapshots, rows, out) -> list[str]:
        raise NotImplementedError

    def check_panel(self) -> list[str]:
        return []

    def operations_written(self) -> int:
        return sum((out / "metrics.json").is_file() for _, _, out in self.outputs)


class _Star(Workload):
    dim = 2
    REFERENCE_SETS = 1

    def __init__(self, run_dir, seed):
        super().__init__(run_dir, seed)
        self.target = oracles.StarMixture()
        self.references: list[oracles.Reference] = []

    def config(self, method):
        return {"target": {"kind": "star_mixture"}, "method": method, "n": self.n,
                "iters": self.iters, "seed": 0, "checkpoints": list(self.checkpoints),
                "precond": {"floor_ratio": 0.05}, "mmd_reference_n": self.MMD_REFERENCE_N}

    def check(self):
        # drawn only now, so the timed rounds' peak memory is the program's
        self.references = [oracles.Reference(self.target.sample(REFERENCE_N, self.rng))
                           for _ in range(self.REFERENCE_SETS)]
        return super().check()

    def ksd_of(self, particles) -> float:
        return oracles.ksd_sq(particles, self.target.score(particles))


class StarCompare(_Star):
    """Criterion-1 traffic through ``msvgd compare``: n=50, 30 iterations,
    MMD against 2000 reference draws at iterations 0 and 30, seeds 0-9."""

    name = "star_compare"
    PANEL = tuple(range(10))
    n, iters, checkpoints = 50, 30, (0, 30)
    MMD_REFERENCE_N = REFERENCE_N
    REFERENCE_SETS = MMD_REFERENCE_SETS

    def __init__(self, run_dir, seed):
        super().__init__(run_dir, seed)
        self.mmd_rows = []  # (program value, benchmark values, output dir)
        self.program_final_mmd: dict[str, list[float]] = {m: [] for m in METHODS}

    def prepare(self):
        paths = super().prepare()
        self.warm_paths = {}
        for method in METHODS:
            path = self.run_dir / "configs" / f"warm-up_{method}.json"
            _write_json(path, {**self.config(method), "iters": 2, "checkpoints": [0, 2]})
            self.warm_paths[method] = path
        return paths

    def _run(self, program_seed, round_dir, order, warm_up):
        paths = self.warm_paths if warm_up else self.config_paths
        cli.main(["compare", *(str(paths[m]) for m in order), "--seed", str(program_seed),
                  "--out", str(round_dir), "--quiet"])
        return [(m, round_dir / m) for m in order]

    def check_operation(self, method, snapshots, rows, out):
        problems = []
        for c, x in snapshots.items():
            mmd = rows[c]["mmd"]
            if (mmd["n_x"], mmd["n_y"]) != (self.n, REFERENCE_N):
                problems.append(f"{out}: iteration {c} MMD sample sizes {mmd['n_x']}, {mmd['n_y']}")
            own_h = self.references[0].median_bandwidth(x)
            if abs(mmd["bandwidth"] - own_h) > BANDWIDTH_RTOL * own_h:
                problems.append(f"{out}: iteration {c} bandwidth {mmd['bandwidth']:.4g}, "
                                f"benchmark median trick gives {own_h:.4g}")
        final = rows[self.iters]["mmd"]
        own = [ref.mmd_sq(snapshots[self.iters], final["bandwidth"]) for ref in self.references]
        self.mmd_rows.append((final["value"], own, out))
        self.program_final_mmd[method].append(final["value"])
        table = (out.parent / "comparison.csv").read_text().splitlines()
        column = table[0].split(",").index(method)
        for line, c in zip(table[1:], self.checkpoints):
            if float(line.split(",")[column]) != rows[c]["mmd"]["value"]:
                problems.append(f"{out.parent}/comparison.csv: {method} at {c} differs from metrics.json")
        self.ksd[method].append(self.ksd_of(snapshots[self.iters]))
        return problems

    def check_panel(self):
        if not self.mmd_rows:
            return ["no MMD rows to check"]
        problems = []
        # the variance of MMD^2 against n_ref exact draws grows about linearly
        # in MMD^2; the factor is pooled over every row of the run
        ratio = np.mean([np.var(own, ddof=1) / max(np.mean(own), 1e-12) for _, own, _ in self.mmd_rows])
        for value, own, out in self.mmd_rows:
            mean = float(np.mean(own))
            sd = float(np.sqrt(ratio * max(mean, 1e-12) * (1.0 + 1.0 / len(own))))
            if abs(value - mean) > MMD_SAMPLING_SDS * sd:
                problems.append(f"{out}: program MMD^2 {value:.5f} vs benchmark {mean:.5f} "
                                f"(sampling sd {sd:.5f})")
        med = {m: statistics.median(v) for m, v in self.program_final_mmd.items()}
        if not med["matrix_svgd_mixture"] < med["matrix_svgd_average"] < med["vanilla_svgd"]:
            problems.append(f"median final MMD^2 is not ordered mixture < average < vanilla: {med}")
        return problems


class StarDynamics(_Star):
    """The same target at n=200 with scoring off, so the dynamics dominate."""

    name = "star_dynamics"
    PANEL = (0, 1, 2, 3, 4)
    REPEATS = {"vanilla_svgd": 4, "matrix_svgd_average": 2, "matrix_svgd_mixture": 1, "svn": 2}
    n, iters, checkpoints = 200, 10, (0, 5, 10)
    MMD_REFERENCE_N = 0

    def check_operation(self, method, snapshots, rows, out):
        if any(set(row) != {"iter"} for row in rows.values()):
            return [f"{out}: metric rows present although scoring is off"]
        reference = self.references[0]
        start, end = (reference.mmd_sq(snapshots[c], reference.median_bandwidth(snapshots[c]))
                      for c in (0, self.iters))
        self.ksd[method].append(self.ksd_of(snapshots[self.iters]))
        if not end < start:
            return [f"{out}: MMD^2 {end:.4f} at iteration {self.iters} is not below {start:.4f} at 0"]
        return []


class LogisticFisher(Workload):
    """Bayesian logistic regression, d=20, on a 1000-row CSV; full batch
    with the Fisher curvature."""

    name = "logistic_fisher"
    PANEL = (0, 1, 2, 3, 4)
    REPEATS = {"vanilla_svgd": 4, "matrix_svgd_average": 2, "matrix_svgd_mixture": 1, "svn": 1}
    n, iters, checkpoints = 100, 30, (0, 30)
    dim = 20
    ROWS = 1000
    DATA_SEED = 20191028
    TRUE_WEIGHTS = np.linspace(-1.0, 1.0, 20)

    def __init__(self, run_dir, seed):
        super().__init__(run_dir, seed)
        data_rng = np.random.default_rng(self.DATA_SEED)
        self.features = np.column_stack([np.ones(self.ROWS),
                                         data_rng.standard_normal((self.ROWS, self.dim - 1))])
        self.labels = (data_rng.random(self.ROWS)
                       < oracles.sigmoid(self.features @ self.TRUE_WEIGHTS)).astype(float)
        self.map, cov = oracles.newton_map(self.features, self.labels)
        self.laplace_sd = np.sqrt(np.diag(cov))
        self.true_accuracy = float(np.mean((self.features @ self.TRUE_WEIGHTS > 0) == (self.labels > 0.5)))
        self.data_path = self.run_dir / "data.csv"

    def config(self, method):
        return {"target": {"kind": "logistic_posterior", "data_path": str(self.data_path)},
                "method": method, "n": self.n, "iters": self.iters, "seed": 0,
                "checkpoints": list(self.checkpoints)}

    def prepare(self):
        self.run_dir.mkdir(parents=True, exist_ok=True)
        np.savetxt(self.data_path, np.column_stack([self.features, self.labels]),
                   delimiter=",", fmt="%.17g")
        return super().prepare()

    def check_operation(self, method, snapshots, rows, out):
        problems = []
        for c, x in snapshots.items():
            accuracy, log_lik = oracles.predictive(x, self.features, self.labels)
            got = rows[c]["predictive"]
            if (abs(got["accuracy"] - accuracy) > PREDICTIVE_ATOL
                    or abs(got["mean_log_likelihood"] - log_lik) > PREDICTIVE_ATOL):
                problems.append(f"{out}: iteration {c} predictive {got} != ({accuracy}, {log_lik})")
        final = snapshots[self.iters]
        worst = float(np.max(np.abs(final.mean(axis=0) - self.map) / self.laplace_sd))
        if worst > LAPLACE_SDS:
            problems.append(f"{out}: particle mean is {worst:.2f} Laplace sds from the MAP")
        accuracy = rows[self.iters]["predictive"]["accuracy"]
        if abs(accuracy - self.true_accuracy) > ACCURACY_MARGIN:
            problems.append(f"{out}: accuracy {accuracy:.3f} vs true weights {self.true_accuracy:.3f}")
        self.ksd[method].append(oracles.ksd_sq(final, oracles.logistic_score(final, self.features,
                                                                             self.labels)))
        return problems


WORKLOADS = {w.name: w for w in (StarCompare, StarDynamics, LogisticFisher)}
