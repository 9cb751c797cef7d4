"""Write the byte-identity record panel: 60 runs through ``msvgd.cli.main``.

    python3 tools/record_panel.py OUT

msvgd is imported from the ``src`` directory of the checkout that holds this
script.  OUT must be empty or absent.  The panel is

- the criterion-1 config (``star_mixture``, n=50, 30 iterations, 2000
  reference draws, ``floor_ratio`` 0.05) for 4 methods x seeds 0-9,
- ``gaussian``, ``sine`` and ``double_banana`` at n=50, 30 iterations and
  2000 reference draws for 4 methods,
- a 20-D ``gaussian`` with mean 0 and covariance diag(10^(2i/19)), i = 0..19
  (logspace(0, 2, 20)), at the same settings for 4 methods,
- a 4-D, 200-row ``logistic_posterior`` with minibatch 50 for 4 methods.

The logistic dataset is drawn from a fixed seed with the stdlib and written
to OUT; every config and output path is relative to OUT, so the config echo
in each ``metrics.json`` does not depend on where the checkout lives.

The script also writes ``OUT/errors.txt``: the exit code and stderr of
``msvgd run`` on each of a fixed list of bad configs (``BAD_CONFIGS``), run
in a temporary directory so that OUT holds nothing else of theirs.  To check
that two checkouts write the same records, run the script from each into its
own directory and compare with

    diff -r -x timing.json -x errors.txt A B

and ``diff A/errors.txt B/errors.txt`` shows which error messages changed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # thread count must not change summation order

import contextlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from msvgd import cli  # noqa: E402
from msvgd.dynamics import METHODS  # noqa: E402

TOY_TARGETS = ("gaussian", "sine", "double_banana")
LOGISTIC_DATA = "logistic.csv"
LOGISTIC_SEED = 20191028


def write_logistic_data(path: Path, rows: int = 200, dim: int = 4) -> None:
    """Standard normal features and labels drawn from a logistic model with
    standard normal weights; floats written by ``repr`` round-trip exactly."""
    rng = random.Random(LOGISTIC_SEED)
    weights = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    lines = []
    for _ in range(rows):
        x = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        z = sum(w * v for w, v in zip(weights, x))
        label = int(rng.random() < 1.0 / (1.0 + math.exp(-z)))
        lines.append(",".join(repr(v) for v in x) + f",{label}")
    path.write_text("\n".join(lines) + "\n")


def panel_configs() -> list[dict]:
    """The 60 run configs, each with its own relative ``out_dir``."""
    base = {"n": 50, "iters": 30, "checkpoints": [0, 30], "mmd_reference_n": 2000}
    configs = []
    for seed in range(10):
        for method in METHODS:
            configs.append({**base, "target": "star_mixture", "method": method, "seed": seed,
                            "precond": {"floor_ratio": 0.05},
                            "out_dir": f"criterion1/seed{seed}/{method}"})
    for kind in TOY_TARGETS:
        for method in METHODS:
            configs.append({**base, "target": kind, "method": method,
                            "out_dir": f"toy/{kind}/{method}"})
    cov = [[10.0 ** (2.0 * i / 19) if i == j else 0.0 for j in range(20)] for i in range(20)]
    gaussian_d20 = {"kind": "gaussian", "mean": [0.0] * 20, "cov": cov}
    for method in METHODS:
        configs.append({**base, "target": gaussian_d20, "method": method,
                        "out_dir": f"gaussian_d20/{method}"})
    logistic = {"kind": "logistic_posterior", "data_path": LOGISTIC_DATA, "minibatch_size": 50}
    for method in METHODS:
        configs.append({**base, "target": logistic, "method": method, "mmd_reference_n": 0,
                        "out_dir": f"logistic/{method}"})
    return configs


# (label, overrides of a valid 30-iteration star_mixture config): one bad key
# each, plus a gaussian whose Adagrad accumulator overflows at iteration 0, one
# whose initial draw overflows, one whose draw's MMD distances overflow and a
# sine whose svn curvature overflows
BAD_CONFIGS = (
    ("n_float", {"n": 3.0}),
    ("n_zero", {"n": 0}),
    ("iters_negative", {"iters": -1}),
    ("seed_negative", {"seed": -1}),
    ("checkpoints_empty", {"checkpoints": []}),
    ("checkpoints_beyond_iters", {"checkpoints": [0, 31]}),
    ("checkpoints_negative", {"checkpoints": [-1]}),
    ("checkpoints_float", {"checkpoints": [0, 2.0]}),
    ("init_scale_zero", {"init": {"scale": 0}}),
    ("init_scale_inf", {"init": {"scale": float("inf")}}),
    ("init_mean_inf", {"init": {"mean": float("inf")}}),
    ("init_mean_entry_inf", {"init": {"mean": [0.0, float("inf")]}}),
    ("init_mean_length", {"init": {"mean": [0.0, 0.0, 0.0]}}),
    ("init_mean_string", {"init": {"mean": [0.0, "x"]}}),
    ("mmd_reference_n_negative", {"mmd_reference_n": -1}),
    ("stepper_base_rate_inf", {"stepper": {"base_rate": float("inf")}}),
    ("stepper_damping_zero", {"stepper": {"damping": 0.0}}),
    ("precond_refresh_period_zero", {"precond": {"refresh_period": 0}}),
    ("precond_floor_ratio_one", {"precond": {"floor_ratio": 1.0}}),
    ("precond_floor_ratio_inf", {"precond": {"floor_ratio": float("inf")}}),
    ("target_components_float", {"target": {"kind": "star_mixture", "components": 2.7}}),
    ("target_sigma1_negative", {"target": {"kind": "sine", "sigma1": -1.0}}),
    ("target_mean_empty", {"target": {"kind": "gaussian", "mean": []}}),
    ("target_alpha_overflow", {"target": {"kind": "sine", "alpha": 1e200}, "method": "svn"}),
    ("accumulator_overflow", {"target": {"kind": "gaussian", "mean": [1e160, 1e160]},
                              "n": 5, "iters": 3, "checkpoints": [0]}),
    ("init_draw_overflow", {"target": "gaussian", "n": 5, "iters": 2,
                            "init": {"mean": 1e308, "scale": 1e308}}),
    ("mmd_distances_overflow", {"target": "gaussian", "n": 5, "iters": 0, "checkpoints": [0],
                                "init": {"scale": 1e200}, "mmd_reference_n": 50}),
    ("target_cov_indefinite", {"target": {"kind": "gaussian", "mean": [0, 0],
                                          "cov": [[1, 2], [2, 1]]}}),
    ("target_sigma1_indefinite", {"target": {"kind": "star_mixture",
                                             "sigma1": [[1, 0], [0, -0.01]]}}),
    ("target_cov_inverse_overflow", {"target": {"kind": "gaussian", "mean": [0, 0],
                                                "cov": [[1e-320, 0], [0, 1]]}}),
    ("precond_source_unsupported", {"method": "svn", "precond": {"source": "fisher"}}),
    ("target_data_path_number", {"target": {"kind": "logistic_posterior", "data_path": 5}}),
    ("target_kind_unknown", {"target": "banana"}),
)


def write_errors(path: Path) -> None:
    """Run each of ``BAD_CONFIGS`` and write its exit code and stderr to ``path``."""
    blocks = []
    with tempfile.TemporaryDirectory() as scratch:
        for label, overrides in BAD_CONFIGS:
            config = {"target": "star_mixture", "method": "vanilla_svgd", "n": 10, "iters": 30,
                      "mmd_reference_n": 0, "out_dir": str(Path(scratch, label)), **overrides}
            config_path = Path(scratch, f"{label}.json")
            config_path.write_text(json.dumps(config))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = cli.main(["run", str(config_path), "--quiet"])
            blocks.append(f"# {label}\nexit {code}\n{stderr.getvalue()}")
    path.write_text("\n".join(blocks))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: record_panel.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"record_panel: {out} is not empty", file=sys.stderr)
        return 2
    (out / "configs").mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    write_logistic_data(Path(LOGISTIC_DATA))
    configs = panel_configs()
    failed = []
    for config in configs:
        path = Path("configs", config["out_dir"].replace("/", "_") + ".json")
        path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
        if cli.main(["run", str(path), "--quiet"]) != 0:
            failed.append(config["out_dir"])
    write_errors(out / "errors.txt")
    print(f"wrote {len(configs)} runs and {len(BAD_CONFIGS)} bad configs to {out}; "
          f"runs exited non-zero: {failed or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
