"""Experiment orchestration: configs, persistence, runs, comparisons.

A run config is a JSON object (or the equivalent dict).  Unknown keys are
rejected and every validation error names the offending key path.  The
harness checks the JSON structure and types and owns one range rule,
``mmd_reference_n >= 0``.  Every other rule lives with the code that owns
the value: ``dynamics.run_arguments`` (n, iters, seed, checkpoints, init),
``StepperState`` and ``PrecondPolicy``, whose errors ``errors.at_key_path``
re-raises at the key path, and each target class, which states its kind,
keys and curvature source and whose ``make_target`` names ``target.<key>``.
All defaults are filled at parse time, so the echoed config in the output
is the complete resolved configuration and parses back to an equal config.

Per run, the harness writes into the output directory:

- ``particles_iter{c:06d}.csv`` per checkpoint: header
  ``iter,particle,coord_0..coord_{d-1}``, floats at 17 significant digits so
  they round-trip exactly.
- ``metrics.json``: config echo plus one metric row per checkpoint (MMD
  against a reference sample where the target has a sampler, predictive
  metrics for the logistic posterior).  Canonical bytes: two equal-seed runs
  of the same config produce identical files.
- ``timing.json``: wall-clock seconds per iteration (deliberately kept out of
  the canonical record).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics, metrics
from .errors import ConfigError, NumericalAbort, as_choice, as_count, as_real, at_key_path
from .targets import LogisticPosterior, TargetModel, make_target, target_class

DEFAULT_CHECKPOINTS = (0, 5, 10, 30, 100, 500)
DEFAULT_MMD_REFERENCE_N = 2000

# Adagrad base rates tuned per method on the toy targets (see README).
METHOD_DEFAULT_RATES = {
    "vanilla_svgd": 0.2,
    "matrix_svgd_average": 0.5,
    "matrix_svgd_mixture": 0.5,
    "svn": 0.5,
}

_TOP_KEYS = ("target", "method", "n", "iters", "seed", "checkpoints",
             "stepper", "precond", "init", "mmd_reference_n", "out_dir")

# config keys that may differ within a comparison: the method, where its
# record goes, and the stepper, whose base rate defaults per method
_PER_METHOD_KEYS = ("method", "out_dir", "stepper")

# the config key path of each ``dynamics.run`` argument its errors name
_RUN_KEYS = {"n_particles": "n", "iterations": "iters", "checkpoints": "checkpoints", "seed": "seed",
             "init_mean": "init.mean", "init_scale": "init.scale", "source": "precond.source"}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (all defaults filled)."""

    target_kind: str
    target_params: dict
    method: str
    n: int
    iters: int
    seed: int
    checkpoints: tuple[int, ...]
    stepper: dynamics.StepperState
    precond: dynamics.PrecondPolicy
    init_mean: object  # float or list of floats
    init_scale: float
    mmd_reference_n: int
    out_dir: str

    def to_dict(self) -> dict:
        return {
            "target": {"kind": self.target_kind, **self.target_params},
            "method": self.method,
            "n": self.n,
            "iters": self.iters,
            "seed": self.seed,
            "checkpoints": list(self.checkpoints),
            "stepper": {"method": self.stepper.method, "base_rate": self.stepper.base_rate,
                        "damping": self.stepper.damping},
            "precond": asdict(self.precond),
            "init": {"mean": self.init_mean, "scale": self.init_scale},
            "mmd_reference_n": self.mmd_reference_n,
            "out_dir": self.out_dir,
        }


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _check_unknown(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown key")


def _as_json(value, path: str, kind: type):
    """``value`` checked against its JSON type ``kind``: ``int`` (a JSON 3.0 is
    rejected here, where the owners accept it), ``float`` (any number, returned
    as a float) or ``str``."""
    if kind is float:
        return as_real(value, path, ConfigError)
    if isinstance(value, bool) or not isinstance(value, kind):
        _fail(path, f"must be {'an integer' if kind is int else 'a string'}, got {value!r}")
    return value


def _as_section(value, path: str, keys) -> dict:
    if not isinstance(value, dict):
        _fail(path, "must be an object")
    _check_unknown(value, keys, path)
    return value


def _build(cls, path: str, section, types: dict, **defaults):
    """``cls`` built from a config section over ``defaults``: only the JSON
    types are checked here, and the range errors of ``cls`` get ``path``."""
    section = _as_section(section, path, types)
    kwargs = {key: _as_json(value, f"{path}.{key}", types[key]) for key, value in section.items()}
    with at_key_path(path, types.keys()):
        return cls(**{**defaults, **kwargs})


def parse_config(source) -> RunConfig:
    """Parse and validate a run config from a JSON string or a dict."""
    if isinstance(source, (str, bytes)):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(source, dict):
        raise ConfigError(f"config must be a JSON object, got {type(source).__name__}")
    _check_unknown(source, _TOP_KEYS, "")
    for key in ("target", "method", "n", "iters"):
        if key not in source:
            _fail(key, "required key is missing")

    target = source["target"]
    if isinstance(target, str):
        target = {"kind": target}
    if not isinstance(target, dict) or "kind" not in target:
        _fail("target", "must be a kind name or an object with a 'kind' key")
    target_cls = target_class(target["kind"])
    params = {k: v for k, v in target.items() if k != "kind"}
    _check_unknown(params, target_cls.config_keys, "target")

    method = as_choice(source["method"], "method", dynamics.METHODS, ConfigError)
    n = _as_json(source["n"], "n", int)
    iters = _as_json(source["iters"], "iters", int)
    seed = _as_json(source.get("seed", 0), "seed", int)

    raw_cp = source.get("checkpoints")
    if raw_cp is None:
        checkpoints = [c for c in DEFAULT_CHECKPOINTS if c <= iters]
    else:
        if not isinstance(raw_cp, list) or not raw_cp:
            _fail("checkpoints", "must be a non-empty list of iterations")
        checkpoints = [_as_json(c, f"checkpoints[{i}]", int) for i, c in enumerate(raw_cp)]

    stepper = _build(dynamics.StepperState, "stepper", source.get("stepper", {}),
                     {"method": str, "base_rate": float, "damping": float},
                     base_rate=METHOD_DEFAULT_RATES[method])
    precond = _build(dynamics.PrecondPolicy, "precond", source.get("precond", {}),
                     {"source": str, "refresh_period": int, "floor_ratio": float},
                     source=target_cls.curvature_source)

    init = _as_section(source.get("init", {}), "init", ("mean", "scale"))
    raw_mean = init.get("mean", 0.0)
    if isinstance(raw_mean, list):
        init_mean = [_as_json(v, f"init.mean[{i}]", float) for i, v in enumerate(raw_mean)]
    else:
        init_mean = _as_json(raw_mean, "init.mean", float)
    init_scale = _as_json(init.get("scale", 1.0), "init.scale", float)
    # the target dimension is not known here: run checks the init.mean length
    with at_key_path("", _RUN_KEYS):
        n, iters, checkpoints, seed, _, init_scale = dynamics.run_arguments(
            n, iters, checkpoints, seed, init_mean, init_scale)

    mmd_reference_n = as_count(_as_json(source.get("mmd_reference_n", DEFAULT_MMD_REFERENCE_N),
                                        "mmd_reference_n", int), "mmd_reference_n", 0, ConfigError)
    out_dir = source.get("out_dir", "runs")
    if not isinstance(out_dir, str) or not out_dir:
        _fail("out_dir", "must be a non-empty string")

    return RunConfig(target_kind=target_cls.kind, target_params=params, method=method, n=n,
                     iters=iters, seed=seed, checkpoints=checkpoints,
                     stepper=stepper, precond=precond, init_mean=init_mean, init_scale=init_scale,
                     mmd_reference_n=mmd_reference_n, out_dir=out_dir)


def build_target(config: RunConfig) -> TargetModel:
    """Materialize the configured target (loading its data file, if it has one)."""
    return make_target(config.target_kind, **config.target_params)


@dataclass
class RunRecord:
    """Everything a finished run produced, before persistence."""

    config: dict
    snapshots: dict[int, np.ndarray]
    metric_rows: list[dict]
    converged_at: int | None
    step_seconds: list[float] = field(default_factory=list)

    def metrics_document(self) -> dict:
        """The canonical (timing-free) metrics payload."""
        return {"config": self.config,
                "checkpoints": sorted(self.snapshots),
                "converged_at": self.converged_at,
                "metrics": self.metric_rows}


def _reference_seed(seed: int) -> int:
    # independent child stream of the run seed, shared by all methods with
    # the same seed so their MMD columns are comparable
    return int(np.random.SeedSequence([seed, 2]).generate_state(1)[0])


def _scoring(config: RunConfig, model: TargetModel) -> tuple[metrics.MmdReference, dict] | None:
    """The MMD reference of a run, prepared from its seeded draws, beside an
    empty memo of the reports scored against it; None for a run that scores
    no MMD."""
    if config.mmd_reference_n == 0 or isinstance(model, LogisticPosterior):
        return None
    draws = model.reference_sample(config.mmd_reference_n, seed=_reference_seed(config.seed))
    return metrics.prepare_reference(draws), {}


def _mmd_report(snapshot: np.ndarray, reference: metrics.MmdReference,
                reports: dict) -> metrics.MmdReport:
    """``metrics.mmd_sq(snapshot, reference)``, scored once per distinct
    snapshot, keyed by its shape and bytes: every method of a comparison
    starts from the same seeded draw."""
    key = (snapshot.shape, snapshot.tobytes())
    if key not in reports:
        reports[key] = metrics.mmd_sq(snapshot, reference)
    return reports[key]


def run_experiment(config: RunConfig, out_dir: str | None = None, *,
                   scoring: tuple[metrics.MmdReference, dict] | None = None) -> RunRecord:
    """Execute one configured run, compute per-checkpoint metrics and write
    its record under ``out_dir`` (default: the config's ``out_dir``).  A
    run that aborts writes ``aborted.json`` there instead and re-raises.
    ``scoring`` is the prepared MMD reference and report memo that
    ``compare`` shares among its runs; given none, a run prepares its own
    after its dynamics."""
    model = build_target(config)
    destination = Path(out_dir if out_dir is not None else config.out_dir)
    try:
        with at_key_path("", _RUN_KEYS):
            result = dynamics.run(model, config.method, n_particles=config.n,
                                  iterations=config.iters, checkpoints=config.checkpoints,
                                  stepper=config.stepper, policy=config.precond, seed=config.seed,
                                  init_mean=config.init_mean, init_scale=config.init_scale)
    except NumericalAbort as exc:
        destination.mkdir(parents=True, exist_ok=True)
        payload = {"aborted": True, "error": str(exc), "iteration": exc.iteration,
                   "phase": exc.phase, "particle": exc.particle}
        (destination / "aborted.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        raise

    if scoring is None:
        scoring = _scoring(config, model)
    rows = []
    for c in sorted(result.snapshots):
        row: dict = {"iter": c}
        if scoring is not None:
            report = _mmd_report(result.snapshots[c], *scoring)
            row["mmd"] = {"value": report.value, "bandwidth": report.bandwidth,
                          "n_x": report.n_x, "n_y": report.n_y}
        if isinstance(model, LogisticPosterior):
            accuracy, log_lik = metrics.predictive_metrics(result.snapshots[c], model.dataset)
            row["predictive"] = {"accuracy": accuracy, "mean_log_likelihood": log_lik}
        rows.append(row)

    record = RunRecord(config=config.to_dict(), snapshots=result.snapshots,
                       metric_rows=rows, converged_at=result.converged_at,
                       step_seconds=result.step_seconds)
    persist_record(record, destination)
    return record


def write_particles(path, iteration: int, positions: np.ndarray) -> None:
    positions = np.asarray(positions, dtype=float)
    header = "iter,particle," + ",".join(f"coord_{m}" for m in range(positions.shape[1]))
    lines = [header]
    for i, row in enumerate(positions):
        lines.append(f"{iteration},{i}," + ",".join(format(v, ".17g") for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def persist_record(record: RunRecord, out_dir) -> None:
    """Write particle CSVs, metrics.json and the timing sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for c in sorted(record.snapshots):
        write_particles(out / f"particles_iter{c:06d}.csv", c, record.snapshots[c])
    (out / "metrics.json").write_text(
        json.dumps(record.metrics_document(), sort_keys=True, indent=2) + "\n")
    timing = {"step_seconds": record.step_seconds,
              "total_seconds": float(sum(record.step_seconds))}
    (out / "timing.json").write_text(json.dumps(timing, indent=2) + "\n")


def _comparison_value(row: dict) -> float:
    if "mmd" in row:
        return row["mmd"]["value"]
    if "predictive" in row:
        return row["predictive"]["mean_log_likelihood"]
    return float("nan")


def compare(configs, out_dir) -> dict:
    """Run several configs that differ only in method and stepper; tabulate
    their metrics.

    Writes each run under ``out_dir/<method>/`` plus a ``comparison.csv``
    table with one row per checkpoint and one column per method, and returns
    {"checkpoints": [...], "methods": [...], "values": row-major list,
    "records": {method: RunRecord}}.
    """
    configs = list(configs)
    if not configs:
        raise ConfigError("compare: needs at least one config")
    first = configs[0]
    shared = first.to_dict()
    methods = []
    for cfg in configs:
        if cfg.method in methods:
            raise ConfigError(f"method: duplicate method '{cfg.method}' in comparison")
        methods.append(cfg.method)
        for key, value in cfg.to_dict().items():
            if key not in _PER_METHOD_KEYS and value != shared[key]:
                raise ConfigError(f"{key}: configs in a comparison must agree, got "
                                  f"{json.dumps(value)} vs {json.dumps(shared[key])}")

    # the configs agree on target, seed and reference size, so one reference
    # and one report memo serve every run; each run still builds its own
    # target, which may keep per-run state (the logistic minibatch)
    scoring = _scoring(first, build_target(first))
    records = {cfg.method: run_experiment(cfg, out_dir=Path(out_dir) / cfg.method, scoring=scoring)
               for cfg in configs}
    checkpoints = sorted(first.checkpoints)
    values = [[_comparison_value(records[m].metric_rows[i]) for m in methods]
              for i in range(len(checkpoints))]
    lines = ["iter," + ",".join(methods)]
    for c, row in zip(checkpoints, values):
        lines.append(f"{c}," + ",".join(format(v, ".17g") for v in row))
    Path(out_dir, "comparison.csv").write_text("\n".join(lines) + "\n")
    return {"checkpoints": checkpoints, "methods": methods, "values": values,
            "records": records}
