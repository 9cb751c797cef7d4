import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import msvgd.harness as harness_module
from helpers import load_particles
from msvgd.cli import main
from msvgd.errors import ConfigError, NumericalAbort
from msvgd.harness import (
    METHOD_DEFAULT_RATES,
    build_target,
    compare,
    parse_config,
    run_experiment,
    write_particles,
)
from msvgd.metrics import mmd_sq
from msvgd.targets import Gaussian, LogisticPosterior, Sine, StarMixture


def minimal_config(**overrides):
    raw = {"target": "star_mixture", "method": "vanilla_svgd", "n": 50,
           "iters": 30, "seed": 1}
    raw.update(overrides)
    return raw


def write_dataset(tmp_path, n_per_class=10):
    rng = np.random.default_rng(0)
    feats = np.vstack([rng.standard_normal((n_per_class, 2)) - 1.0,
                       rng.standard_normal((n_per_class, 2)) + 1.0])
    labels = np.repeat([0.0, 1.0], n_per_class)
    path = tmp_path / "data.csv"
    np.savetxt(path, np.column_stack([feats, labels]), delimiter=",")
    return str(path)


# ----------------------------------------------------------------- parsing

def test_parse_minimal_config_fills_documented_defaults():
    cfg = parse_config(minimal_config())
    assert cfg.target_kind == "star_mixture"
    assert cfg.checkpoints == (0, 5, 10, 30)  # schedule clipped to the budget
    assert cfg.stepper.method == "adagrad"
    assert cfg.stepper.base_rate == METHOD_DEFAULT_RATES["vanilla_svgd"]
    assert cfg.stepper.damping == 1e-6
    assert cfg.precond.source == "exact_hessian"
    assert cfg.precond.refresh_period == 1
    assert cfg.precond.floor_ratio == 1e-6
    assert cfg.init_mean == 0.0 and cfg.init_scale == 1.0
    assert cfg.mmd_reference_n == 2000
    assert cfg.out_dir == "runs"
    raw = minimal_config()
    del raw["seed"]
    assert parse_config(raw).seed == 0


def test_parse_default_rate_depends_on_method():
    for method, rate in METHOD_DEFAULT_RATES.items():
        assert parse_config(minimal_config(method=method)).stepper.base_rate == rate


def test_parse_logistic_defaults_to_fisher_curvature(tmp_path):
    raw = minimal_config(target={"kind": "logistic_posterior",
                                 "data_path": write_dataset(tmp_path)})
    assert parse_config(raw).precond.source == "fisher"


@pytest.mark.parametrize("mutate, path_fragment", [
    (lambda r: r.pop("target"), "target"),
    (lambda r: r.update(n=0), "n"),
    (lambda r: r.update(n=True), "n"),
    (lambda r: r.update(method="pSGLD"), "method"),
    (lambda r: r.update(foo=1), "foo"),
    (lambda r: r.update(checkpoints=[]), "checkpoints"),
    (lambda r: r.update(checkpoints=[0, 31]), "checkpoints"),
    (lambda r: r.update(checkpoints=[-1]), "checkpoints[0]"),
    (lambda r: r.update(stepper={"base_rate": -0.1}), "stepper.base_rate"),
    (lambda r: r.update(stepper={"momentum": 0.9}), "stepper.momentum"),
    (lambda r: r.update(precond={"floor_ratio": 1.5}), "precond.floor_ratio"),
    (lambda r: r.update(precond={"source": "kfac"}), "precond.source"),
    (lambda r: r.update(target={"kind": "sine", "wavelength": 2}), "target.wavelength"),
    (lambda r: r.update(init={"mean": [0.0, "x"]}), "init.mean[1]"),
    (lambda r: r.update(init={"scale": 0.0}), "init.scale"),
    (lambda r: r.update(out_dir=""), "out_dir"),
])
def test_parse_errors_name_the_offending_key(mutate, path_fragment):
    raw = minimal_config()
    mutate(raw)
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert path_fragment in str(exc.value)


def test_parse_unknown_method_lists_the_supported_ones():
    with pytest.raises(ConfigError) as exc:
        parse_config(minimal_config(method="pSGLD"))
    for method in METHOD_DEFAULT_RATES:
        assert method in str(exc.value)


def test_parse_rejects_invalid_json_and_non_objects():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config(json.dumps([1, 2]))


def test_config_echo_round_trips(tmp_path):
    raws = [
        minimal_config(),
        minimal_config(target={"kind": "gaussian", "mean": [1.0, -1.0],
                               "cov": [[2.0, 0.3], [0.3, 1.0]]},
                       method="matrix_svgd_average", checkpoints=[0, 7, 30],
                       stepper={"method": "fixed", "base_rate": 0.05},
                       init={"mean": [2.0, -2.0], "scale": 0.2}),
        minimal_config(target={"kind": "logistic_posterior",
                               "data_path": write_dataset(tmp_path),
                               "minibatch_size": 4},
                       precond={"refresh_period": 5, "floor_ratio": 0.05}),
    ]
    for raw in raws:
        cfg = parse_config(raw)
        assert parse_config(json.dumps(cfg.to_dict())) == cfg


# ------------------------------------------------------------ target build

def test_build_target_constructs_each_kind(tmp_path):
    assert isinstance(build_target(parse_config(minimal_config(target="gaussian"))), Gaussian)
    assert isinstance(build_target(parse_config(minimal_config(target="sine"))), Sine)
    assert isinstance(build_target(parse_config(minimal_config())), StarMixture)
    raw = minimal_config(target={"kind": "logistic_posterior",
                                 "data_path": write_dataset(tmp_path)})
    assert isinstance(build_target(parse_config(raw)), LogisticPosterior)


def test_build_target_gaussian_mean_only_defaults_to_identity_covariance():
    cfg = parse_config(minimal_config(target={"kind": "gaussian", "mean": [3.0, 4.0, 5.0]}))
    model = build_target(cfg)
    assert np.array_equal(model.mean, [3.0, 4.0, 5.0])
    assert np.array_equal(model.cov, np.eye(3))


def test_build_target_errors_are_config_errors():
    with pytest.raises(ConfigError, match="data_path"):
        build_target(parse_config(minimal_config(target="logistic_posterior")))
    bad = parse_config(minimal_config(target={"kind": "gaussian", "cov": [[1.0, 0.0], [0.0, 1.0]]}))
    with pytest.raises(ConfigError):
        build_target(bad)


# ------------------------------------------------------------- persistence

def test_particle_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    positions = rng.standard_normal((8, 3)) * np.pi
    path = tmp_path / "snap.csv"
    write_particles(path, 12, positions)
    header = path.read_text().split("\n")[0]
    assert header == "iter,particle,coord_0,coord_1,coord_2"
    iteration, loaded = load_particles(path)
    assert iteration == 12
    assert np.array_equal(loaded, positions)


def test_run_experiment_writes_snapshots_and_metric_rows(tmp_path):
    cfg = parse_config(minimal_config(method="matrix_svgd_mixture", n=12,
                                      checkpoints=[0, 30], mmd_reference_n=400,
                                      precond={"floor_ratio": 0.05},
                                      out_dir=str(tmp_path / "star")))
    record = run_experiment(cfg)
    out = tmp_path / "star"
    assert sorted(p.name for p in out.iterdir()) == [
        "metrics.json", "particles_iter000000.csv", "particles_iter000030.csv", "timing.json"]
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["config"] == cfg.to_dict()
    assert doc["checkpoints"] == [0, 30]
    assert len(doc["metrics"]) == 2
    for row in doc["metrics"]:
        assert set(row["mmd"]) == {"value", "bandwidth", "n_x", "n_y"}
        assert row["mmd"]["n_y"] == 400
    # persisted snapshots reload to exactly the in-memory arrays
    for c in (0, 30):
        iteration, loaded = load_particles(out / f"particles_iter{c:06d}.csv")
        assert iteration == c
        assert np.array_equal(loaded, record.snapshots[c])


def _count_prepared_references(monkeypatch):
    calls = []
    prepare = harness_module.metrics.prepare_reference
    monkeypatch.setattr(harness_module.metrics, "prepare_reference",
                        lambda ys: calls.append(len(ys)) or prepare(ys))
    return calls


def test_metrics_json_is_identical_with_the_reference_memo_cold_and_warm(tmp_path, monkeypatch):
    calls = _count_prepared_references(monkeypatch)
    cfg = parse_config(minimal_config(n=12, iters=5, checkpoints=[0, 5], mmd_reference_n=300))
    harness_module._reference_memo.clear()
    run_experiment(cfg, out_dir=str(tmp_path / "cold"))
    run_experiment(cfg, out_dir=str(tmp_path / "warm"))
    assert calls == [300]  # both checkpoints of both runs share one preparation
    for name in ("metrics.json", "particles_iter000000.csv", "particles_iter000005.csv"):
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()


def test_runs_differing_in_target_seed_or_reference_size_never_share_a_reference(monkeypatch):
    calls = _count_prepared_references(monkeypatch)
    base = minimal_config(target={"kind": "gaussian", "mean": [0.0, 0.0]}, n=6, iters=2,
                          checkpoints=[0, 2], mmd_reference_n=80)
    variants = [base, {**base, "target": {"kind": "gaussian", "mean": [0.0, 0.5]}},
                {**base, "mmd_reference_n": 90}, {**base, "seed": 2}]
    harness_module._reference_memo.clear()
    for raw in variants + variants[:1]:
        cfg = parse_config(raw)
        calls.clear()
        record = run_experiment(cfg, persist=False)
        assert calls == [cfg.mmd_reference_n]  # each run is a miss: nothing was shared
        draws = build_target(cfg).reference_sample(cfg.mmd_reference_n,
                                                   harness_module._reference_seed(cfg.seed))
        for row in record.metric_rows:
            fresh = mmd_sq(record.snapshots[row["iter"]], draws)
            assert (row["mmd"]["value"], row["mmd"]["bandwidth"]) == (fresh.value, fresh.bandwidth)
        assert len(harness_module._reference_memo) == 1


def test_compare_scores_the_shared_initial_draw_once(tmp_path, monkeypatch):
    scored = []
    score = harness_module.metrics.mmd_sq
    monkeypatch.setattr(harness_module.metrics, "mmd_sq",
                        lambda xs, ys: scored.append(len(xs)) or score(xs, ys))
    configs = [parse_config(minimal_config(method=m, n=20, iters=30, checkpoints=[0, 30],
                                           mmd_reference_n=300, precond={"floor_ratio": 0.05}))
               for m in METHOD_DEFAULT_RATES]
    harness_module._reference_memo.clear()
    compare(configs, out_dir=tmp_path / "memo")
    assert len(scored) == 5  # one iteration-0 score for the four methods' one draw
    scored.clear()
    run = harness_module.run_experiment

    def run_cold(config, *args, **kwargs):
        harness_module._reference_memo.clear()
        return run(config, *args, **kwargs)

    monkeypatch.setattr(harness_module, "run_experiment", run_cold)
    compare(configs, out_dir=tmp_path / "cold")
    assert len(scored) == 8
    files = sorted(p.relative_to(tmp_path / "memo") for p in (tmp_path / "memo").rglob("*")
                   if p.is_file() and p.name != "timing.json")
    assert len(files) == 4 * 3 + 1  # metrics.json and two particle files per method
    for name in files:
        assert (tmp_path / "memo" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes(), name


def test_report_memo_is_bounded_and_keyed_by_shape_and_bytes(monkeypatch):
    monkeypatch.setattr(harness_module, "_REPORTS_KEPT", 3)
    scored = []
    score = harness_module.metrics.mmd_sq
    monkeypatch.setattr(harness_module.metrics, "mmd_sq",
                        lambda xs, ys: scored.append(xs.shape) or score(xs, ys))
    rng = np.random.default_rng(5)
    reference = harness_module.metrics.prepare_reference(rng.standard_normal((60, 2)))
    reports = {}
    x = rng.standard_normal((6, 2))
    first = harness_module._mmd_report(x, reference, reports)
    assert harness_module._mmd_report(x.copy(), reference, reports) is first
    # fewer rows, the rows reordered and a one-ulp move are new snapshots
    moved = x.copy()
    moved[0, 0] = np.nextafter(moved[0, 0], np.inf)
    for snapshot in (x[:5], x[::-1], moved):
        harness_module._mmd_report(snapshot, reference, reports)
    assert scored == [(6, 2), (5, 2), (6, 2), (6, 2)] and len(reports) == 3
    harness_module._mmd_report(x, reference, reports)  # the oldest was dropped
    assert len(scored) == 5 and len(reports) == 3


def test_run_experiment_is_byte_deterministic(tmp_path):
    cfg = parse_config(minimal_config(target="gaussian", n=16, iters=10,
                                      checkpoints=[0, 10], mmd_reference_n=300,
                                      out_dir=str(tmp_path / "run")))
    run_experiment(cfg)
    files = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()
             if p.name != "timing.json"}
    run_experiment(cfg)
    for name, payload in files.items():
        assert (tmp_path / "run" / name).read_bytes() == payload, name


def test_run_experiment_logistic_reports_predictive_metrics(tmp_path):
    raw = minimal_config(target={"kind": "logistic_posterior",
                                 "data_path": write_dataset(tmp_path)},
                         method="matrix_svgd_average", n=5, iters=5,
                         checkpoints=[0, 5], out_dir=str(tmp_path / "lr"))
    record = run_experiment(parse_config(raw))
    for row in record.metric_rows:
        assert set(row["predictive"]) == {"accuracy", "mean_log_likelihood"}
        assert "mmd" not in row


def test_run_experiment_flags_aborted_runs(tmp_path):
    cfg = parse_config(minimal_config(
        target="double_banana", n=8, iters=200, checkpoints=[0],
        init={"mean": 30.0, "scale": 0.1},
        stepper={"method": "fixed", "base_rate": 500.0},
        out_dir=str(tmp_path / "boom")))
    with pytest.raises(NumericalAbort):
        run_experiment(cfg)
    flag = json.loads((tmp_path / "boom" / "aborted.json").read_text())
    assert flag["aborted"] is True
    assert isinstance(flag["iteration"], int)
    assert (flag["phase"], flag["particle"]) == ("score", 0)


# -------------------------------------------------------------- comparison

def comparison_configs(tmp_path, methods):
    return [parse_config(minimal_config(method=m, n=10, iters=10,
                                        checkpoints=[0, 5, 10], mmd_reference_n=300,
                                        precond={"floor_ratio": 0.05},
                                        out_dir=str(tmp_path)))
            for m in methods]


def test_compare_tabulates_methods_by_checkpoint(tmp_path):
    methods = list(METHOD_DEFAULT_RATES)
    table = compare(comparison_configs(tmp_path, methods), out_dir=tmp_path / "cmp")
    assert table["methods"] == methods
    assert table["checkpoints"] == [0, 5, 10]
    assert len(table["values"]) == 3 and all(len(r) == len(methods) for r in table["values"])
    lines = (tmp_path / "cmp" / "comparison.csv").read_text().strip().split("\n")
    assert lines[0] == "iter," + ",".join(methods)
    assert len(lines) == 4
    for m in methods:
        assert (tmp_path / "cmp" / m / "metrics.json").exists()


def test_compare_single_config_matches_its_own_metrics(tmp_path):
    [cfg] = comparison_configs(tmp_path, ["svn"])
    table = compare([cfg])
    record = table["records"]["svn"]
    expected = [row["mmd"]["value"] for row in record.metric_rows]
    assert [r[0] for r in table["values"]] == expected


def test_compare_rejects_mismatched_or_duplicated_configs(tmp_path):
    a, b = comparison_configs(tmp_path, ["vanilla_svgd", "svn"])
    with pytest.raises(ConfigError, match="needs at least one config"):
        compare([])
    with pytest.raises(ConfigError, match="duplicate"):
        compare([a, a])
    mismatched = parse_config(minimal_config(method="svn", n=11, iters=10,
                                             checkpoints=[0, 5, 10]))
    with pytest.raises(ConfigError, match="^n: configs in a comparison must agree, got 11 vs 10$"):
        compare([a, mismatched])
    # a mismatch names the config key of the section that differs, not a RunConfig field
    shared = dict(method="svn", n=10, iters=10, checkpoints=[0, 5, 10], out_dir=str(tmp_path))
    for override, values in [
            ({"target": {"kind": "star_mixture", "components": 4}},
             '{"kind": "star_mixture", "components": 4} vs {"kind": "star_mixture"}'),
            ({"init": {"mean": 3.0}},
             '{"mean": 3.0, "scale": 1.0} vs {"mean": 0.0, "scale": 1.0}'),
            ({"precond": {"floor_ratio": 0.1}},
             '{"source": "exact_hessian", "refresh_period": 1, "floor_ratio": 0.1} vs '
             '{"source": "exact_hessian", "refresh_period": 1, "floor_ratio": 0.05}'),
            ({"mmd_reference_n": 299}, "299 vs 300")]:
        raw = minimal_config(**shared, mmd_reference_n=300, precond={"floor_ratio": 0.05})
        raw.update(override)
        key = next(iter(override))
        with pytest.raises(ConfigError) as caught:
            compare([a, parse_config(raw)])
        assert str(caught.value) == f"{key}: configs in a comparison must agree, got {values}"
    # the stepper may differ: its base rate defaults per method
    b_fixed = parse_config(minimal_config(**shared, mmd_reference_n=300, precond={"floor_ratio": 0.05},
                                          stepper={"method": "fixed", "base_rate": 0.01}))
    assert compare([a, b_fixed])["methods"] == ["vanilla_svgd", "svn"]


# --------------------------------------------------------------------- cli

def test_cli_run_writes_outputs_and_reports_success(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(target="gaussian", n=12, iters=10,
                                                  checkpoints=[0, 10], mmd_reference_n=200)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "metrics.json").exists()
    assert "gaussian" in capsys.readouterr().out


def test_cli_seed_override_changes_the_echoed_seed(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(target="gaussian", n=6, iters=2,
                                                  checkpoints=[0], mmd_reference_n=0)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--seed", "7",
                 "--quiet"]) == 0
    doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert doc["config"]["seed"] == 7


def test_cli_quiet_suppresses_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(target="gaussian", n=6, iters=2,
                                                  checkpoints=[0], mmd_reference_n=0)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_compare_writes_comparison_table(tmp_path, capsys):
    paths = []
    for method in ("vanilla_svgd", "svn"):
        p = tmp_path / f"{method}.json"
        p.write_text(json.dumps(minimal_config(target="gaussian", method=method, n=8,
                                               iters=5, checkpoints=[0, 5],
                                               mmd_reference_n=200)))
        paths.append(str(p))
    assert main(["compare", *paths, "--out", str(tmp_path / "cmp"), "--quiet"]) == 0
    header = (tmp_path / "cmp" / "comparison.csv").read_text().split("\n")[0]
    assert header == "iter,vanilla_svgd,svn"

    # the logistic posterior tabulates the predictive log-likelihood
    data_path = write_dataset(tmp_path)
    methods = ("vanilla_svgd", "svn")
    paths = []
    for method in methods:
        p = tmp_path / f"logistic_{method}.json"
        p.write_text(json.dumps(minimal_config(
            target={"kind": "logistic_posterior", "data_path": data_path},
            method=method, n=8, iters=5, checkpoints=[0, 5])))
        paths.append(str(p))
    out = tmp_path / "logistic_cmp"
    assert main(["compare", *paths, "--out", str(out)]) == 0
    lines = (out / "comparison.csv").read_text().strip().split("\n")
    assert lines[0] == "iter," + ",".join(methods)
    for col, method in enumerate(methods, start=1):
        rows = json.loads((out / method / "metrics.json").read_text())["metrics"]
        assert [float(line.split(",")[col]) for line in lines[1:]] == [
            row["predictive"]["mean_log_likelihood"] for row in rows]
    stdout = capsys.readouterr().out.strip().split("\n")
    assert [line.split(" on ")[0] for line in stdout if "accuracy=" in line] == list(methods)
    assert stdout[-1] == f"comparison table: {out / 'comparison.csv'}"


def test_cli_sample_is_deterministic(tmp_path):
    assert main(["sample", "star_mixture", "5", "9", "--out", str(tmp_path / "a"),
                 "--quiet"]) == 0
    assert main(["sample", "star_mixture", "5", "9", "--out", str(tmp_path / "b"),
                 "--quiet"]) == 0
    name = "sample_star_mixture_n5_seed9.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_sample_gaussian_draws_the_standard_normal_of_a_bare_config(tmp_path):
    assert main(["sample", "gaussian", "5", "0", "--out", str(tmp_path), "--quiet"]) == 0
    iteration, draws = load_particles(tmp_path / "sample_gaussian_n5_seed0.csv")
    model = build_target(parse_config(minimal_config(target="gaussian")))
    assert iteration == 0
    assert np.array_equal(draws, model.reference_sample(5, 0))
    assert np.array_equal(model.mean, np.zeros(2)) and np.array_equal(model.cov, np.eye(2))


def test_package_exports_resolve_and_test_only_surfaces_are_gone():
    import msvgd
    from msvgd import harness, kernels, metrics, targets

    assert [name for name in msvgd.__all__ if not hasattr(msvgd, name)] == []
    gone = [(msvgd, "grid_moments"), (targets, "grid_moments"), (harness, "load_particles"),
            (kernels.MixturePrecond, "weight_gradients"), (msvgd, "mixture_weights"),
            (kernels, "mixture_weights"), (metrics, "_mean_kernel")]
    gone += [(cls, view) for cls in (kernels.KernelStrategy, kernels.ScalarRBF, kernels.ConstPrecond,
                                     kernels.MixturePrecond)
             for view in ("eval", "_check_point")]
    gone += [(cls, view) for cls in (targets.TargetModel, targets.Gaussian, targets.StarMixture,
                                     targets.Sine, targets.DoubleBanana, targets.LogisticPosterior)
             for view in ("log_density", "grad_log_density")]
    assert [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name in gone
            if hasattr(owner, name)] == []


def test_cli_exit_codes_by_error_category(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["run", str(bad_json), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config:")

    bad_method = tmp_path / "bad2.json"
    bad_method.write_text(json.dumps(minimal_config(method="pSGLD")))
    assert main(["run", str(bad_method), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config:")

    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1]")
    assert main(["run", str(not_an_object), "--quiet"]) == 2
    assert capsys.readouterr().err == f"config: {not_an_object}: config must be a JSON object\n"
    # the harness checks JSON types and key paths; the range rules live with
    # their owners (dynamics.run_arguments, StepperState, PrecondPolicy)
    inf = float("inf")
    for raw, message in (
            (minimal_config(stepper=3), "stepper: must be an object"),
            (minimal_config(stepper={"method": 3}), "stepper.method: must be a string, got 3"),
            (minimal_config(stepper={"base_rate": inf}),
             "stepper.base_rate: must be positive and finite, got inf"),
            (minimal_config(target=3), "target: must be a kind name or an object with a 'kind' key"),
            (minimal_config(n=3.0), "n: must be an integer, got 3.0"),
            # a negative iters empties the default schedule; iters is named first
            (minimal_config(iters=-1), "iters: must be >= 0, got -1"),
            (minimal_config(checkpoints=[0, 31]),
             "checkpoints[1]: must be <= 30 (the iteration count), got 31"),
            (minimal_config(checkpoints=[-1]), "checkpoints[0]: must be >= 0, got -1"),
            (minimal_config(init={"scale": 0}), "init.scale: must be positive and finite, got 0.0"),
            (minimal_config(init={"scale": inf}), "init.scale: must be positive and finite, got inf"),
            (minimal_config(init={"mean": inf}), "init.mean: must be finite, got inf"),
            # the target's dimension is known once it is built; dynamics.run
            # checks the mean against it before iteration 0
            (minimal_config(init={"mean": [0, 0, 0]}),
             "init.mean: must be one number or 2 numbers (the target dimension), got length 3"),
            (minimal_config(mmd_reference_n=-1), "mmd_reference_n: must be >= 0, got -1"),
            # an initial draw that overflows names the init key at fault
            (minimal_config(target="gaussian", n=5, iters=2, mmd_reference_n=0,
                            init={"mean": 1e308, "scale": 1e308}),
             "init.mean: too large, the initial draw overflows"),
            (minimal_config(target="gaussian", iters=2, mmd_reference_n=0, init={"scale": 1e308}),
             "init.scale: too large, the initial draw overflows"),
            (minimal_config(target={"kind": "gaussian", "mean": [0, 0], "cov": [[1, 2], [2, 1]]}),
             "target.cov: must be positive definite, got [[1.0, 2.0], [2.0, 1.0]]"),
            (minimal_config(target={"kind": "star_mixture", "sigma1": [[1, 0], [0, -0.01]]}),
             "target.sigma1: must be positive definite, got [[1.0, 0.0], [0.0, -0.01]]"),
            (minimal_config(method="svn", precond={"source": "fisher"}),
             "precond.source: must be one of ['exact_hessian'], got 'fisher'"),
            # numpy's own text, its line break collapsed to one stderr line
            (minimal_config(target={"kind": "logistic_posterior", "data_path": 5}),
             "target.data_path: could not parse dataset file 5: fname must be a string, "
             "filehandle, list of strings, or generator. Got <class 'int'> instead."),
            (minimal_config(target="banana"),
             "target.kind: must be one of ['double_banana', 'gaussian', 'logistic_posterior', "
             "'sine', 'star_mixture'], got 'banana'")):
        bad_section = tmp_path / "bad_section.json"
        bad_section.write_text(json.dumps(raw))
        assert main(["run", str(bad_section), "--out", str(tmp_path / "bad_run"), "--quiet"]) == 2, raw
        assert capsys.readouterr().err == f"config: {message}\n", raw
        assert not (tmp_path / "bad_run").exists(), raw
    assert main(["sample", "star_mixture", "0", "1", "--out", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err == "input: sample size: must be >= 1, got 0\n"

    assert main(["run", str(tmp_path / "absent.json"), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("io:")

    boom = tmp_path / "boom.json"
    boom.write_text(json.dumps(minimal_config(
        target="double_banana", n=8, iters=200, checkpoints=[0],
        init={"mean": 30.0, "scale": 0.1},
        stepper={"method": "fixed", "base_rate": 500.0})))
    assert main(["run", str(boom), "--out", str(tmp_path / "boomed"), "--quiet"]) == 4
    assert capsys.readouterr().err.startswith("numeric:")
    assert (tmp_path / "boomed" / "aborted.json").exists()

    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal_config(n=4, iters=1, mmd_reference_n=0)))
    assert main(["run", str(good), "--seed", "-1", "--quiet"]) == 2
    assert capsys.readouterr().err == "config: seed: must be >= 0, got -1\n"
    for target in ("star_mixture", "sine"):
        assert main(["sample", target, "5", "-1", "--out", str(tmp_path), "--quiet"]) == 2
        assert capsys.readouterr().err == "config: seed: must be >= 0, got -1\n"

    data_path = write_dataset(tmp_path)
    for target, prefix in (({"kind": "gaussian", "mean": "x"}, "target.mean: "),
                           ({"kind": "star_mixture", "components": "five"}, "target.components: "),
                           ({"kind": "star_mixture", "components": 2.7}, "target.components: "),
                           ({"kind": "sine", "alpha": "fast"}, "target.alpha: "),
                           ({"kind": "logistic_posterior", "data_path": data_path, "delimiter": 5},
                            "target.delimiter: "),
                           ({"kind": "logistic_posterior", "data_path": data_path,
                             "minibatch_size": "x"}, "target.minibatch_size: "),
                           ({"kind": "logistic_posterior", "data_path": data_path,
                             "minibatch_size": 2.7}, "target.minibatch_size: ")):
        bad_target = tmp_path / "bad_target.json"
        bad_target.write_text(json.dumps(minimal_config(target=target, n=4, iters=1)))
        assert main(["run", str(bad_target), "--quiet"]) == 2, target
        assert capsys.readouterr().err.startswith(f"config: {prefix}"), target

    missing_data = tmp_path / "missing_data.json"
    missing_data.write_text(json.dumps(minimal_config(
        target={"kind": "logistic_posterior", "data_path": str(tmp_path / "absent.csv")})))
    assert main(["run", str(missing_data), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("io:")


def test_cli_numeric_abort_prints_only_the_abort_line(tmp_path, capsys):
    # the accumulator overflows at iteration 0; numpy's overflow warnings on
    # the way there must not reach stderr (they are errors here)
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({"target": {"kind": "gaussian", "mean": [1e160, 1e160]},
                               "method": "vanilla_svgd", "n": 5, "iters": 3, "mmd_reference_n": 0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 4
    assert capsys.readouterr().err == \
        "numeric: iteration 0: Adagrad accumulator has non-finite entries\n"


def test_cli_module_run_exits_2_on_a_bad_target_parameter(tmp_path):
    cfg_path = tmp_path / "bad_target.json"
    cfg_path.write_text(json.dumps(minimal_config(target={"kind": "gaussian", "mean": "x"})))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "msvgd.cli", "run", str(cfg_path), "--quiet"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("config: target.mean: ")


@pytest.mark.parametrize("raw, iteration, particle", [
    (minimal_config(method="matrix_svgd_average", n=10, iters=3, init={"mean": 1e160}), 0, 0),
    (minimal_config(target="double_banana", method="svn", n=50, iters=100,
                    stepper={"method": "fixed", "base_rate": 5.0}), 73, 49),
    (minimal_config(target="double_banana", method="svn", n=3, iters=2,
                    init={"mean": [1.0, 1.0], "scale": 1e-300}), 0, 0),
], ids=["star_far_init", "banana_svn_large_step", "banana_svn_zero_density"])
def test_cli_non_finite_curvature_aborts_with_the_iteration(tmp_path, capsys, raw, iteration, particle):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**raw, "mmd_reference_n": 0}))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"numeric: iteration {iteration}: refresh: curvature of particle {particle} ")
    flag = json.loads((tmp_path / "out" / "aborted.json").read_text())
    assert flag == {"aborted": True, "error": err.strip()[len("numeric: "):],
                    "iteration": iteration, "phase": "refresh", "particle": particle}


# ----------------------------------------------------------------- package

def test_every_export_resolves_on_the_package():
    import msvgd

    assert len(set(msvgd.__all__)) == len(msvgd.__all__)
    missing = [name for name in msvgd.__all__ if not hasattr(msvgd, name)]
    assert not missing, f"msvgd.__all__ names what the package does not define: {missing}"
