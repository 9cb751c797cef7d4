"""The benchmark's tracer (perfbench/tracer.py) wraps msvgd functions by name
from outside the package.  A refactor that moves or renames one of them must
fail here rather than only under ``perfbench/run.py --trace 1``.  And
``tools/ab_runs.py`` runs the benchmark's own workloads, timer and checks on
two checkouts; a fault in the way it alternates them, times them or
compares their records must fail here too."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load(path: Path, name: str, search_path: Path | None = None):
    """Import the file at ``path`` as ``name`` read-only: no bytecode cache is
    written beside it or beside what it imports from ``search_path``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    if search_path is not None:
        sys.path.insert(0, str(search_path))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        if search_path is not None:
            sys.path.remove(str(search_path))
    return module


def _load_tracer():
    return _load(TRACER, "perfbench_tracer")


def _bindings(functions):
    """Every (owner or msvgd module, attribute) -> object a traced name is bound to."""
    owners = {id(owner): owner for _, owner, _ in functions}
    owners.update((id(m), m) for name, m in sys.modules.items()
                  if name == "msvgd" or name.startswith("msvgd."))
    attrs = {attr for _, _, attr in functions}
    return {(id(owner), attr): vars(owner)[attr]
            for owner in owners.values() for attr in attrs if attr in vars(owner)}


def test_tracer_wraps_every_traced_function_and_restores_the_originals():
    tracing = _load_tracer()
    functions = tracing._FUNCTIONS
    missing = [name for name, owner, attr in functions if attr not in vars(owner)]
    assert not missing, f"traced functions not found where the tracer looks: {missing}"
    before = _bindings(functions)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        unwrapped = [name for name, owner, attr in functions
                     if vars(owner)[attr] is before[(id(owner), attr)]]
        assert not unwrapped, f"tracer did not wrap: {unwrapped}"
    finally:
        tracer.uninstall()
    after = _bindings(functions)
    changed = [key[1] for key, fn in before.items() if after.get(key) is not fn]
    assert not changed, f"originals not restored: {changed}"


def test_ab_runs_record_identity_compares_two_output_trees(tmp_path, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    ab_runs = _load(ROOT / "tools" / "ab_runs.py", "ab_runs_tool")
    header = "iter,particle,coord_0,coord_1\n"
    for side, timing, coord in (("a", "1.5", "0.25"), ("b", "2.5", "0.25")):
        (tmp_path / side / "svn").mkdir(parents=True)
        (tmp_path / side / "svn" / "timing.json").write_text(timing)
        (tmp_path / side / "svn" / "metrics.json").write_text("{}")
        (tmp_path / side / "svn" / "particles_iter000000.csv").write_text(f"{header}0,0,1.0,{coord}\n")
    a, b = tmp_path / "a", tmp_path / "b"
    # timing.json is not part of the record
    assert ab_runs.record_identity(a, b) == {"identical": True, "differing": [], "max_abs_diff": None}
    (b / "svn" / "particles_iter000000.csv").write_text(f"{header}0,0,1.0,0.2500000000000001\n")
    (b / "svn" / "metrics.json").write_text('{"mmd": 1}')
    (b / "svn" / "particles_iter000001.csv").write_text(f"{header}1,0,1.0,0.25\n")
    report = ab_runs.record_identity(a, b)
    assert report["differing"] == ["svn/metrics.json", "svn/particles_iter000000.csv",
                                   "svn/particles_iter000001.csv"]
    assert not report["identical"] and report["max_abs_diff"] == 0.2500000000000001 - 0.25
    (b / "svn" / "particles_iter000000.csv").write_text(f"{header}0,0,1.0,0.25\n0,1,0.0,0.0\n")
    assert ab_runs.record_identity(a, b)["max_abs_diff"] == float("inf")


def test_ab_runs_times_star_compare_from_one_compare_per_side(tmp_path, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    ab_runs = _load(ROOT / "tools" / "ab_runs.py", "ab_runs_tool")
    sides = {s: ab_runs.load_package(ROOT, f"msvgd_ab_{s}") for s in "ab"}
    for name in [n for n in sys.modules if n.startswith("msvgd_ab_")]:
        monkeypatch.setitem(sys.modules, name, sys.modules[name])  # dropped at teardown
    path, msvgd = list(sys.path), sys.modules.get("msvgd")
    run, workloads = benchmark = ab_runs.load_benchmark(sides["a"])
    # the benchmark files are imported without a bare module name or a path entry
    assert sys.path == path and sys.modules.get("msvgd") is msvgd
    assert {"run", "oracles", "workloads"}.isdisjoint(sys.modules)

    timers, calls, compares, prepared = {}, [], [], []

    class Timer(run.OpTimer):
        def __init__(self, modules):
            super().__init__(modules)
            timers[modules[0]] = self  # keyed by the side's harness

    monkeypatch.setattr(run, "OpTimer", Timer)
    for s, package in sides.items():
        # wrapped before the timers install, so each timer times these
        def run_experiment(config, *args, s=s, inner=package.harness.run_experiment, **kwargs):
            calls.append((s, config.method))
            return inner(config, *args, **kwargs)

        def compare(configs, out_dir, s=s, inner=package.cli.compare):
            compares.append(s)
            return inner(configs, out_dir)

        def prepare_reference(ys, s=s, inner=package.harness.metrics.prepare_reference):
            prepared.append((s, len(ys)))
            return inner(ys)

        monkeypatch.setattr(package.harness, "run_experiment", run_experiment)
        monkeypatch.setattr(package.cli, "compare", compare)
        monkeypatch.setattr(package.harness.metrics, "prepare_reference", prepare_reference)

    def shrunk(cls, **attrs):
        benches = {s: cls(tmp_path / cls.name / s, ab_runs.BENCH_SEED) for s in "ab"}
        for bench in benches.values():
            vars(bench).update(n=6, iters=2, checkpoints=(0, 2), PANEL=(3,), **attrs)
        return benches

    def check_timed(cells, operations):
        assert list(timers) == [sides["a"].harness, sides["b"].harness]
        for s, package in sides.items():
            timer = timers[package.harness]
            assert cells["verdict"][s]["attempted"] == operations and cells["verdict"][s]["failed"] == 0
            for m in workloads.METHODS:
                assert cells[m][f"{s}_s"] == timer.seconds[m] and all(t > 0.0 for t in timer.seconds[m])
            # the timer is gone again: the recorder above is back in place
            assert package.harness.run_experiment.__name__ == "run_experiment"
        assert cells["first_round_records"]["identical"]
        timers.clear()

    # star_compare: the warm-up and each of 2 rounds run one compare per side,
    # which prepares the single reference its four runs share; A goes first
    # in the warm-up and in even rounds
    cells = ab_runs.paired_rounds(benchmark, sides, shrunk(workloads.StarCompare, MMD_REFERENCE_N=40), 2)
    assert compares == list("ababba") and prepared == [(s, 40) for s in "ababba"]
    assert [s for s, _ in calls] == [s for s in "ababba" for _ in range(4)]
    check_timed(cells, 2 * len(workloads.METHODS))
    assert (tmp_path / "star_compare" / "a" / "round000" / "comparison.csv").is_file()
    # star_dynamics: the sides alternate call by call, in the same order
    calls.clear()
    cells = ab_runs.paired_rounds(benchmark, sides, shrunk(workloads.StarDynamics), 2)
    per_round = sum(workloads.StarDynamics.REPEATS.values())
    assert [s for s, _ in calls] == list("ab" * (4 + per_round) + "ba" * per_round)
    assert all(calls[k][1] == calls[k + 1][1] for k in range(0, len(calls), 2)) and compares == list("ababba")
    check_timed(cells, 2 * per_round)
    # logistic_fisher: both sides read one dataset file, so the data_path
    # echoed in their records agrees
    cells = ab_runs.paired_rounds(benchmark, sides, shrunk(workloads.LogisticFisher), 2)
    check_timed(cells, 2 * sum(workloads.LogisticFisher.REPEATS.values()))
