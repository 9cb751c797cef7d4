"""The benchmark's tracer (perfbench/tracer.py) wraps msvgd functions by name
from outside the package.  A refactor that moves or renames one of them must
fail here rather than only under ``perfbench/run.py --trace 1``.  And
``tools/ab_runs.py`` keeps its own copies of the benchmark's workload
configs, seed panels and logistic CSV; a drift between the two must fail
here too, as must a fault in its record comparison or in the way it runs
a round of each workload."""

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


def test_ab_runs_keeps_the_benchmark_workloads(tmp_path, monkeypatch):
    # ab_runs pins one BLAS thread in os.environ when imported; the test
    # process gets its own values back afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    ab_runs = _load(ROOT / "tools" / "ab_runs.py", "ab_runs_tool")
    workloads = _load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads", ROOT / "perfbench")
    assert sorted(ab_runs.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert ab_runs.METHODS == workloads.METHODS
    for name, cls in workloads.WORKLOADS.items():
        config, panel = ab_runs.WORKLOADS[name]
        bench = cls(tmp_path / name, seed=0)
        assert panel == cls.PANEL, name
        for method in workloads.METHODS:
            ours = config(method, panel[0], getattr(bench, "data_path", None))
            theirs = bench.config(method)
            assert {**ours, "seed": None} == {**theirs, "seed": None}, (name, method)
        if name == "logistic_fisher":
            bench.prepare()
            ab_runs.write_logistic_data(tmp_path / "ab_runs.csv")
            assert (tmp_path / "ab_runs.csv").read_bytes() == bench.data_path.read_bytes()


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
    import msvgd.harness as harness

    compares, prepared = [], []
    compare, prepare = harness.compare, harness.metrics.prepare_reference
    monkeypatch.setattr(harness, "compare", lambda configs, out: compares.append(
        Path(out).relative_to(tmp_path).parts) or compare(configs, out))
    monkeypatch.setattr(harness.metrics, "prepare_reference", lambda ys: prepared.append(len(ys)) or prepare(ys))
    sides = {"a": harness, "b": harness}
    methods = ab_runs.METHODS[::-1]
    tiny = {"n": 6, "iters": 2, "checkpoints": [0, 2], "mmd_reference_n": 40}
    timed = ab_runs.paired_runs(sides, ("b", "a"), "star_compare", methods, 3, tmp_path, None, **tiny)
    # every method of a side is timed inside that side's one compare, which
    # prepares the single reference its runs share
    assert [(s, m) for s, m, _ in timed] == [(s, m) for s in "ba" for m in methods]
    assert compares == [("b", "star_compare"), ("a", "star_compare")] and prepared == [40, 40]
    assert all(t > 0.0 for _, _, t in timed) and harness.run_experiment.__name__ == "run_experiment"
    identity = ab_runs.record_identity(tmp_path / "a" / "star_compare", tmp_path / "b" / "star_compare")
    assert identity["identical"] and (tmp_path / "a" / "star_compare" / "comparison.csv").is_file()
    # the other shapes alternate the sides call by call
    compares.clear()
    timed = ab_runs.paired_runs(sides, ("a", "b"), "star_dynamics", methods, 0, tmp_path, None, **tiny)
    assert [(s, m) for s, m, _ in timed] == [(s, m) for m in methods for s in "ab"] and compares == []
