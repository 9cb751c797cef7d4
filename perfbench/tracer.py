"""Spans around the public functions of each msvgd module, from outside it.

``Tracer.install`` replaces each traced function at every name a caller
looks it up by: a module-level function in every ``msvgd`` module that
imported it by name (``dynamics`` imports ``make_bundle``, ``psd_repair`` and
``median_bandwidth`` that way), a method on the class that defines it.
Nothing under ``src/`` changes, and ``uninstall`` restores the originals.

A span is (name, start, end, parent index, method); the method is the one
of the enclosing ``harness.run_experiment``.  Spans stay in memory until
``write`` dumps them once.  A span's self time is its duration minus the
durations of its direct children; calls are synchronous, so children never
overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from msvgd import cli, dynamics, harness, kernels, metrics, psdlin, targets

LAYERS = ("targets", "psdlin", "kernels", "dynamics", "metrics", "harness", "cli")

# (span name, owner, attribute): module functions are patched wherever the
# same function object is bound; class methods on the defining class
_FUNCTIONS = [
    ("targets.curvature", targets.TargetModel, "curvature"),
    *[("targets.grad", cls, "grad_log_density_batch")
      for cls in (targets.Gaussian, targets.StarMixture, targets.Sine, targets.DoubleBanana,
                  targets.LogisticPosterior)],
    *[("targets.reference_sample", cls, "reference_sample")
      for cls in (targets.Gaussian, targets.StarMixture, targets._GridSampledTarget)],
    ("psdlin.make_bundle", psdlin, "make_bundle"),
    ("psdlin.psd_repair", psdlin, "psd_repair"),
    ("kernels.median_bandwidth", kernels, "median_bandwidth"),
    *[(f"kernels.direction.{cls.kind}", cls, "direction")
      for cls in (kernels.ScalarRBF, kernels.ConstPrecond, kernels.MixturePrecond)],
    ("dynamics.run", dynamics, "run"),
    ("dynamics.averaged_preconditioner", dynamics, "averaged_preconditioner"),
    ("dynamics.refresh_anchors", dynamics, "refresh_anchors"),
    ("dynamics.svn_metrics", dynamics, "svn_metrics"),
    ("dynamics.svn_direction", dynamics, "svn_direction"),
    ("dynamics.adagrad_step", dynamics, "adagrad_step"),
    ("metrics.mmd_sq", metrics, "mmd_sq"),
    ("metrics.predictive", metrics, "predictive_metrics"),
    ("harness.build_target", harness, "build_target"),
    ("harness.persist_record", harness, "persist_record"),
    ("harness.run_experiment", harness, "run_experiment"),
    ("harness.compare", harness, "compare"),
    ("cli.main", cli, "main"),
]

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in _FUNCTIONS))
# spans called once per operation or round: their call count is fixed by the workload
FIXED_CALLS = ("dynamics.run", "harness.persist_record", "harness.run_experiment",
               "harness.compare", "cli.main")
# spans that can have traced children, so their self time differs from their total
PARENT_SPANS = ("dynamics.run", "dynamics.averaged_preconditioner", "dynamics.refresh_anchors",
                "dynamics.svn_metrics", "dynamics.svn_direction", "metrics.mmd_sq",
                "harness.build_target", "harness.run_experiment", "harness.compare", "cli.main")


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric ``summarize`` reports."""
    names = []
    for span in SPAN_NAMES:
        if span not in FIXED_CALLS:
            names.append((f"{span}.calls", "count"))
        names.append((f"{span}.s", "s"))
        if span in PARENT_SPANS:
            names.append((f"{span}.self_s", "s"))
    names += [("dynamics.iterations", "count"), ("harness.persist.bytes", "bytes")]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    return names


def _modules():
    return [m for name, m in sys.modules.items() if name == "msvgd" or name.startswith("msvgd.")]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.iterations = 0
        self._stack: list[int] = []
        self._method = None
        self._restore: list = []

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            outer_method = tracer._method
            if name == "harness.run_experiment":
                tracer._method = (args[0] if args else kwargs["config"]).method
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.spans[index] = (name, start, end, parent, tracer._method)
                tracer._method = outer_method
                tracer._stack.pop()
            if name == "dynamics.run":
                tracer.iterations += result.iterations_run
            return result

        return traced

    def install(self) -> None:
        for name, owner, attr in _FUNCTIONS:
            original = owner.__dict__[attr]
            traced = self._wrap(name, original)
            if isinstance(owner, type):
                sites = [owner]
            else:
                sites = [m for m in _modules() if m.__dict__.get(attr) is original]
            for site in sites:
                self._restore.append((site, attr, original))
                setattr(site, attr, traced)

    def reset(self) -> None:
        self.spans.clear()
        self.iterations = 0

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._restore):
            setattr(site, attr, original)
        self._restore.clear()

    def summarize(self, rounds: int, persist_bytes: int) -> dict[str, float]:
        """Per-round call counts, total and self seconds per span name and per
        layer, plus iterations run and bytes persisted."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        layer_own = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_s = end - start - child_time[index]
            calls[name] += 1
            total[name] += end - start
            own[name] += self_s
            layer_own[name.split(".")[0]] += self_s
        out = {}
        for span in SPAN_NAMES:
            if span not in FIXED_CALLS:
                out[f"{span}.calls"] = calls[span] / rounds
            out[f"{span}.s"] = total[span] / rounds
            if span in PARENT_SPANS:
                out[f"{span}.self_s"] = own[span] / rounds
        out["dynamics.iterations"] = self.iterations / rounds
        out["harness.persist.bytes"] = persist_bytes / rounds
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_own[layer] / rounds
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "method"],
                       "spans": self.spans}, fh)
