"""The benchmark's tracer (perfbench/tracer.py) wraps msvgd functions by name
from outside the package.  A refactor that moves or renames one of them must
fail here rather than only under ``perfbench/run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    """Import the tracer read-only: no bytecode cache is written beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


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
