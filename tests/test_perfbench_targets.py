"""The benchmark's traced run must still find every function it times.

`perfbench/run.py --trace 1` wraps each function listed in
`perfbench/layers.TARGETS` by its `module:qualname`; renaming or deleting one
in mtforge breaks that run. This test installs every wrapper and removes it
again, reading `perfbench/` without changing it.
"""

import importlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(ref):
    module_name, qualname = ref.split(":")
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


def test_traced_targets_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracing = importlib.import_module("tracing")
    submit = ThreadPoolExecutor.submit
    originals = {target.ref: _resolve(target.ref) for target in layers.TARGETS}
    tracer = tracing.Tracer()
    try:
        tracer.install(layers.TARGETS)
        assert ThreadPoolExecutor.submit is not submit
        assert all(_resolve(ref) is not fn for ref, fn in originals.items())
    finally:
        tracer.uninstall()
    assert ThreadPoolExecutor.submit is submit
    assert all(_resolve(ref) is fn for ref, fn in originals.items())
