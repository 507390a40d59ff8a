"""The benchmark's traced run must still find every function it times.

`perfbench/run.py --trace 1` wraps each function listed in
`perfbench/layers.TARGETS` by its `module:qualname`; renaming or deleting one
in mtforge breaks that run, and so does a caller that binds one at import
time, since its calls then bypass the wrapper and the run aborts with "no
spans recorded". These tests install the wrappers, run small versions of the
cleaning workloads through them, and remove them again, reading
`perfbench/` without changing it.
"""

import importlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from mtforge import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(ref):
    module_name, qualname = ref.split(":")
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return {name: importlib.import_module(name) for name in ("layers", "tracing", "workloads")}


def test_traced_targets_install_and_uninstall(perfbench):
    layers, tracing = perfbench["layers"], perfbench["tracing"]
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


def _small(workload_cls, **sizes):
    """The workload at a size a unit test can afford."""
    return type(f"Small{workload_cls.__name__}", (workload_cls,), sizes)


@pytest.mark.parametrize("name, sizes", [
    ("CleanMono", {"N_DOCS": 160, "CLUSTERS": (6, 6)}),  # pipeline-run: langid -> dedup -> perplexity
    ("DedupUnique", {"N_DOCS": 100}),  # dedup
])
def test_traced_pass_records_every_layer(perfbench, tmp_path, name, sizes):
    layers, tracing = perfbench["layers"], perfbench["tracing"]
    workload = _small(getattr(perfbench["workloads"], name), **sizes)(1, tmp_path, 1, None)
    workload.prepare()
    out = tmp_path / "out"
    out.mkdir()
    tracer = tracing.Tracer()
    tracer.install(layers.TARGETS)
    try:
        for argv in workload.setup():
            if argv != ["--help"]:
                assert cli.main(list(argv)) == 0, argv
        assert [cli.main(list(argv)) for argv in workload.commands(out)] == [0]
    finally:
        tracer.uninstall()
    verdict = workload.check(out, None)
    assert not verdict.messages
    recorded = {span.name for span in tracer.spans}
    assert [layer for layer in workload.layers if layer not in recorded] == []
