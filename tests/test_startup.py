"""Start-up: a command loads NumPy only when its work needs it.

NumPy takes about half of a bare command's start-up, and only `langid`,
`minlsh` and `mixopt` use it. Each case runs in a fresh interpreter, since
the test process has long imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtforge
from mtforge.corpus import Document, ParallelPair, write_corpus

PACKAGE_ROOT = str(Path(mtforge.__file__).resolve().parents[1])

# prints, on its last line, the exit code of `main(argv)` and whether NumPy was loaded
_RUN = """
import sys
from mtforge.cli import main
code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""


def _fresh(code, *args, cwd):
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    words = "the quick brown fox jumps over a lazy dog while every good boy deserves fudge".split()
    write_corpus([Document(f"d{i}", "en", " ".join(words[i:] + words[:i])) for i in range(8)], d / "docs.jsonl")
    pairs = [ParallelPair(f"p{i}", "en", "fr", " ".join(words[i:i + 5]), "le chat est assis") for i in range(4)]
    write_corpus(pairs, d / "pairs.jsonl")
    (d / "hyps.jsonl").write_text("".join(json.dumps({"id": p.id, "hypothesis": "le chat"}) + "\n" for p in pairs))
    (d / "rewards.jsonl").write_text(json.dumps({"id": "r", "source": "the dog", "hypothesis": "le chien"}) + "\n")
    (d / "terms.json").write_text(json.dumps({"dog": ["chien"]}))
    (d / "sources.jsonl").write_text(json.dumps({"id": "s", "src_lang": "en", "tgt_lang": "fr", "text": "hi"}) + "\n")
    (d / "chimera.json").write_text(json.dumps(
        {"schema_version": 1, "backend": {"name": "gen", "endpoint": "mock:echo", "model_id": "m"}}))
    return d


@pytest.mark.parametrize("argv, loads_numpy", [
    (["--help"], False),
    (["lm-train", "--in", "docs.jsonl", "--model", "lm.txt"], False),
    (["eval", "--pairs", "pairs.jsonl", "--hyps", "hyps.jsonl", "--metric", "chrf"], False),
    (["quality-filter", "--in", "pairs.jsonl", "--scorer", "constant:0.5", "--tau", "0.5", "--out", "q.jsonl"], False),
    (["reward-score", "--in", "rewards.jsonl", "--terms", "terms.json", "--scorer", "constant:0.5",
      "--out", "r.jsonl"], False),
    (["translate", "--config", "chimera.json", "--in", "sources.jsonl", "--out", "t.jsonl"], False),
    (["fuse", "--config", "chimera.json", "--in", "sources.jsonl", "--out", "f.jsonl"], False),
    (["dedup", "--in", "docs.jsonl", "--out", "kept.jsonl"], True),
    (["langid-train", "--in", "docs.jsonl", "--model", "langid.json"], True),
    (["mix-sample", "--domains", "web,code", "--n", "3", "--out", "mix.jsonl"], True),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_command_loads_numpy_only_when_its_work_needs_it(inputs, argv, loads_numpy):
    assert _fresh(_RUN, *argv, cwd=inputs) == ["0", str(loads_numpy)]


def test_importing_the_cli_does_not_load_numpy(tmp_path):
    assert _fresh("import sys, mtforge.cli; print('numpy' in sys.modules)", cwd=tmp_path) == ["False"]


def test_package_exports_resolve_on_use():
    from mtforge import minlsh

    assert mtforge.KERNEL_BACKEND == "numpy"
    assert mtforge.dedup is minlsh.dedup
    assert {"dedup", "signature", "KERNEL_BACKEND"} <= set(dir(mtforge))
    namespace = {}
    exec("from mtforge import *", namespace)
    assert set(mtforge.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="'nope'"):
        mtforge.nope
