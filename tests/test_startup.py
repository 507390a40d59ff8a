"""Start-up: a command loads NumPy, the thread pool, the HTTP stack,
`multiprocessing` and `hashlib` only when its work needs them.

NumPy takes about half of a bare command's start-up, and only `langid`,
`minlsh` and `mixopt` use it. `concurrent.futures` (which brings `logging`)
is needed only by the commands that fan requests out; `http.client`,
`urllib.request` and `ssl` only by the first request to an http(s)
endpoint; `multiprocessing` only by `parallel.map_chunks` at more than one
process; `hashlib` only by dedup's shingles and the echo mock backend. Each case runs in a fresh interpreter, since the test process has
long imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtforge
from mtforge.corpus import Document, ParallelPair, write_corpus

from endpoint import JsonHandler, serving

PACKAGE_ROOT = str(Path(mtforge.__file__).resolve().parents[1])

# the modules a case reports as loaded, in this order
_WATCHED = ("numpy", "multiprocessing", "concurrent.futures", "http.client", "urllib.request", "ssl", "hashlib")
# urllib.request loads hashlib, for digest authentication
_HTTP = ["http.client", "urllib.request", "ssl", "hashlib"]

# prints, on its last line, the exit code of `main(argv)` and the watched
# modules it loaded
_RUN = f"""
import sys
from mtforge.cli import main
code = main(sys.argv[1:])
print(code, *(name for name in {_WATCHED!r} if name in sys.modules))
"""


def _fresh(code, *args, cwd):
    # no proxy, so a request to the local stub goes straight to it
    env = {key: value for key, value in os.environ.items() if not key.lower().endswith("_proxy")}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=cwd, capture_output=True, text=True,
                          env=dict(env, PYTHONPATH=PACKAGE_ROOT), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


class _ScoreStub(JsonHandler):
    """A remote scorer that gives every item 1.0."""

    def do_POST(self):
        self.reply(200, {"scores": [1.0] * len(self.payload()["items"])})


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    words = "the quick brown fox jumps over a lazy dog while every good boy deserves fudge".split()
    write_corpus([Document(f"d{i}", "en", " ".join(words[i:] + words[:i])) for i in range(8)], d / "docs.jsonl")
    pairs = [ParallelPair(f"p{i}", "en", "fr", " ".join(words[i:i + 5]), "le chat est assis") for i in range(4)]
    write_corpus(pairs, d / "pairs.jsonl")
    (d / "hyps.jsonl").write_text("".join(json.dumps({"id": p.id, "hypothesis": "le chat"}) + "\n" for p in pairs))
    (d / "rewards.jsonl").write_text(json.dumps({"id": "r", "source": "the dog", "hypothesis": "le chien"}) + "\n")
    (d / "scored.jsonl").write_text(
        json.dumps({"id": "r", "source": "the dog", "hypothesis": "le chien", "quality": 0.5}) + "\n")
    (d / "terms.json").write_text(json.dumps({"dog": ["chien"]}))
    (d / "sources.jsonl").write_text(json.dumps({"id": "s", "src_lang": "en", "tgt_lang": "fr", "text": "hi"}) + "\n")
    (d / "chimera.json").write_text(json.dumps(
        {"schema_version": 1, "backend": {"name": "gen", "endpoint": "mock:echo", "model_id": "m"}}))
    with serving(_ScoreStub) as url:
        (d / "remote.json").write_text(json.dumps({"name": "qe", "kind": "remote_http", "config": f"{url}/score"}))
        yield d


_CASES = [
    (["--help"], []),
    (["lm-train", "--in", "docs.jsonl", "--model", "lm.txt"], []),
    (["eval", "--pairs", "pairs.jsonl", "--hyps", "hyps.jsonl", "--metric", "chrf"], []),
    (["quality-filter", "--in", "pairs.jsonl", "--scorer", "constant:0.5", "--tau", "0.5", "--out", "q.jsonl"], []),
    (["quality-filter", "--in", "pairs.jsonl", "--scorer", "remote.json", "--tau", "0.5", "--out", "qr.jsonl"],
     _HTTP),
    (["reward-score", "--in", "rewards.jsonl", "--terms", "terms.json", "--scorer", "constant:0.5",
      "--out", "r.jsonl"], ["concurrent.futures"]),
    # every record carries its quality, so no request is sent and no pool starts
    (["reward-score", "--in", "scored.jsonl", "--terms", "terms.json", "--scorer", "constant:0.5",
      "--out", "rs.jsonl"], []),
    (["translate", "--config", "chimera.json", "--in", "sources.jsonl", "--out", "t.jsonl"],
     ["concurrent.futures", "hashlib"]),
    (["fuse", "--config", "chimera.json", "--in", "sources.jsonl", "--out", "f.jsonl"],
     ["concurrent.futures", "hashlib"]),
    (["dedup", "--in", "docs.jsonl", "--out", "kept.jsonl", "--jobs", "1"], ["numpy", "hashlib"]),
    (["langid-train", "--in", "docs.jsonl", "--model", "langid.json"], ["numpy"]),
    # numpy.random loads hashlib, through secrets and hmac
    (["mix-sample", "--domains", "web,code", "--n", "3", "--out", "mix.jsonl"], ["numpy", "hashlib"]),
]


# no case runs more than one process, so none loads multiprocessing
@pytest.mark.parametrize("argv, loads", _CASES,
                         ids=["-".join([argv[0], *loads[:1]]) for argv, loads in _CASES])
def test_command_loads_only_what_its_work_needs(inputs, argv, loads):
    assert _fresh(_RUN, *argv, cwd=inputs) == ["0", *loads]


def test_importing_the_cli_loads_none_of_them(tmp_path):
    code = f"import sys, mtforge.cli; print('loaded', *(name for name in {_WATCHED!r} if name in sys.modules))"
    assert _fresh(code, cwd=tmp_path) == ["loaded"]


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
