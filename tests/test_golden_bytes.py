"""Outputs of every command that needs no network, pinned by sha256.

Each case runs one command in-process on small seeded inputs built here and
hashes every file it writes (outputs, models, dropped and unscored files,
report), or its `--help` page. Scoring goes to a local test server, and
generation to the `mock:` backends. The hashes must equal the committed table in
`goldens/filter_bytes.json`, so a change meant to keep the bytes shows that
it did, and one that changes them shows which files. The same bytes must come
out of fresh processes under other `PYTHONHASHSEED` values, and at any
`--jobs`. Run with a report that cannot be written, each case must leave no
file at all, since a command's files are committed together.

To rewrite the table after an intended change of bytes:

    MTFORGE_UPDATE_GOLDEN_BYTES=1 PYTHONPATH=src python -m pytest -q tests/test_golden_bytes.py

and name the rows that changed in the change's description.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import mtforge
from mtforge.cli import main
from mtforge.corpus import Document, ParallelPair, write_corpus

TABLE = Path(__file__).parent / "goldens" / "filter_bytes.json"
PACKAGE_ROOT = str(Path(mtforge.__file__).resolve().parents[1])
UPDATE = os.environ.get("MTFORGE_UPDATE_GOLDEN_BYTES") == "1"

EN = ("the quick brown fox jumps over a lazy dog while every good boy deserves fudge and "
      "time saves nine when rivers run past the old mill in the quiet morning light").split()
FR = ("le chat est assis sur le tapis pendant que la maison dort et nous mangeons du pain "
      "avec du fromage dans une belle journée au bord de la rivière").split()


DIMENSIONS = ("knowledge_value", "authenticity", "writing_style")


def _write_lines(path, objs):
    path.write_text("".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs), encoding="utf-8")


def _text(rng, words, n=12):
    return " ".join(rng.choice(words) for _ in range(n))


def _score(hypothesis):
    """The test scorer's reply for a hypothesis: null when it holds '??'."""
    if "??" in hypothesis:
        return None
    return int(hashlib.sha256(hypothesis.encode()).hexdigest()[:8], 16) / 0xFFFFFFFF


class _ScoreHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        data = json.dumps({"scores": [_score(item["hypothesis"]) for item in payload["items"]]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def scorer_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScoreHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/score"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, scorer_url):
    """Seeded corpora, the models trained on them and the scorer and
    pipeline configs, in one directory."""
    d = tmp_path_factory.mktemp("golden_inputs")
    rng = random.Random(16)
    labeled = [Document(f"l{i:02d}", lang, _text(rng, words))
               for i, (lang, words) in enumerate([("en", EN), ("fr", FR)] * 20)]
    write_corpus(labeled, d / "labeled.jsonl")
    write_corpus([Document(f"t{i:02d}", "en", _text(rng, EN)) for i in range(40)], d / "lm_train.jsonl")

    docs = [Document(f"en{i:02d}", "en", _text(rng, EN)) for i in range(40)]
    for i in range(8):  # near-duplicates: one token of an English doc edited
        tokens = docs[i].text.split()
        tokens[rng.randrange(len(tokens))] = f"edit{i}"
        docs.append(Document(f"near{i}", "en", " ".join(tokens)))
    docs += [Document(f"boiler{i}", "en", "click here to accept all cookies and continue to the site")
             for i in range(6)]
    docs += [Document(f"fr{i}", "en", _text(rng, FR)) for i in range(8)]  # mislabeled foreign text
    docs += [Document(f"odd{i}", "en", f"zq{i} xv{i} the dog") for i in range(3)]  # unseen words
    rng.shuffle(docs)
    write_corpus(docs, d / "corpus.jsonl")

    pairs = [ParallelPair(f"p{i:02d}", "en", "fr", _text(rng, EN, 8),
                          _text(rng, FR, 8) + (" ??" if i % 5 == 0 else ""))
             for i in range(25)]
    write_corpus(pairs, d / "pairs.jsonl")

    scored = [Document(f"q{i:02d}", "en", _text(rng, EN), provenance=provenance,
                       scores={key: rng.randrange(3) for key in DIMENSIONS[: 3 - (i % 7 == 0)]})
              for i, provenance in enumerate(["academic", "book", "general_web", "other"] * 6)]
    write_corpus(scored, d / "scored.jsonl")
    _write_lines(d / "judge.jsonl", ({"sample_id": f"s{i:02d}", "round_scores": [rng.randrange(5) for _ in range(3)]}
                                     for i in range(20)))
    domains = ["web", "code", "books"]
    runs = []
    for i in range(12):
        weights = [rng.random() + 0.01 for _ in domains]
        weights = [w / sum(weights) for w in weights]
        runs.append({"domains": domains, "weights": weights, "loss": 2.0 + weights[0] - weights[1] + rng.random() / 10})
    _write_lines(d / "runs.jsonl", runs)
    _write_lines(d / "groups.jsonl", ({"id": f"g{i}", "rewards": [rng.random() for _ in range(4)]} for i in range(10)))

    eval_pairs = [ParallelPair(f"e{i:02d}", *(("en", "fr") if i % 2 else ("fr", "en")), _text(rng, EN, 8),
                               _text(rng, FR, 8)) for i in range(16)]
    write_corpus(eval_pairs, d / "eval_pairs.jsonl")
    _write_lines(d / "hyps.jsonl", ({"id": p.id, "hypothesis": " ".join(p.tgt_text.split()[i % 3:])}
                                    for i, p in enumerate(eval_pairs)))
    (d / "terms.json").write_text(json.dumps({"dog": ["chat"], "river": ["rivière"], "mill": ["moulin", "pain"]}))
    _write_lines(d / "rewards.jsonl", ({"id": f"r{i:02d}", "source": _text(rng, EN, 8),
                                        "hypothesis": _text(rng, FR, 4 + i % 6), "quality": rng.random()}
                                       for i in range(20)))
    sources = [("en", "fr", _text(rng, EN, 6)), ("fr", "en", _text(rng, FR, 6)), ("zh", "en", "你好世界"),
               ("en", "de", _text(rng, EN, 6))]
    _write_lines(d / "sources.jsonl", ({"id": f"s{i}", "src_lang": src, "tgt_lang": tgt, "text": text}
                                       for i, (src, tgt, text) in enumerate(sources)))
    backend = {"name": "gen", "endpoint": "mock:echo", "model_id": "m"}
    grid = [{"temperature": 0.0, "seed": 1}, {"temperature": 0.7, "seed": 2}, {"temperature": 1.0, "top_p": 0.9}]
    (d / "chimera.json").write_text(json.dumps({"schema_version": 1, "backend": backend, "grid": grid}))
    (d / "chimera_fallback.json").write_text(json.dumps({
        "schema_version": 1, "backend": backend, "grid": grid,
        "fusion_backend": {"name": "fuser", "endpoint": "mock:fail", "model_id": "f"},
        "fallback_scorer": {"name": "length_ratio", "kind": "local_function", "config": "length_ratio"}}))

    for args in (["langid-train", "--in", d / "labeled.jsonl", "--model", d / "langid.json"],
                 ["lm-train", "--in", d / "lm_train.jsonl", "--model", d / "lm.txt", "--order", 2],
                 ["lm-train", "--in", d / "lm_train.jsonl", "--model", d / "lm0.txt", "--order", 1,
                  "--discount", 0],
                 ["mix-fit", "--runs", d / "runs.jsonl", "--model-out", d / "mix_model.json"]):
        assert main([str(a) for a in args]) == 0

    scorer = {"name": "qe", "kind": "remote_http", "config": scorer_url}
    (d / "scorer.json").write_text(json.dumps(scorer))
    stages = {
        "mono": [
            {"type": "langid", "model": str(d / "langid.json"), "expected": "en", "min_confidence": 0.6},
            {"type": "dedup", "shingle_n": 2, "k": 64, "bands": 16, "rows": 4, "threshold": 0.5},
            {"type": "perplexity", "model": str(d / "lm.txt"), "mode": "percentile", "q": 0.8},
        ],
        "parallel": [{"type": "quality_threshold", "scorer": scorer, "tau": 0.5}],
    }
    for kind, corpus in (("mono", "corpus.jsonl"), ("parallel", "pairs.jsonl")):
        (d / f"pipeline_{kind}.json").write_text(json.dumps({
            "schema_version": 1, "kind": kind, "input": str(d / corpus), "output": "OUT/kept.jsonl",
            "dropped_output": "OUT/dropped.jsonl", "seed": 7, "stages": stages[kind],
        }))
    return d


# case -> command line; IN is the inputs directory and OUT the case's own
# output directory, every file of which is hashed
CASES = {
    "langid-filter": ["langid-filter", "--in", "IN/corpus.jsonl", "--model", "IN/langid.json", "--expected", "en",
                      "--min-confidence", "0.6", "--out", "OUT/kept.jsonl", "--dropped", "OUT/dropped.jsonl"],
    "dedup": ["dedup", "--in", "IN/corpus.jsonl", "--out", "OUT/kept.jsonl", "--shingle-n", "2", "--k", "64",
              "--bands", "16", "--rows", "4", "--threshold", "0.5", "--seed", "3"],
    "lm-filter": ["lm-filter", "--in", "IN/corpus.jsonl", "--model", "IN/lm.txt", "--q", "0.7",
                  "--out", "OUT/kept.jsonl", "--dropped", "OUT/dropped.jsonl"],
    "lm-filter-infinite": ["lm-filter", "--in", "IN/corpus.jsonl", "--model", "IN/lm0.txt", "--mode", "absolute",
                           "--max-ppl", "1e6", "--out", "OUT/kept.jsonl", "--dropped", "OUT/dropped.jsonl"],
    "quality-filter": ["quality-filter", "--in", "IN/pairs.jsonl", "--scorer", "IN/scorer.json", "--tau", "0.5",
                       "--out", "OUT/kept.jsonl", "--dropped", "OUT/dropped.jsonl",
                       "--unscored", "OUT/unscored.jsonl"],
    "pipeline-run-mono": ["pipeline-run", "--config", "IN/pipeline_mono.json"],
    "pipeline-run-parallel": ["pipeline-run", "--config", "IN/pipeline_parallel.json"],
    "langid-train": ["langid-train", "--in", "IN/labeled.jsonl", "--model", "OUT/langid.json", "--max-n", "2",
                     "--alpha", "0.25"],
    "lm-train": ["lm-train", "--in", "IN/lm_train.jsonl", "--model", "OUT/lm.txt", "--order", "3",
                 "--discount", "0.5", "--min-count", "2"],
    "quality-score": ["quality-score", "--in", "IN/scored.jsonl", "--out", "OUT/scored.jsonl",
                      "--unscored", "OUT/unscored.jsonl"],
    "judge-flag": ["judge-flag", "--in", "IN/judge.jsonl", "--max-spread", "2", "--out", "OUT/flags.json"],
    "mix-sample": ["mix-sample", "--domains", "web,code,books", "--n", "8", "--alpha", "0.5",
                   "--out", "OUT/mixtures.jsonl", "--seed", "5"],
    "mix-fit": ["mix-fit", "--runs", "IN/runs.jsonl", "--ridge-lambda", "0.01", "--model-out", "OUT/model.json"],
    "mix-optimize": ["mix-optimize", "--model", "IN/mix_model.json", "--candidates", "512", "--replay-fraction", "0.1",
                     "--replay-domain", "replay", "--out", "OUT/mixture.json", "--seed", "2"],
    "lr-curve": ["lr-curve", "--warmup", "5", "--total", "40", "--peak", "3e-4", "--min-lr", "1e-5",
                 "--out", "OUT/lr.csv"],
    "grpo-advantages": ["grpo-advantages", "--in", "IN/groups.jsonl", "--out", "OUT/advantages.jsonl"],
    "eval-chrf": ["eval", "--pairs", "IN/eval_pairs.jsonl", "--hyps", "IN/hyps.jsonl", "--metric", "chrf",
                  "--aggregation", "macro", "--out", "OUT/eval.json"],
    "reward-score": ["reward-score", "--in", "IN/rewards.jsonl", "--terms", "IN/terms.json", "--w-quality", "0.3",
                     "--out", "OUT/rewards.jsonl"],
    "translate": ["translate", "--config", "IN/chimera.json", "--in", "IN/sources.jsonl",
                  "--out", "OUT/candidates.jsonl", "--jobs", "2"],
    "fuse": ["fuse", "--config", "IN/chimera.json", "--in", "IN/sources.jsonl", "--out", "OUT/fused.jsonl",
             "--jobs", "2"],
    "fuse-fallback": ["fuse", "--config", "IN/chimera_fallback.json", "--in", "IN/sources.jsonl",
                      "--out", "OUT/fused.jsonl"],
}
HELP = ("langid-filter", "dedup", "lm-filter", "quality-filter", "pipeline-run")


def _check(case, digests):
    if UPDATE:
        table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
        table[case] = digests
        TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    assert digests == json.loads(TABLE.read_text())[case]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _argv(args, inputs):
    return [str(arg).replace("IN/", f"{inputs}/") for arg in args] + ["--report", "OUT/report.json"]


def _digests(out):
    return {path.name: _sha(path.read_bytes()) for path in sorted(out.iterdir())}


def _run(argv, cwd, monkeypatch):
    """The digests of the files `argv` writes, run in-process in `cwd`;
    pipeline configs name their outputs relative to it."""
    (cwd / "OUT").mkdir(parents=True)
    monkeypatch.chdir(cwd)
    assert main(argv) == 0
    return _digests(cwd / "OUT")


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_table(case, inputs, tmp_path, monkeypatch):
    _check(case, _run(_argv(CASES[case], inputs), tmp_path, monkeypatch))


@pytest.mark.parametrize("case", sorted(CASES))
def test_failed_report_write_leaves_no_output(case, inputs, tmp_path, monkeypatch, capsys):
    # every output is written before the report, whose directory is a file
    (tmp_path / "OUT").mkdir()
    (tmp_path / "OUT" / "blocker").write_text("")
    monkeypatch.chdir(tmp_path)
    assert main(_argv(CASES[case], inputs)[:-1] + ["OUT/blocker/report.json"]) == 2
    assert capsys.readouterr().err == "error: [Errno 17] File exists: 'OUT/blocker'\n"
    assert sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*")) == ["OUT", "OUT/blocker"]


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_outputs_do_not_depend_on_the_hash_seed(hash_seed, inputs, tmp_path):
    # string hashing, and so set order, is seeded when a process starts
    pythonpath = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
    for case in ("pipeline-run-mono", "dedup", "fuse"):
        (tmp_path / case / "OUT").mkdir(parents=True)
        subprocess.run([sys.executable, "-m", "mtforge", *_argv(CASES[case], inputs)], cwd=tmp_path / case,
                       env=env, check=True, capture_output=True)
        assert _digests(tmp_path / case / "OUT") == json.loads(TABLE.read_text())[case], case


@pytest.mark.parametrize("case", ["translate", "fuse", "reward-score-scorer", "dedup", "pipeline-run-mono"])
def test_outputs_do_not_depend_on_jobs(case, inputs, tmp_path, monkeypatch):
    # dedup and pipeline-run start at most one process per usable CPU; with
    # three CPUs seen, --jobs 3 cuts their input into three uneven chunks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    if case == "reward-score-scorer":  # every record scored by request
        unscored = tmp_path / "rewards.jsonl"
        _write_lines(unscored, ({key: value for key, value in json.loads(line).items() if key != "quality"}
                                for line in (inputs / "rewards.jsonl").read_text().splitlines()))
        args = ["reward-score", "--in", unscored, "--terms", "IN/terms.json", "--scorer", "constant:0.5",
                "--out", "OUT/rewards.jsonl"]
    else:
        args = CASES[case][: CASES[case].index("--jobs")] if "--jobs" in CASES[case] else CASES[case]
    runs = [_run(_argv(args + ["--jobs", jobs], inputs), tmp_path / f"jobs{jobs}", monkeypatch)
            for jobs in ("1", "2", "3")]
    assert runs[1:] == [runs[0]] * 2
    if case in CASES:  # the table holds translate and fuse at --jobs 2, the others at their default
        assert runs[0] == json.loads(TABLE.read_text())[case]


@pytest.mark.parametrize("command", HELP)
def test_help_matches_table(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # click wraps help to the terminal width
    assert main([command, "--help"]) == 0
    _check(f"help {command}", {"stdout": _sha(capsys.readouterr().out.encode())})
