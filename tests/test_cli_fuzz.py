"""Fuzz the JSON Lines inputs, the JSON configs and the model files of the CLI
through cli.main.

Each JSON Lines input file holds one valid line and one drawn line; each
config file is one drawn config; each model file is one drawn object, or for
an n-gram LM a drawn header or a valid one followed by a drawn count line. A
drawn value is an arbitrary JSON value, an object keyed by the input's field
names, or the valid value with one or two fields set to drawn values.
Whatever was drawn, the command must return 0, 1 or 2 without raising (on
model files, without a warning either), and a non-zero exit must print
exactly one `error:` line and write no output. Drawn strings include lone
surrogates.
"""

import contextlib
import copy
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtforge.cli import main

DATA = Path(__file__).parent / "data"

_PAIR = {"id": "p", "src_lang": "en", "tgt_lang": "fr", "src_text": "a b c", "tgt_text": "a b d"}
_SOURCE = {"id": "s", "src_lang": "zh", "tgt_lang": "en", "text": "你好"}

# command -> (flag of the fuzzed file, its valid line, field names to draw
# keys from, other arguments; "{dir}" is replaced by the side-file directory)
COMMANDS = {
    "dedup": ("--in", {"id": "a", "lang": "en", "text": "one two three four five six"},
              ("id", "lang", "text", "provenance", "scores", "tags"), []),
    "quality-filter": ("--in", _PAIR, ("id", "src_lang", "tgt_lang", "src_text", "tgt_text", "scores"),
                       ["--scorer", "length_ratio", "--tau", "0.5"]),
    "judge-flag": ("--in", {"sample_id": "s", "round_scores": [1, 2]}, ("sample_id", "round_scores"),
                   ["--max-spread", "1"]),
    "mix-fit": ("--runs", {"domains": ["a", "b"], "weights": [0.5, 0.5], "loss": 1.0},
                ("domains", "weights", "loss"), ["--ridge-lambda", "0.1"]),
    "reward-score": ("--in", {"id": "r", "source": "s", "hypothesis": "h", "quality": 0.5},
                     ("id", "source", "hypothesis", "quality"),
                     ["--terms", str(DATA / "terms_medical.json"), "--scorer", "length_ratio"]),
    "grpo-advantages": ("--in", {"id": "g", "rewards": [0.0, 1.0]}, ("id", "rewards"), []),
    "translate": ("--in", _SOURCE, ("id", "src_lang", "tgt_lang", "text"),
                  ["--config", "{dir}/chimera.json"]),
    "eval": ("--hyps", {"id": "p", "hypothesis": "a b d"}, ("id", "hypothesis"),
             ["--pairs", "{dir}/pairs.jsonl"]),
}

# No "/" or "\": a drawn path then stays inside the working directory. One
# string in four holds a lone surrogate, which JSON can escape but UTF-8
# cannot encode.
_plain = st.text(st.characters(exclude_characters="/\\"), max_size=6)
_text = st.one_of(_plain, _plain, _plain,
                  st.builds(lambda a, c, b: a + c + b, _plain, st.characters(categories=["Cs"]), _plain))
_scalars = st.none() | st.booleans() | st.integers() | st.floats() | _text
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=6,
)


def _values(valid_values):
    # an arbitrary value, a list of scalars, a valid value (of the right JSON
    # type often enough to get past the reader's checks to the domain types'
    # own) or a valid string ending in a lone surrogate, in equal shares
    strings = [value for value in valid_values if isinstance(value, str)] or [""]
    branches = [_json, st.lists(_scalars, max_size=3), st.sampled_from(list(valid_values)),
                st.builds(str.__add__, st.sampled_from(strings), st.characters(categories=["Cs"]))]
    return st.integers(0, 3).flatmap(branches.__getitem__)


def _edited(valid: dict, place: tuple, change):
    """`valid` with the object at `place` (a key path) updated by a drawn
    `change`."""
    def apply(change):
        edited = copy.deepcopy(valid)
        target = edited
        for key in place:
            target = target[key]
        target.update(change)
        return edited

    return change.map(apply)


def _drawn_objects(valid: dict, places: dict):
    """An arbitrary JSON value, an object keyed by the top-level names, or
    `valid` with one or two fields of an object in it set to drawn values.
    `places` maps the key path of each such object to the names to draw."""
    def edit(place, names):
        target = valid
        for key in place:
            target = target[key]
        values = _values(target.values())
        return _edited(valid, place, st.dictionaries(st.sampled_from(names), values, min_size=1, max_size=2))

    keyed = st.dictionaries(st.sampled_from(places[()]), _values(valid.values()), max_size=len(places[()]))
    edited = st.one_of(*(edit(place, names) for place, names in places.items()))
    return st.one_of(_json, keyed, edited, edited)


@pytest.fixture(scope="module")
def side_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("side")
    (path / "pairs.jsonl").write_text(json.dumps(_PAIR) + "\n")
    (path / "chimera.json").write_text(json.dumps({
        "schema_version": 1,
        "backend": {"name": "gen", "endpoint": "mock:echo", "model_id": "m"},
    }))
    (path / "sources.jsonl").write_text(json.dumps(_SOURCE) + "\n")
    (path / "batch.jsonl").write_text(
        json.dumps({"id": "r", "source": "the cat", "hypothesis": "le chat", "quality": 0.5}) + "\n")
    texts = ["the cat sat on the mat", "a dog ran in the park", "the cat sat on the mat", "le chat est ici"]
    (path / "corpus.jsonl").write_text("".join(
        json.dumps({"id": f"d{i}", "lang": "fr" if text.startswith("le") else "en", "text": text}) + "\n"
        for i, text in enumerate(texts)))
    corpus = str(path / "corpus.jsonl")
    assert main(["langid-train", "--in", corpus, "--model", str(path / "langid.json")]) == 0
    assert main(["lm-train", "--in", corpus, "--model", str(path / "lm.txt"), "--order", "2"]) == 0
    return path


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_drawn_line_exits_cleanly(command, side_dir, tmp_path_factory):
    flag, valid, names, other = COMMANDS[command]
    other = [arg.replace("{dir}", str(side_dir)) for arg in other]
    out_flag = "--model-out" if command == "mix-fit" else "--out"

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(line=_drawn_objects(valid, {(): names}))
    def check(line):
        work = tmp_path_factory.mktemp(command)
        in_path, out_path = work / "in.jsonl", work / "out"
        in_path.write_text(json.dumps(valid) + "\n" + json.dumps(line) + "\n")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([command, flag, str(in_path), *other, out_flag, str(out_path)])
        assert code in (0, 1, 2)
        if code:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), stderr.getvalue()
            assert not out_path.exists()

    check()


_SCORER = {"name": "s", "kind": "local_function", "config": "length_ratio"}
_BACKEND = {"name": "b", "endpoint": "mock:echo", "model_id": "m"}

# Paths are relative: each example runs in its own directory, which holds
# copies of the side files, so a drawn output path cannot overwrite a file
# that another example reads.
_SIDE_FILES = ("corpus.jsonl", "sources.jsonl", "langid.json", "lm.txt")
_PIPELINE = {
    "schema_version": 1, "kind": "mono", "input": "corpus.jsonl",
    "output": "out.jsonl", "dropped_output": "dropped.jsonl", "seed": 3,
    "stages": [
        {"type": "langid", "model": "langid.json", "expected": "en", "min_confidence": 0.2},
        {"type": "dedup", "shingle_n": 2, "bands": 8, "rows": 2, "threshold": 0.5, "unit": "word"},
        {"type": "perplexity", "model": "lm.txt", "mode": "percentile", "q": 0.9},
    ],
}
_TRANSLATE = {
    "schema_version": 1,
    "backend": dict(_BACKEND, timeout_ms=1000, max_retries=1),
    "grid": [{"temperature": 0.1, "top_p": 0.9, "max_tokens": 8, "seed": 1}, {"temperature": 0.5}],
    "fallback_scorer": _SCORER,
}

# command -> (its valid config, {key path of an object in it: field names
# to draw keys from}, {field name: values of a type that gets past the field
# checks}, other arguments)
CONFIGS = {
    "pipeline-run": (_PIPELINE, {
        (): ("schema_version", "kind", "input", "output", "dropped_output", "unscored_output", "seed", "stages"),
        # each stage draws its own keys, plus one of another stage type
        ("stages", 0): ("type", "model", "expected", "min_confidence", "bands"),
        ("stages", 1): ("type", "shingle_n", "bands", "rows", "threshold", "unit", "mode"),
        ("stages", 2): ("type", "model", "mode", "max_ppl", "q", "tau"),
    }, {
        "schema_version": [1, 2], "kind": ["mono", "parallel"], "input": ["corpus.jsonl", "lm.txt"],
        "output": ["out.jsonl", "corpus.jsonl"], "dropped_output": ["out.jsonl", "dropped.jsonl"],
        "unscored_output": ["dropped.jsonl", "unscored.jsonl"],
        "seed": [0, -1, 2**64], "stages": [[], [{"type": "dedup"}]],
        "type": ["langid", "dedup", "perplexity", "quality_threshold"], "model": ["lm.txt", "langid.json"],
        "expected": ["en", "fr", "xx"], "min_confidence": [0, 1, 1.5], "shingle_n": [0, 1, 50],
        "bands": [1, 16, 0], "rows": [1, 8, -1], "threshold": [0, 0.5, 1],
        "unit": ["word", "char"], "mode": ["absolute", "percentile"], "max_ppl": [1, 50.0, 1e300],
        "q": [0, 0.5, 1], "tau": [0.5, 2], "scorer": [_SCORER],
    }, []),
    "translate": (_TRANSLATE, {
        (): ("schema_version", "backend", "fusion_backend", "grid", "per_slot_backends", "fallback_scorer"),
        ("backend",): ("name", "endpoint", "model_id", "timeout_ms", "max_retries"),
        ("grid", 0): ("temperature", "top_p", "max_tokens", "seed"),
        ("grid", 1): ("temperature", "top_p", "max_tokens", "seed"),
    }, {
        "schema_version": [1], "backend": [_BACKEND], "fusion_backend": [_BACKEND],
        "grid": [[{}, {}], [{}], [{}, {}, {}]], "per_slot_backends": [[None, _BACKEND], [None]],
        "fallback_scorer": [_SCORER],
        "name": ["b"], "endpoint": ["mock:echo", "mock:fail", "mock:none"], "model_id": ["m"],
        "timeout_ms": [0, 1], "max_retries": [0, -1, 3, 10**9],
        "temperature": [0, 1.5, -1], "top_p": [0, 0.5, 1], "max_tokens": [0, 1, 100], "seed": [None, 0, 5],
    }, ["--in", "sources.jsonl", "--out", "out.jsonl"]),
}


def _in_copy_of(side: Path, work: Path, monkeypatch) -> dict:
    """Make `work`, holding copies of the side files, the working directory;
    returns its files' contents."""
    for name in _SIDE_FILES:
        (work / name).write_bytes((side / name).read_bytes())
    monkeypatch.chdir(work)
    return {p.name: p.read_bytes() for p in work.iterdir()}


def _drawn_configs(valid: dict, places: dict, typed: dict):
    def edit(place, names):
        # one or two fields; three values in four are of the field's type
        def values(name):
            return st.integers(0, 3).flatmap(lambda i: st.sampled_from(typed[name]) if i else _json)

        change = st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True).flatmap(
            lambda keys: st.fixed_dictionaries({key: values(key) for key in keys}))
        return _edited(valid, place, change)

    keyed = st.dictionaries(st.sampled_from(places[()]), _values(valid.values()), max_size=len(places[()]))
    edited = st.one_of(*(edit(place, names) for place, names in places.items()))
    return st.one_of(_json, keyed, edited, edited, edited)


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_drawn_config_exits_cleanly(command, side_dir, tmp_path_factory, monkeypatch):
    valid, places, typed, other = CONFIGS[command]

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(config=_drawn_configs(valid, places, typed))
    def check(config):
        work = tmp_path_factory.mktemp(command)
        (work / "config.json").write_text(json.dumps(config))
        before = _in_copy_of(side_dir, work, monkeypatch)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([command, "--config", "config.json", *other])
        assert code in (0, 1, 2)
        if code:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), stderr.getvalue()
            assert {p.name: p.read_bytes() for p in work.iterdir()} == before

    check()


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_valid_config_runs(command, side_dir, tmp_path, monkeypatch):
    # the drawn edits start from a config that succeeds
    valid, _, _, other = CONFIGS[command]
    (tmp_path / "config.json").write_text(json.dumps(valid))
    _in_copy_of(side_dir, tmp_path, monkeypatch)
    assert main([command, "--config", "config.json", *other]) == 0
    assert (tmp_path / "out.jsonl").exists()


# Model files: command -> (flag of the model file, its valid object, {key
# path of an object in it: field names to draw}, other arguments)
_LANGID = {
    "format": "mtforge-langid", "version": 1, "classes": ["en", "fr"],
    "log_priors": {"en": -0.7, "fr": -0.7}, "ngram_range": [1, 2], "smoothing_alpha": 0.5,
    "vocab": ["a", "b"], "log_likelihoods": {"en": {"a": -0.5, "b": -1.5}, "fr": {"a": -1.5, "b": -0.5}},
    "unseen_log_likelihood": {"en": -3.0, "fr": -3.0},
}
MODELS = {
    "langid-filter": ("--model", _LANGID, {
        (): tuple(_LANGID) + ("mystery",),
        ("log_priors",): ("en", "fr", "de"),
        ("log_likelihoods",): ("en", "fr"),
        ("log_likelihoods", "en"): ("a", "b", "c"),
        ("unseen_log_likelihood",): ("en", "fr"),
    }, ["--in", "{dir}/corpus.jsonl", "--expected", "en"]),
    "reward-score": ("--terms", {"cat": ["chat"], "dog": ["chien", "toutou"]}, {
        (): ("cat", "dog", "", "bird"),
    }, ["--in", "{dir}/batch.jsonl"]),
    "mix-optimize": ("--model", {"domains": ["a", "b"], "coefficients": [0.3, 0.1, 0.2], "ridge_lambda": 0.0}, {
        (): ("domains", "coefficients", "ridge_lambda", "mystery"),
    }, ["--candidates", "16"]),
}

# an order-2 n-gram LM: its header and count lines, as lm-train writes them
_LM_HEADER = {"default_lang": "en", "discount": 0.75, "format": "mtforge-ngram-lm", "min_count": 1,
              "order": 2, "version": 1, "vocab_size": 4}
_LM_COUNTS = ["1\t</s>\t2", "1\tcat\t1", "1\tthe\t2", "2\t<s> the\t2", "2\tcat </s>\t1",
              "2\tthe cat\t1", "2\tthe </s>\t1"]


# the fields of the count line that drawn lines edit, and for each field
# values, as a count line spells them, that get past the field's own check
_LM_LINE = ("2", "the cat", "1")
_LM_FIELDS = (["1", "2", "3"], ["the cat", "cat", "the cat sat"], ["1", "0", "-1"])


def _drawn_lm_files():
    """An LM file with a drawn header, or with a valid header and count lines
    followed by a drawn count line: `_LM_LINE` with one or two of its fields
    set to drawn values (a string as it is, another value as JSON), or a
    drawn string."""
    def field(i):
        return _values(_LM_FIELDS[i]).map(lambda v: v if isinstance(v, str) else json.dumps(v))

    edits = st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True).flatmap(
        lambda places: st.fixed_dictionaries({i: field(i) for i in places}))
    line = st.one_of(_text, edits.map(lambda edit: "\t".join(edit.get(i, f) for i, f in enumerate(_LM_LINE))))
    headers = _drawn_objects(_LM_HEADER, {(): tuple(_LM_HEADER) + ("mystery",)})
    return st.one_of(headers.map(lambda header: [json.dumps(header), *_LM_COUNTS]),
                     line.map(lambda line: [json.dumps(_LM_HEADER), *_LM_COUNTS, line]))


def _run_on_model(command, flag, text, other, work):
    """Run `command` on a model file holding `text` (a lone surrogate goes
    in as the bytes UTF-8 would give it, so the file is not UTF-8) and
    check the exit code, stderr and output."""
    model, out_path = work / "model", work / "out"
    model.write_bytes(text.encode("utf-8", "surrogatepass"))
    stderr = io.StringIO()
    # a warning (say, NumPy's on an overflow) would print a second line
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, flag, str(model), *other, "--out", str(out_path)])
    assert code in (0, 1, 2)
    if code:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), stderr.getvalue()
        assert not out_path.exists()


@pytest.mark.parametrize("command", sorted(MODELS))
def test_drawn_model_exits_cleanly(command, side_dir, tmp_path_factory):
    flag, valid, places, other = MODELS[command]
    other = [arg.replace("{dir}", str(side_dir)) for arg in other]

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(model=_drawn_objects(valid, places))
    def check(model):
        _run_on_model(command, flag, json.dumps(model), other, tmp_path_factory.mktemp(command))

    check()


def test_drawn_lm_file_exits_cleanly(side_dir, tmp_path_factory):
    other = ["--in", str(side_dir / "corpus.jsonl")]

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(lines=_drawn_lm_files())
    def check(lines):
        _run_on_model("lm-filter", "--model", "\n".join(lines) + "\n", other, tmp_path_factory.mktemp("lm"))

    check()


@pytest.mark.parametrize("command", sorted(MODELS) + ["lm-filter"])
def test_valid_model_runs(command, side_dir, tmp_path):
    # the drawn edits start from a model file that loads
    if command == "lm-filter":
        flag, other = "--model", ["--in", "{dir}/corpus.jsonl"]
        text = "\n".join([json.dumps(_LM_HEADER), *_LM_COUNTS]) + "\n"
    else:
        flag, valid, _, other = MODELS[command]
        text = json.dumps(valid)
    (tmp_path / "model").write_text(text)
    other = [arg.replace("{dir}", str(side_dir)) for arg in other]
    assert main([command, flag, str(tmp_path / "model"), *other, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").exists()
