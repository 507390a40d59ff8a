import errno
import hashlib
import json
import math
import os
import re
import socket
import stat
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np
import pytest

import mtforge
import mtforge.corpus
import mtforge.ioutils
import mtforge.langid
import mtforge.ngram_lm
from mtforge.backends import register_mock_backend
from mtforge.cli import REWARD_ITEM_FIELDS, cli, main
from mtforge.corpus import Document, read_corpus, write_corpus
from mtforge.errors import MtforgeError
from mtforge.filters import DedupStage
from mtforge.ioutils import atomic_write, dump_json, output_transaction, write_jsonl
from mtforge.ngram_lm import save_lm, train_lm
from mtforge.scorers import register_scorer

from endpoint import JsonHandler, serving

DATA = Path(__file__).parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE_ROOT = str(Path(mtforge.__file__).resolve().parents[1])


def run(*args):
    return main([str(a) for a in args])


def run_module(*args):
    """`python -m mtforge` in a fresh process importing the package under test."""
    pythonpath = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "mtforge", *map(str, args)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath))


def _write_mono(tmp_path, docs, name="corpus.jsonl"):
    path = tmp_path / name
    write_corpus(docs, path)
    return path


def _english_docs(n=20):
    phrases = [
        "the quick brown fox jumps over the lazy dog",
        "a stitch in time saves nine they always say",
        "every good boy deserves fudge and violets are blue",
    ]
    return [Document(id=f"en{i}", lang="en", text=phrases[i % 3]) for i in range(n)]


def _planted_dup_docs(seed=3, n_base=40, n_dups=10):
    rng = np.random.default_rng(seed)
    base = [
        Document(id=f"b{i:02d}", lang="en", text=" ".join(f"w{int(v)}" for v in rng.integers(0, 4000, 220)))
        for i in range(n_base)
    ]
    dups = []
    for j in range(n_dups):
        tokens = base[j].text.split()
        tokens[int(rng.integers(0, len(tokens)))] = f"edit{j}"
        dups.append(Document(id=f"d{j:02d}", lang="en", text=" ".join(tokens)))
    return base + dups


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = run_module("lr-curve", "--warmup", "2", "--total", "10",
                         "--peak", "1.0", "--min-lr", "0.1", "--out", tmp_path / "c.csv")
        assert out.returncode == 0
        assert (tmp_path / "c.csv").exists()

    def test_cli_import_loads_no_schema_validator(self):
        code = ("import sys, mtforge.cli; "
                "print(sorted(m for m in sys.modules if m.startswith(('jsonschema', 'mtforge.schemas'))))")
        pythonpath = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=pythonpath))
        assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr

    def test_module_invocation_usage_error(self):
        out = run_module("no-such-command")
        assert out.returncode == 1
        assert "Usage" in out.stderr


def _readme_commands():
    """Command names listed in README's "Commands:" paragraph."""
    paragraph = README.read_text("utf-8").split("\nCommands: ", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"`([a-z-]+)`", paragraph))


# (command, flag) of every float option
_FLOAT_FLAGS = [(name, param.opts[0]) for name, command in sorted(cli.commands.items())
                for param in command.params if isinstance(param.type, click.types.FloatParamType)]

# (command, flag) of every required output path option
_OUTPUT_FLAGS = [(name, param.opts[0]) for name, command in sorted(cli.commands.items())
                 for param in command.params
                 if param.required and isinstance(param.type, click.Path) and not param.type.exists]


# the commands' flags that name a scorer
_SCORER_FLAGS = [("quality-filter", "--scorer"), ("eval", "--metric"), ("reward-score", "--scorer")]


def _other_required_args(tmp_path, name, flag):
    """A value of its type for every required option of `name` but `flag`:
    input paths name an empty `in.jsonl` in `tmp_path`, output paths a file
    there that does not exist."""
    (tmp_path / "in.jsonl").write_text("")
    args = []
    for i, param in enumerate(cli.commands[name].params):
        if param.required and flag not in param.opts:
            if isinstance(param.type, click.Path):
                arg = tmp_path / ("in.jsonl" if param.type.exists else f"out{i}")
            else:
                arg = 1 if isinstance(param.type, (click.types.IntParamType, click.types.FloatParamType)) else "x"
            args += [param.opts[0], arg]
    return args


class TestCommandSurface:
    @pytest.mark.parametrize("name", sorted(set(cli.commands) | _readme_commands()))
    def test_listed_in_readme_with_seed_and_report_last(self, name):
        assert name in cli.commands and name in _readme_commands()
        seed, report = cli.commands[name].params[-2:]
        assert seed.opts == ["--seed"] and seed.default == 0
        assert isinstance(seed.type, click.IntRange) and (seed.type.min, seed.type.max) == (0, None)
        assert report.opts == ["--report"]

    @pytest.mark.parametrize("name", sorted(cli.commands))
    def test_negative_seed_is_one_error_line_exit_1(self, capfd, name):
        # main returns rather than raises, so no traceback can reach stderr
        assert run(name, "--seed", -1) == 1
        err = capfd.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert errors == ["error: Invalid value for '--seed': -1 is not in the range x>=0."], err

    @pytest.mark.parametrize("name", ["translate", "fuse", "reward-score", "dedup", "pipeline-run"])
    def test_jobs_below_1_is_exit_1(self, capfd, name):
        assert run(name, "--jobs", 0) == 1
        assert "error: Invalid value for '--jobs': 0 is not in the range x>=1." in capfd.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("name, flag", _FLOAT_FLAGS)
    def test_non_finite_float_flag_is_one_error_line_exit_1(self, tmp_path, capfd, name, flag, value):
        # every other required option gets a value of its type, so the float
        # check is the one that fails
        args = [flag, value, *_other_required_args(tmp_path, name, flag)]
        assert run(name, *args, "--report", tmp_path / "report.json") == 1
        err = capfd.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert errors == [f"error: Invalid value for '{flag}': {value} is not a finite number."], err
        assert [p.name for p in tmp_path.iterdir()] == ["in.jsonl"]

    @pytest.mark.parametrize("name, flag", _OUTPUT_FLAGS)
    def test_empty_output_path_is_one_error_line_exit_1(self, tmp_path, capfd, name, flag):
        # "" is Path("."), the working directory: the command must stop
        # before its body runs, not fail on writing there
        args = [flag, "", *_other_required_args(tmp_path, name, flag)]
        assert run(name, *args, "--report", tmp_path / "report.json") == 1
        err = capfd.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert errors == [f"error: Invalid value for '{flag}': an empty path names no file."], err
        assert [p.name for p in tmp_path.iterdir()] == ["in.jsonl"]

    @pytest.mark.parametrize("name, flag", _SCORER_FLAGS)
    def test_empty_scorer_spec_is_one_error_line_exit_1(self, tmp_path, capfd, monkeypatch, name, flag):
        # "" is Path("."), which exists: it must not be read as a scorer file
        calls = []
        monkeypatch.setattr(mtforge.ioutils, "read_jsonl", lambda *args: calls.append(args))
        args = [flag, "", *_other_required_args(tmp_path, name, flag)]
        assert run(name, *args, "--report", tmp_path / "report.json") == 1
        assert capfd.readouterr().err == f"error: {flag} must name a scorer, not be empty\n"
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["in.jsonl"]

    @pytest.mark.parametrize("name, flag", _SCORER_FLAGS)
    def test_missing_scorer_file_is_one_error_line_exit_1(self, tmp_path, capfd, monkeypatch, name, flag):
        calls = []
        monkeypatch.setattr(mtforge.ioutils, "read_jsonl", lambda *args: calls.append(args))
        missing = str(tmp_path / "missing.json")
        args = [flag, missing, *_other_required_args(tmp_path, name, flag)]
        assert run(name, *args, "--report", tmp_path / "report.json") == 1
        assert capfd.readouterr().err == f"error: {flag}: no such file: {missing!r}\n"
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["in.jsonl"]

    @pytest.mark.parametrize("name, flag", _SCORER_FLAGS)
    def test_unknown_scorer_names_its_flag(self, tmp_path, capfd, monkeypatch, name, flag):
        calls = []
        monkeypatch.setattr(mtforge.ioutils, "read_jsonl", lambda *args: calls.append(args))
        args = [flag, "nope", *_other_required_args(tmp_path, name, flag)]
        assert run(name, *args, "--report", tmp_path / "report.json") == 1
        assert capfd.readouterr().err == (
            f"error: {flag}: unknown local scorer 'nope' (not registered or constant:<number>)\n")
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["in.jsonl"]


def _langid_model_json(**changes):
    """A small well-formed langid model file, with some keys replaced."""
    model = {
        "format": "mtforge-langid", "version": 1, "classes": ["en", "fr"],
        "log_priors": {"en": -0.7, "fr": -0.7}, "ngram_range": [1, 1], "smoothing_alpha": 0.5,
        "vocab": ["a", "b"], "log_likelihoods": {"en": {"a": -0.5, "b": -1.5}, "fr": {"a": -1.5, "b": -0.5}},
        "unseen_log_likelihood": {"en": -3.0, "fr": -3.0},
    }
    model.update(changes)
    return json.dumps(model).encode()


_SCORER = {"name": "s", "kind": "local_function", "config": "length_ratio"}


def _scorer_json(**changes):
    """A local length_ratio scorer config that quality-filter accepts, with changes."""
    return json.dumps({**_SCORER, **changes}).encode()


_BACKEND = {"name": "gen", "endpoint": "mock:echo", "model_id": "m"}


def _config_json(config, changes, drop):
    config = {key: value for key, value in dict(config, **changes).items() if key not in drop}
    return json.dumps(config).encode()


def _pipeline_json(*stages, drop=(), **changes):
    """A pipeline config over the test's corpus.jsonl ("{dir}" is its
    directory), with its stages replaced, top-level keys changed or dropped."""
    return _config_json({"schema_version": 1, "kind": "mono", "input": "{dir}/corpus.jsonl",
                         "output": "{dir}/out.jsonl", "stages": list(stages) or [{"type": "dedup"}]},
                        changes, drop)


def _fuse_json(drop=(), **changes):
    """A translate/fuse config on the echo mock, with keys changed or dropped."""
    return _config_json({"schema_version": 1, "backend": _BACKEND}, changes, drop)


def _bad_file_args(tmp_path, command, bad_flag, content):
    """The path of a file holding `content` ("{dir}" replaced by `tmp_path`)
    and a command line that reads it as `bad_flag`, with valid other inputs,
    an output and a report in `tmp_path`."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content.replace(b"{dir}", json.dumps(str(tmp_path))[1:-1].encode()))
    mono = _write_mono(tmp_path, _english_docs(2))
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps({"id": "p", "src_lang": "en", "tgt_lang": "fr",
                                 "src_text": "a", "tgt_text": "b"}) + "\n")
    batch = tmp_path / "batch.jsonl"
    batch.write_text(json.dumps({"id": "r", "source": "the cat", "hypothesis": "le chien", "quality": 1.0}) + "\n")
    other_inputs = {
        "pipeline-run": [],
        "mix-optimize": ["--candidates", 16],
        "quality-filter": ["--in", pairs, "--tau", 0.5],
        "fuse": ["--in", _sources(tmp_path)],
        "langid-filter": ["--in", mono, "--expected", "en"],
        "lm-filter": ["--in", mono],
        "reward-score": ["--in", batch],
    }[command]
    out_flags = [] if command == "pipeline-run" else ["--out", tmp_path / "out"]
    return bad, [command, bad_flag, bad, *other_inputs, *out_flags, "--report", tmp_path / "report.json"]


# JSON nested beyond the decoder's recursion limit
_DEEP_JSON = b"[" * 50_000 + b"]" * 50_000

# an order-1 model file header
_LM_HEADER = (b'{"default_lang": "en", "discount": 0.75, "format": "mtforge-ngram-lm", "min_count": 1, "order": 1, '
              b'"version": 1, "vocab_size": 3}\n')


def _mix_model_json(**changes):
    """A two-domain mixture surface, with some keys replaced."""
    return json.dumps({"domains": ["a", "b"], "coefficients": [0.1, 0.2, 0.3], "ridge_lambda": 0.0,
                       **changes}).encode()


class TestExitCodes:
    def test_unknown_subcommand(self, capfd):
        assert run("frobnicate") == 1
        assert "Usage" in capfd.readouterr().err

    def test_missing_flag_creates_nothing(self, tmp_path, capfd):
        out = tmp_path / "never.jsonl"
        code = run("dedup", "--out", out)
        assert code == 1
        assert not out.exists()

    def test_unknown_flag(self, capfd):
        assert run("dedup", "--nope", "x") == 1

    def test_validation_error_is_exit_1(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "lang": "nolang", "text": "x"}\n')
        out = tmp_path / "out.jsonl"
        assert run("dedup", "--in", bad, "--out", out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, bad_line, message", [
        # the first two keep the ids they had when the test read dedup input only
        pytest.param("dedup", "--in", b"{bad json\n", "error: {path}: line 2: invalid JSON: ",
                     id="{bad json\n-error: line 2: invalid JSON: "),
        pytest.param("dedup", "--in", b'{"id": "b", "lang": "en", "text": "caf\xe9"}\n',
                     "error: {path}: line 2: invalid UTF-8 at byte 39",
                     id='{"id": "b", "lang": "en", "text": "caf\xe9"}\n-error: line 2: invalid UTF-8 at byte 39'),
        ("dedup", "--in", b'{"id": "b", "lang": "en", "text": 5}\n', "error: {path}: line 2: "),
        ("dedup", "--in", b'{"id": "b", "lang": "en", "text": "x", "scores": "x"}\n', "error: {path}: line 2: "),
        ("dedup", "--in", b'{"id": "b", "lang": "en", "text": "x", "tags": 5}\n', "error: {path}: line 2: "),
        ("dedup", "--in", b'{"id": "b", "lang": "en", "text": "x", "tags": [["t"]]}\n', "error: {path}: line 2: "),
        ("dedup", "--in", b'{"id": "b", "lang": "en", "text": "x", "tags": ["t", 5]}\n', "error: {path}: line 2: "),
        ("dedup", "--in", b'{"id": "b", "lang": ["en"], "text": "x"}\n', "error: {path}: line 2: "),
        ("dedup", "--in", b'{"id": 5, "lang": "en", "text": "x"}\n', "error: {path}: line 2: "),
        ("dedup", "--in", b'{"id": "", "lang": "en", "text": "x"}\n',
         "error: {path}: line 2: document id must be non-empty"),
        ("dedup", "--in", b'{"id": "b", "lang": "en", "text": "\\ud800 x"}\n',
         "error: {path}: line 2: unpaired surrogate \\ud800 in a string"),
        ("dedup", "--in", b'{"id": "b", "lang": "en", "text": "x", "scores": {"q": 1' + b"0" * 400 + b'}}\n',
         "error: {path}: line 2: "),
        ("dedup", "--in", b'{"id": "b", "lang": "en", "text": "x", "scores": {"q": 1' + b"0" * 5000 + b'}}\n',
         "error: {path}: line 2: invalid JSON: "),
        # every other reader of JSON Lines names the file of a syntax error too
        *[(command, flag, b"{bad json\n", "error: {path}: line 2: invalid JSON: ")
          for command, flag in [("quality-filter", "--in"), ("reward-score", "--in"), ("grpo-advantages", "--in"),
                                ("translate", "--in"), ("fuse", "--in"), ("judge-flag", "--in"),
                                ("eval", "--hyps"), ("mix-fit", "--runs")]],
        ("quality-filter", "--in", b'{"id": "q", "src_lang": "en", "tgt_lang": "fr", "src_text": "a", '
                                   b'"tgt_text": "b", "scores": [1]}\n', "error: {path}: line 2: "),
        ("reward-score", "--in", b"[1, 2]\n", "error: {path}: line 2: "),
        ("reward-score", "--in", b'{"id": "r2", "source": "s", "hypothesis": 5, "quality": 1.0}\n',
         "error: {path}: line 2: "),
        ("reward-score", "--in", b'{"id": "r2", "source": "s", "hypothesis": "h", "quality": "high"}\n',
         "error: {path}: line 2: "),
        ("reward-score", "--in", b'{"id": "r2", "source": "s", "hypothesis": "h", "quality": 5}\n',
         "error: {path}: line 2: quality must be in [0, 1], got 5"),
        ("reward-score", "--in", b'{"id": "r2", "source": "s", "hypothesis": " ", "quality": 0.5}\n',
         "error: {path}: line 2: cannot score empty text"),
        # a record's tag is checked when it is read, before any record is scored
        ("reward-score", "--in", b'{"id": "r2", "source": "s", "hypothesis": "h", "tgt_lang": "xx"}\n',
         "error: {path}: line 2: unknown language tag: 'xx'"),
        ("reward-score", "--in", b'{"id": "r2", "source": "s", "hypothesis": "h", "tgt_lang": 5, "quality": 0.5}\n',
         "error: {path}: line 2: field 'tgt_lang' must be string, not number"),
        ("grpo-advantages", "--in", b"5\n", "error: {path}: line 2: "),
        ("grpo-advantages", "--in", b'{"id": "g2", "rewards": "ab"}\n', "error: {path}: line 2: "),
        ("grpo-advantages", "--in", b'{"id": "g2", "rewards": [1, "x"]}\n',
         "error: {path}: line 2: rewards must be finite numbers"),
        ("grpo-advantages", "--in", b'{"id": "g2", "rewards": [1]}\n',
         "error: {path}: line 2: need a group of >= 2 rewards, got 1"),
        ("translate", "--in", b"5\n", "error: {path}: line 2: "),
        ("translate", "--in", b'{"id": "s2", "src_lang": "en", "tgt_lang": "en", "text": "hi"}\n',
         "error: {path}: line 2: source and target language are both 'en'"),
        ("fuse", "--in", b"5\n", "error: {path}: line 2: "),
        ("fuse", "--in", b'{"id": "s2", "src_lang": "en", "tgt_lang": "xx", "text": "hi"}\n',
         "error: {path}: line 2: unknown language tag: 'xx'"),
        ("quality-filter", "--in", b'{"id": "q", "src_lang": "en", "tgt_lang": "fr", "src_text": "a", '
                                   b'"tgt_text": " \\t "}\n', "error: {path}: line 2: pair 'q': empty text"),
        ("eval", "--hyps", b'{"id": "a", "hypothesis": 5}\n', "error: {path}: line 2: "),
        ("judge-flag", "--in", b'{"sample_id": "t", "round_scores": ["a", "b"]}\n', "error: {path}: line 2: "),
        # inf - inf is NaN, which no spread exceeds
        *[("judge-flag", "--in", b'{"sample_id": "t", "round_scores": %s}\n' % scores,
           "error: {path}: line 2: sample 't': judge scores must be finite")
          for scores in (b"[1e400, 1e400]", b"[1e400, 0]", b"[1" + b"0" * 400 + b", 0]")],
        ("mix-fit", "--runs", b'{"domains": ["a", "b"], "weights": [0.5, 0.5], "loss": "x"}\n',
         "error: {path}: line 2: "),
        ("mix-fit", "--runs", b'{"domains": ["a", "b"], "weights": [0.5, "x"], "loss": 1.0}\n',
         "error: {path}: line 2: mixture weights must be finite numbers"),
        ("mix-fit", "--runs", b'{"domains": ["a", "b"], "weights": [true, false], "loss": 1.0}\n',
         "error: {path}: line 2: mixture weights must be finite numbers"),
        ("mix-fit", "--runs", b'{"domains": [["a"], "b"], "weights": [0.5, 0.5], "loss": 1.0}\n',
         "error: {path}: line 2: domain names must be strings"),
        ("mix-fit", "--runs", b'{"domains": ["a", "b"], "weights": [0.5, 0.5], "loss": 1' + b"0" * 400 + b'}\n',
         "error: {path}: line 2: proxy-run loss must be finite"),
        ("mix-fit", "--runs", b'{"domains": ["a", "b"], "weights": [0.5, 0.5], "loss": 1e400}\n',
         "error: {path}: line 2: proxy-run loss must be finite"),
        ("mix-fit", "--runs", b'{"domains": ["a", "b"], "weights": [-0.5, 1.5], "loss": 1.0}\n',
         "error: {path}: line 2: mixture weights must be >= 0"),
        ("dedup", "--in", _DEEP_JSON + b"\n", "error: {path}: line 2: invalid JSON: maximum recursion depth exceeded"),
        # a line that ends inside the JSON names the column within the file's line
        ("eval", "--hyps", b'{"id": \n', "error: {path}: line 2: invalid JSON: Expecting value (column 8)"),
        # every reader of records with ids rejects a repeated id; bad.jsonl's first line has the same one
        *[(command, flag, None, f"error: {{path}}: line 2: duplicate {key} (first on line 1)")
          for command, flag, key in [("dedup", "--in", "id 'a'"), ("quality-filter", "--in", "id 'p'"),
                                     ("reward-score", "--in", "id 'r'"), ("grpo-advantages", "--in", "id 'g'"),
                                     ("translate", "--in", "id 's'"), ("fuse", "--in", "id 's'"),
                                     ("eval", "--hyps", "id 'p'"), ("judge-flag", "--in", "sample_id 's'")]],
        # a record without an id is named by its line number, which no other record's id may repeat
        *[(command, "--in", b"%s\n%s\n" % (json.dumps(row).encode(), json.dumps(dict(row, id="2")).encode()),
           "error: {path}: line 3: duplicate id '2' (first on line 2)")
          for command, row in [("reward-score", {"source": "s", "hypothesis": "h", "quality": 1.0}),
                               ("grpo-advantages", {"rewards": [0.0, 1.0]})]],
    ])
    def test_malformed_jsonl_is_one_line_exit_1(self, tmp_path, command, flag, bad_line, message):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": "p", "src_lang": "en", "tgt_lang": "fr",
                                     "src_text": "a", "tgt_text": "b"}) + "\n")
        first_line, other_inputs = {
            "dedup": ({"id": "a", "lang": "en", "text": "fine"}, []),
            "quality-filter": ({"id": "p", "src_lang": "en", "tgt_lang": "fr", "src_text": "a",
                                "tgt_text": "b"}, ["--scorer", "length_ratio", "--tau", 0.5]),
            "reward-score": ({"id": "r", "source": "s", "hypothesis": "h", "quality": 1.0},
                             ["--terms", DATA / "terms_medical.json"]),
            "grpo-advantages": ({"id": "g", "rewards": [0.0, 1.0]}, []),
            "translate": ({"id": "s", "src_lang": "zh", "tgt_lang": "en", "text": "你好"},
                          ["--config", _chimera_config(tmp_path)]),
            "fuse": ({"id": "s", "src_lang": "zh", "tgt_lang": "en", "text": "你好"},
                     ["--config", _chimera_config(tmp_path, scorer=True)]),
            "eval": ({"id": "p", "hypothesis": "b"}, ["--pairs", pairs]),
            "judge-flag": ({"sample_id": "s", "round_scores": [1, 2]}, ["--max-spread", 1]),
            "mix-fit": ({"domains": ["a", "b"], "weights": [0.5, 0.5], "loss": 1.0}, []),
        }[command]
        bad = tmp_path / "bad.jsonl"
        first_line = json.dumps(first_line).encode() + b"\n"
        bad.write_bytes(first_line + (first_line if bad_line is None else bad_line))
        out = tmp_path / "out.jsonl"
        out_flag = "--model-out" if command == "mix-fit" else "--out"
        proc = run_module(command, flag, bad, *other_inputs, out_flag, out)
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message.format(path=bad)), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command, bad_flag, content", [
        ("pipeline-run", "--config", b'{"schema_version": 1,'),
        ("pipeline-run", "--config", b'{"schema_version": 1, "kind": "caf\xe9"}'),
        ("mix-optimize", "--model", b'{"domains": ["a", "b"],'),
        ("mix-optimize", "--model", b'{"coefficients": [0.1, 0.2, 0.3], "ridge_lambda": 0.0}'),
        ("mix-optimize", "--model", b'{"domains": 3, "coefficients": [0.1], "ridge_lambda": 0.0}'),
        ("mix-optimize", "--model", b'[]'),
        ("quality-filter", "--scorer", b'{"name": "s", "kind": '),
        ("quality-filter", "--scorer", b'[1]'),
        ("quality-filter", "--scorer", _scorer_json(score_range=[1])),
        ("quality-filter", "--scorer", _scorer_json(score_range=["a", "b"])),
        ("quality-filter", "--scorer", _scorer_json(score_range=[1, 0])),
        ("quality-filter", "--scorer", _scorer_json(timeout_ms=0)),
        ("quality-filter", "--scorer", _scorer_json(name=5)),
        ("quality-filter", "--scorer", _scorer_json(colour="red")),
        ("quality-filter", "--scorer", _scorer_json(kind="remote_http", config="ftp://127.0.0.1/s")),
        ("fuse", "--config", b'{"schema_version": 1, "backend": {'),
        ("langid-filter", "--model", b'{"format": "mtforge-langid", '),
        ("langid-filter", "--model", b'[]'),
        ("langid-filter", "--model", b'{"format": "mtforge-langid"}'),
        ("langid-filter", "--model", _langid_model_json(log_likelihoods={"en": {"a": -0.5, "b": -1.5}})),
        ("langid-filter", "--model", _langid_model_json(log_priors={"en": -0.7})),
        ("langid-filter", "--model", _langid_model_json(ngram_range=[1, "x"])),
        ("langid-filter", "--model", _langid_model_json(ngram_range=[1, 9])),
        ("langid-filter", "--model", _langid_model_json(vocab=["a", "b", "c"])),
        ("lm-filter", "--model", b'garbage'),
        ("lm-filter", "--model", b'{"format":"mtforge-ngram-lm"}'),
        ("lm-filter", "--model", b'{"default_lang": "en", "discount": 0.75, "format": "mtforge-ngram-lm", '
                                 b'"min_count": 1, "order": 100000}\n'),
        ("reward-score", "--terms", b'{"blood": ["sang"'),
        ("pipeline-run", "--config", b'{"schema_version": ' + _DEEP_JSON + b"}"),
        ("lm-filter", "--model", _DEEP_JSON + b"\n"),
        # model files: each of these exited 0, 2 or with a traceback, or named no path
        ("reward-score", "--terms", b'{"cat": "chat"}'),
        ("reward-score", "--terms", b'{"cat": 5}'),
        ("reward-score", "--terms", b'{"cat": [5]}'),
        ("mix-optimize", "--model", _mix_model_json(domains="ab")),
        ("mix-optimize", "--model", _mix_model_json(ridge_lambda=True)),
        ("mix-optimize", "--model", _mix_model_json(coefficients=[0.1, "3", 0.3])),
        ("mix-optimize", "--model", _mix_model_json(mystery=1)),
        ("mix-optimize", "--model", b'{"domains": ["a", "b"], "coefficients": [0.1, 0.2, 1e400], "ridge_lambda": 0}'),
        ("mix-optimize", "--model", _mix_model_json(domains=["a", "a"])),
        ("langid-filter", "--model", _langid_model_json(smoothing_alpha="x")),
        ("langid-filter", "--model", _langid_model_json(mystery=1)),
        ("langid-filter", "--model", _langid_model_json(classes=["en", "fr", "en"])),
        ("langid-filter", "--model", _langid_model_json(log_priors={"en": True, "fr": -0.7})),
        ("lm-filter", "--model", _LM_HEADER + b"1\tthe\t-1\n1\t</s>\t1\n"),
        ("lm-filter", "--model", _LM_HEADER + b"1\tthe\t2\n1\ta b\t3\n"),
        ("lm-filter", "--model", _LM_HEADER.replace(b"}", b', "mystery": 1}') + b"1\tthe\t2\n"),
        ("lm-filter", "--model", _LM_HEADER + b"1\ta\t2\n1\ta\t5\n"),  # exited 0, the last count winning
        ("quality-filter", "--scorer", _scorer_json(config="constant:abc")),
        ("quality-filter", "--scorer", _scorer_json(kind="remote_http", config="http://127.0.0.1:9/s",
                                                    extra={"t": float("nan")})),
        ("quality-filter", "--scorer", b'{"name": "s\\ud800", "kind": "local_function", "config": "length_ratio"}'),
        # pipeline-run configs: one row per kind of fault the config schema caught
        ("pipeline-run", "--config", _pipeline_json(mystery=1)),
        ("pipeline-run", "--config", _pipeline_json({"type": "dedup", "mystery": 1})),
        ("pipeline-run", "--config", _pipeline_json(
            {"type": "quality_threshold", "scorer": dict(_SCORER, colour="red"), "tau": 0.5})),
        ("pipeline-run", "--config", _pipeline_json(drop=("kind",))),
        ("pipeline-run", "--config", _pipeline_json({"type": "perplexity", "model": "{dir}/lm.txt"})),
        ("pipeline-run", "--config", _pipeline_json(
            {"type": "quality_threshold", "scorer": {"name": "s", "kind": "local_function"}, "tau": 0.5})),
        ("pipeline-run", "--config", _pipeline_json(input=5)),
        ("pipeline-run", "--config", _pipeline_json(stages={})),
        ("pipeline-run", "--config", _pipeline_json(5)),
        ("pipeline-run", "--config", _pipeline_json({"type": "dedup", "threshold": True})),
        ("pipeline-run", "--config", _pipeline_json({"type": "dedup", "bands": 2.5})),
        ("pipeline-run", "--config", _pipeline_json(seed=1.5)),
        ("pipeline-run", "--config", _pipeline_json(schema_version=2)),
        ("pipeline-run", "--config", _pipeline_json(kind="bilingual")),
        ("pipeline-run", "--config", _pipeline_json({"type": "mystery"})),
        ("pipeline-run", "--config", _pipeline_json({"mode": "absolute"})),
        ("pipeline-run", "--config", _pipeline_json({"type": "dedup", "unit": "byte"})),
        ("pipeline-run", "--config", _pipeline_json({"type": "perplexity", "model": "{dir}/lm.txt", "mode": "median"})),
        ("pipeline-run", "--config", _pipeline_json(
            {"type": "quality_threshold", "scorer": dict(_SCORER, kind="psychic"), "tau": 0.5})),
        # translate/fuse configs
        ("fuse", "--config", _fuse_json(mystery=1)),
        ("fuse", "--config", _fuse_json(backend=dict(_BACKEND, colour="red"))),
        ("fuse", "--config", _fuse_json(grid=[{"temperature": 0.1, "colour": "red"}, {}])),
        ("fuse", "--config", _fuse_json(fallback_scorer=dict(_SCORER, colour="red"))),
        ("fuse", "--config", _fuse_json(drop=("backend",))),
        ("fuse", "--config", _fuse_json(fusion_backend={"name": "f", "endpoint": "mock:echo"})),
        ("fuse", "--config", _fuse_json(max_workers=2)),
        ("fuse", "--config", _fuse_json(grid=[{"temperature": True}, {}])),
        ("fuse", "--config", _fuse_json(grid=[{"max_tokens": 2.5}, {}])),
        ("fuse", "--config", _fuse_json(backend=dict(_BACKEND, timeout_ms="1"))),
        ("fuse", "--config", _fuse_json(schema_version=2)),
        ("fuse", "--config", _fuse_json(fallback_scorer=dict(_SCORER, kind="psychic"))),
        ("fuse", "--config", _fuse_json(fallback_scorer=dict(_SCORER, config="constant:abc"))),
        ("fuse", "--config", _fuse_json(grid=[{}])),
        ("fuse", "--config", _fuse_json(grid=[{}, {}], per_slot_backends=[None, 5])),
    ])
    def test_bad_json_file_is_one_line_exit_1(self, tmp_path, command, bad_flag, content):
        bad, args = _bad_file_args(tmp_path, command, bad_flag, content)
        before = sorted(tmp_path.iterdir())
        proc = run_module(*args)
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: "), proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command, bad_flag, content, message", [
        ("langid-filter", "--model", _langid_model_json(log_likelihoods={"en": [["a", -0.5]], "fr": {}}),
         "log_likelihoods['en'] must be an object"),
        ("langid-filter", "--model", _langid_model_json(classes=["en", "en"]),
         "classes must be distinct names, at least one, and vocab must hold strings"),
        ("langid-filter", "--model", _langid_model_json(format="mtforge-lm"),
         "field 'format' must be 'mtforge-langid', not 'mtforge-lm'"),
        ("lm-filter", "--model", _LM_HEADER + b"1\tthe\t-1\n",
         "line 2: an order-1 line needs a 1-token gram and a count >= 1"),
        ("lm-filter", "--model", _LM_HEADER + b"1\tthe\t2\n1\ta b\t3\n",
         "line 3: an order-1 line needs a 1-token gram and a count >= 1"),
        ("lm-filter", "--model", _LM_HEADER + b"1\ta\t2\n1\ta\t5\n", "line 3: repeated 1-gram"),
        ("lm-filter", "--model", _LM_HEADER.replace(b'"order": 1', b'"order": 100000'),
         "order must be in 1..32, got 100000"),
        ("lm-filter", "--model", b"[1]\n", "header: a JSON array, not an object"),
        ("lm-filter", "--model", _LM_HEADER.replace(b'"version": 1', b'"version": 7') + b"1\tthe\t2\n",
         "version must be 1, got 7"),
        ("lm-filter", "--model", _LM_HEADER.replace(b'"en"', b'"xx"') + b"1\tthe\t2\n", "unknown language tag: 'xx'"),
        ("lm-filter", "--model", _LM_HEADER.replace(b'"min_count": 1', b'"min_count": 0') + b"1\tthe\t2\n",
         "min_count must be >= 1, got 0"),
        ("lm-filter", "--model", _LM_HEADER.replace(b'"vocab_size": 3', b'"vocab_size": 999') + b"1\tthe\t2\n",
         "header: vocab_size must be 3, got 999"),
        ("lm-filter", "--model", _LM_HEADER + b"1\tthe\t2\n1\tcaf\xe9\t3\n", "line 3: invalid UTF-8 at byte 6"),
        ("lm-filter", "--model", _LM_HEADER.replace(b'"en"', b'"\\ud800"') + b"1\tthe\t2\n",
         "line 1: unpaired surrogate \\ud800 in a string"),
        ("lm-filter", "--model", b"{bad\n1\tthe\t2\n",
         "line 1: invalid JSON: Expecting property name enclosed in double quotes (column 2)"),
        ("langid-filter", "--model", _langid_model_json(version=7), "version must be 1, got 7"),
        # the first class wins a tie, so classes out of registry order flipped ties toward fr
        ("langid-filter", "--model", _langid_model_json(classes=["fr", "en"]),
         "classes must be in registry order, got ['fr', 'en']"),
        ("langid-filter", "--model", _langid_model_json(classes=["en", "xx"]), "unknown language tag: 'xx'"),
        ("langid-filter", "--model", _langid_model_json(smoothing_alpha=0),
         "smoothing_alpha must be a finite number > 0, got 0"),
        ("reward-score", "--terms", b'{"cat": ["chat", ""]}', "term 'cat' needs a list of non-empty renderings"),
        ("reward-score", "--terms", b'["cat"]', "a JSON array, not an object"),
        ("mix-optimize", "--model", _mix_model_json(domains=["a", "a"]),
         "domains must be a non-empty list of distinct names"),
        ("mix-optimize", "--model", _mix_model_json(coefficients=[0.1]), "1 coefficients for 2 domains, expected 3"),
        ("mix-optimize", "--model", _mix_model_json(coefficients=[1e308, 1e308, 0]),
         "coefficients and ridge_lambda must be finite numbers"),
        # a timeout this long overflowed the socket's time_t in a traceback
        ("quality-filter", "--scorer", _scorer_json(kind="remote_http", config="http://127.0.0.1:9/s",
                                                    timeout_ms=10**30),
         f"scorer timeout_ms must be <= 86400000 (one day), got {10**30}"),
    ])
    def test_model_file_error_names_the_problem(self, tmp_path, capsys, command, bad_flag, content, message):
        bad, args = _bad_file_args(tmp_path, command, bad_flag, content)
        assert run(*args) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, args, fault", [
        ("langid-filter", ["--model", "{dir}/langid.json", "--expected", "en"],
         "{dir}/langid.json: invalid JSON: Expecting value (column 41)"),
        ("lm-filter", ["--model", "{dir}/lm.txt"],
         "{dir}/lm.txt: line 1: invalid JSON: Expecting property name enclosed in double quotes (column 41)"),
        ("dedup", ["--threshold", 0], "threshold must be in (0, 1], got 0.0"),
        ("quality-filter", ["--scorer", "chrf", "--tau", 10],
         "scorer 'chrf' reads the item field 'reference', but items here carry only source, hypothesis, "
         "src_lang, tgt_lang"),
        ("pipeline-run", ["--config", "{dir}/pipeline.json"],
         "{dir}/pipeline.json: stages[0]: stage 'dedup' expects mono records, not parallel"),
    ])
    def test_stage_fault_is_reported_before_an_input_fault(self, tmp_path, capsys, command, args, fault):
        # each filter command builds its stage, with its model file or
        # scorer, before it reads --in
        (tmp_path / "langid.json").write_bytes(_langid_model_json()[:40])
        (tmp_path / "lm.txt").write_bytes(_LM_HEADER[:40])
        (tmp_path / "in.jsonl").write_text("{bad json\n")
        (tmp_path / "pipeline.json").write_bytes(
            _pipeline_json({"type": "dedup"}, kind="parallel", input="{dir}/in.jsonl")
            .replace(b"{dir}", json.dumps(str(tmp_path))[1:-1].encode()))
        io = [] if command == "pipeline-run" else ["--in", tmp_path / "in.jsonl", "--out", tmp_path / "out.jsonl"]
        before = sorted(tmp_path.iterdir())
        args = [str(arg).replace("{dir}", str(tmp_path)) for arg in args]
        assert run(command, *args, *io, "--report", tmp_path / "report.json") == 1
        assert capsys.readouterr().err == f"error: {fault.replace('{dir}', str(tmp_path))}\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command, content, message", [
        ("pipeline-run", _pipeline_json({"type": "dedup", "mystery": 1}), "stages[0]: unknown fields ['mystery']"),
        ("pipeline-run", _pipeline_json({"type": "dedup"}, {"type": "dedup", "rows": 2.5}),
         "stages[1]: field 'rows' must be integer, not number"),
        # the signature length is bands x rows, not a setting
        ("pipeline-run", _pipeline_json({"type": "dedup", "k": 128}), "stages[0]: unknown fields ['k']"),
        ("pipeline-run", _pipeline_json({"type": "dedup"}, {"type": "dedup"}),
         "stages[1]: a second dedup stage; each stage type may appear once"),
        ("pipeline-run", _pipeline_json({"type": "dedup", "unit": "byte"}),
         "stages[0]: field 'unit' must be 'word' or 'char', not 'byte'"),
        ("pipeline-run", _pipeline_json({"type": "perplexity", "model": "lm.txt"}),
         "stages[0]: missing fields ['mode']"),
        ("pipeline-run", _pipeline_json(5), "stages[0]: a JSON number, not an object"),
        ("pipeline-run", _pipeline_json({"type": "quality_threshold", "scorer": dict(_SCORER, kind="x"), "tau": 1},
                                        kind="parallel"),
         "stages[0].scorer: scorer kind must be local_function or remote_http, got 'x'"),
        # checked when the entry's type is read, before any model file or scorer is loaded
        ("pipeline-run", _pipeline_json({"type": "dedup"}, kind="parallel"),
         "stages[0]: stage 'dedup' expects mono records, not parallel"),
        ("pipeline-run", _pipeline_json(schema_version=2), "schema_version must be 1, got 2"),
        ("pipeline-run", _pipeline_json(drop=("kind", "input")), "missing fields ['input', 'kind']"),
        ("pipeline-run", b"[]", "a JSON array, not an object"),
        ("pipeline-run", _pipeline_json(output=""), "field 'output' must name a file, not be empty"),
        ("pipeline-run", _pipeline_json(input=""), "field 'input' must name a file, not be empty"),
        # stage values, checked when the stage is built, before any input is read
        ("pipeline-run", _pipeline_json({"type": "dedup"}, {"type": "perplexity", "model": "{dir}/lm.txt",
                                                            "mode": "percentile", "q": 2}),
         "stages[1]: percentile mode requires q in (0, 1]"),
        ("pipeline-run", _pipeline_json({"type": "perplexity", "model": "{dir}/lm.txt", "mode": "absolute"}),
         "stages[0]: absolute mode requires max_ppl > 1"),
        ("pipeline-run", _pipeline_json({"type": "langid", "model": "{dir}/langid.json", "expected": "en",
                                         "min_confidence": 7}),
         "stages[0]: min_confidence must be in [0, 1], got 7"),
        ("pipeline-run", _pipeline_json({"type": "langid", "model": "{dir}/langid.json", "expected": "xx"}),
         "stages[0]: unknown language tag: 'xx'"),
        ("pipeline-run", _pipeline_json({"type": "quality_threshold", "scorer": _SCORER, "tau": 2}, kind="parallel"),
         "stages[0]: tau=2 outside scorer range [0.0, 1.0]"),
        ("pipeline-run", _pipeline_json({"type": "quality_threshold", "scorer": dict(_SCORER, config="chrf"),
                                         "tau": 10}, kind="parallel"),
         "stages[0]: scorer 's' reads the item field 'reference', but items here carry only source, hypothesis, "
         "src_lang, tgt_lang"),
        ("pipeline-run", _pipeline_json({"type": "dedup", "shingle_n": 0}),
         "stages[0]: shingle width must be >= 1, got 0"),
        ("pipeline-run", _pipeline_json({"type": "dedup", "shingle_n": 33}),
         "stages[0]: shingle width must be <= 32, got 33"),
        ("pipeline-run", _pipeline_json({"type": "dedup", "threshold": 0}),
         "stages[0]: threshold must be in (0, 1], got 0"),
        # a top-level field, so no stage is blamed; a run without a dedup stage used it unchecked
        ("pipeline-run", _pipeline_json({"type": "perplexity", "model": "{dir}/lm.txt", "mode": "percentile"},
                                        seed=-1),
         "field 'seed' must be >= 0, got -1"),
        ("fuse", _fuse_json(backend=dict(_BACKEND, max_retries=-1)), "backend: max_retries must be >= 0, got -1"),
        ("fuse", _fuse_json(backend=dict(_BACKEND, max_retries=10**9)),
         "backend: max_retries must be <= 10, got 1000000000"),
        ("fuse", _fuse_json(fusion_backend=dict(_BACKEND, colour=1)), "fusion_backend: unknown fields ['colour']"),
        ("fuse", _fuse_json(grid=[{}, {"top_p": True}]), "grid[1]: field 'top_p' must be number, not boolean"),
        ("fuse", _fuse_json(grid=[{"temperature": float("nan")}, {}]), "grid[0]: temperature must be >= 0, got nan"),
        ("fuse", _fuse_json(grid=[{}]), "grid must have >= 2 entries, got 1"),
        ("fuse", _fuse_json(grid=[{}, {}], per_slot_backends=[None, 5]),
         "per_slot_backends[1]: a JSON number, not an object"),
        ("fuse", _fuse_json(fallback_scorer=dict(_SCORER, config="constant:abc")),
         "fallback_scorer: constant scorer value must be a finite number, got 'abc'"),
        ("fuse", _fuse_json(max_workers=2), "unknown fields ['max_workers']"),
        ("fuse", _fuse_json(backend=dict(_BACKEND, endpoint="ftp://127.0.0.1/c")),
         "backend: endpoint must be mock:<name> or an http(s) URL, got 'ftp://127.0.0.1/c'"),
        ("fuse", _fuse_json(per_slot_backends=[None, dict(_BACKEND, endpoint="127.0.0.1:8000")] + [None] * 4),
         "per_slot_backends[1]: endpoint must be mock:<name> or an http(s) URL, got '127.0.0.1:8000'"),
        ("fuse", _fuse_json(fallback_scorer=dict(_SCORER, kind="remote_http", config="ftp://127.0.0.1/s")),
         "fallback_scorer: remote scorer config must be an http(s) URL, got 'ftp://127.0.0.1/s'"),
        # a timeout this long overflowed the socket's time_t in a traceback
        ("translate", _fuse_json(backend=dict(_BACKEND, endpoint="http://127.0.0.1:9/c", timeout_ms=10**30)),
         f"backend: timeout_ms must be <= 86400000 (one day), got {10**30}"),
        ("fuse", _fuse_json(fallback_scorer=dict(_SCORER, timeout_ms=86400001)),
         "fallback_scorer: scorer timeout_ms must be <= 86400000 (one day), got 86400001"),
        # the length was checked per segment, in a message naming no file
        ("translate", _fuse_json(per_slot_backends=[None, None]),
         "per_slot_backends must have one entry per grid entry (6), got 2"),
        ("fuse", _fuse_json(grid=[{}, {}, {}], per_slot_backends=[None] * 6),
         "per_slot_backends must have one entry per grid entry (3), got 6"),
    ])
    def test_config_error_names_the_place(self, tmp_path, capsys, command, content, message):
        (tmp_path / "langid.json").write_bytes(_langid_model_json())
        save_lm(train_lm(_english_docs(3), order=1), tmp_path / "lm.txt")
        bad = tmp_path / "bad.json"
        bad.write_bytes(content.replace(b"{dir}", json.dumps(str(tmp_path))[1:-1].encode()))
        other = ["--in", _sources(tmp_path), "--out", tmp_path / "out.jsonl"] if command != "pipeline-run" else []
        assert run(command, "--config", bad, *other) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_bad_stage_value_stops_before_any_work(self, tmp_path, capsys, monkeypatch):
        corpus = _write_mono(tmp_path, _english_docs(5))
        save_lm(train_lm(_english_docs(3), order=2), tmp_path / "lm.txt")
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({
            "schema_version": 1, "kind": "mono", "input": str(corpus), "output": str(tmp_path / "out.jsonl"),
            "dropped_output": str(tmp_path / "dropped.jsonl"),
            "stages": [{"type": "dedup"}, {"type": "perplexity", "model": str(tmp_path / "lm.txt"),
                                           "mode": "percentile", "q": 2}],
        }))
        calls = []
        monkeypatch.setattr(mtforge.ngram_lm, "perplexity", lambda *args: calls.append(args))
        monkeypatch.setattr(mtforge.corpus, "read_corpus", lambda *args: calls.append(args))
        assert run("pipeline-run", "--config", config, "--report", tmp_path / "report.json") == 1
        assert capsys.readouterr().err == f"error: {config}: stages[1]: percentile mode requires q in (0, 1]\n"
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "lm.txt", "pipeline.json"]

    def test_second_stage_of_a_type_stops_before_any_work(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("{bad json\n")
        config = tmp_path / "pipeline.json"
        config.write_bytes(_pipeline_json({"type": "dedup"}, {"type": "dedup", "threshold": 0.5})
                           .replace(b"{dir}", json.dumps(str(tmp_path))[1:-1].encode()))
        calls = []
        monkeypatch.setattr(mtforge.corpus, "read_corpus", lambda *args: calls.append(args))
        assert run("pipeline-run", "--config", config, "--report", tmp_path / "report.json") == 1
        assert capsys.readouterr().err == (
            f"error: {config}: stages[1]: a second dedup stage; each stage type may appear once\n")
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "pipeline.json"]

    @pytest.mark.parametrize("args, message", [
        (["judge-flag", "--in", "{judge}", "--max-spread", -1], "max_spread must be >= 0, got -1.0"),
        (["langid-train", "--in", "{mono}", "--model", "{out}", "--min-n", 0], "bad ngram range (0, 3)"),
        (["mix-fit", "--runs", "{runs}", "--model-out", "{out}", "--ridge-lambda", -1],
         "ridge lambda must be >= 0, got -1.0"),
        # a fault of the runs file names it, and a line's fault the line
        (["mix-fit", "--runs", "{empty}", "--model-out", "{out}"], "{empty}: no proxy runs to fit"),
        (["mix-fit", "--runs", "{mixed}", "--model-out", "{out}"],
         "{mixed}: line 2: domains ['a', 'c'] differ from the first run's ['a', 'b']"),
        (["mix-optimize", "--model", "{model}", "--out", "{out}", "--candidates", 0], "need n_candidates >= 1, got 0"),
        # checked before any work: the empty model file is never read
        (["mix-optimize", "--model", "{empty}", "--out", "{out}", "--replay-fraction", 0.1],
         "--replay-fraction and --replay-domain go together"),
        (["mix-optimize", "--model", "{empty}", "--out", "{out}", "--replay-domain", "replay"],
         "--replay-fraction and --replay-domain go together"),
        # NumPy cannot index an array of 2**63 bytes: 2**59 mixtures of 2 float64 weights is the first such
        (["mix-sample", "--domains", "a,b", "--n", 10**19, "--out", "{out}"],
         f"n {10**19} is more mixtures of 2 domains than NumPy can index"),
        (["mix-sample", "--domains", "a,b", "--n", 2**59, "--out", "{out}"],
         f"n {2**59} is more mixtures of 2 domains than NumPy can index"),
        (["mix-optimize", "--model", "{model}", "--out", "{out}", "--candidates", 10**19],
         f"n_candidates {10**19} is more mixtures of 2 domains than NumPy can index"),
        (["langid-train", "--in", "{mono}", "--model", "{out}", "--max-n", 9], "n-gram width must be <= 8, got 9"),
        (["dedup", "--in", "{mono}", "--out", "{out}", "--shingle-n", 33], "shingle width must be <= 32, got 33"),
    ])
    def test_bad_value_is_one_line_exit_1(self, tmp_path, capsys, args, message):
        run_line = {"domains": ["a", "b"], "weights": [0.5, 0.5], "loss": 1.0}
        paths = {name: tmp_path / name for name in ("judge", "mono", "runs", "empty", "mixed", "model", "out")}
        write_jsonl(paths["judge"], [{"sample_id": "s", "round_scores": [1, 2]}])
        write_corpus(_english_docs(2), paths["mono"])
        write_jsonl(paths["runs"], [run_line, dict(run_line, weights=[0.2, 0.8], loss=2.0)])
        write_jsonl(paths["empty"], [])
        write_jsonl(paths["mixed"], [run_line, dict(run_line, domains=["a", "c"])])
        paths["model"].write_bytes(_mix_model_json())
        before = sorted(tmp_path.iterdir())
        assert run(*[str(arg).format(**paths) for arg in args], "--report", tmp_path / "report.json") == 1
        assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("bands, rows", [(-1, -128), (0, 8), (16, 0)])
    def test_dedup_rejects_bands_or_rows_below_1(self, tmp_path, capsys, monkeypatch, bands, rows):
        corpus = _write_mono(tmp_path, _english_docs(3))
        (tmp_path / "langid.json").write_bytes(_langid_model_json())
        calls = []
        monkeypatch.setattr(mtforge.langid, "predict_lang", lambda *args: calls.append(args))
        monkeypatch.setattr(mtforge.corpus, "read_corpus", lambda *args: calls.append(args))
        out = tmp_path / "kept.jsonl"
        assert run("dedup", "--in", corpus, "--out", out, "--bands", bands, "--rows", rows) == 1
        assert capsys.readouterr().err == f"error: bands and rows must be >= 1, got {bands}x{rows}\n"
        config = tmp_path / "pipeline.json"
        config.write_bytes(_pipeline_json({"type": "langid", "model": "{dir}/langid.json", "expected": "en"},
                                          {"type": "dedup", "bands": bands, "rows": rows})
                           .replace(b"{dir}", json.dumps(str(tmp_path))[1:-1].encode()))
        assert run("pipeline-run", "--config", config) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: stages[1]: bands and rows must be >= 1, got {bands}x{rows}\n")
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "langid.json", "pipeline.json"]

    @pytest.mark.parametrize("bands, rows", [(4097, 1), (65, 64), (10**9, 10**9)])
    def test_dedup_rejects_a_signature_over_the_bound(self, tmp_path, capsys, bands, rows):
        corpus = _write_mono(tmp_path, _english_docs(3))
        message = f"bands x rows must be <= 4096, got {bands}x{rows}"
        assert run("dedup", "--in", corpus, "--out", tmp_path / "kept.jsonl", "--bands", bands, "--rows", rows) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        config = tmp_path / "pipeline.json"
        config.write_bytes(_pipeline_json({"type": "dedup", "bands": bands, "rows": rows})
                           .replace(b"{dir}", json.dumps(str(tmp_path))[1:-1].encode()))
        assert run("pipeline-run", "--config", config) == 1
        assert capsys.readouterr().err == f"error: {config}: stages[0]: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "pipeline.json"]

    def test_dedup_value_is_checked_before_the_corpus_is_read(self, tmp_path, capsys):
        empty = tmp_path / "corpus.jsonl"
        empty.write_text("")
        assert run("dedup", "--in", empty, "--out", tmp_path / "kept.jsonl", "--shingle-n", 0,
                   "--report", tmp_path / "report.json") == 1
        assert capsys.readouterr().err == "error: shingle width must be >= 1, got 0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]

    def test_dedup_of_an_empty_corpus_is_exit_0(self, tmp_path):
        empty = tmp_path / "corpus.jsonl"
        empty.write_text("")
        out = tmp_path / "kept.jsonl"
        assert run("dedup", "--in", empty, "--out", out, "--report", tmp_path / "report.json") == 0
        assert out.read_bytes() == b""
        assert json.loads((tmp_path / "report.json").read_text())["counts"] == {"dropped": 0, "input": 0, "kept": 0}

    def test_constant_scorer_shorthand_must_be_a_finite_number(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": "p", "src_lang": "en", "tgt_lang": "fr",
                                     "src_text": "a", "tgt_text": "b"}) + "\n")
        for value in ("abc", "inf", ""):
            assert run("quality-filter", "--in", pairs, "--scorer", f"constant:{value}", "--tau", 0.5,
                       "--out", tmp_path / "out.jsonl") == 1
            assert capsys.readouterr().err == (
                f"error: --scorer: constant scorer value must be a finite number, got {value!r}\n")
        assert not (tmp_path / "out.jsonl").exists()

    def test_out_of_memory_without_a_message_says_what_happened(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError()  # as a failed allocation raises it, with no message

        monkeypatch.setattr(mtforge.corpus, "read_corpus", exhausted)
        docs = _write_mono(tmp_path, _english_docs(4))
        model = tmp_path / "lm.txt"
        assert run("lm-train", "--in", docs, "--model", model, "--report", tmp_path / "report.json") == 2
        assert capsys.readouterr().err == "error: out of memory; no output was written\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]

    def test_io_error_is_exit_2(self, tmp_path):
        docs = _write_mono(tmp_path, _english_docs(4))
        # output directory path collides with an existing file
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir")
        assert run("dedup", "--in", docs, "--out", blocker / "out.jsonl") == 2

    def test_exit_code_given_to_click_is_returned(self, monkeypatch):
        exit_3 = click.Command("exit-3", callback=lambda: click.get_current_context().exit(3))
        monkeypatch.setitem(cli.commands, "exit-3", exit_3)
        assert run("exit-3") == 3


def _files(directory):
    return sorted(path.name for path in directory.iterdir())


class TestOutputTransaction:
    """A command's outputs and report are renamed into place together, after
    all of them are written, or none is."""

    def _pipeline(self, tmp_path, **outputs):
        _write_mono(tmp_path, _english_docs(6))
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"schema_version": 1, "kind": "mono", "input": str(tmp_path / "corpus.jsonl"),
                                      **{key: str(path) for key, path in outputs.items()},
                                      "stages": [{"type": "dedup"}]}))
        return config

    def test_unwritable_last_output_leaves_the_others_unwritten(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir")
        config = self._pipeline(tmp_path, output=tmp_path / "kept.jsonl", dropped_output=tmp_path / "dropped.jsonl",
                                unscored_output=blocker / "unscored.jsonl")
        before = _files(tmp_path)
        assert run("pipeline-run", "--config", config) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert _files(tmp_path) == before

    @pytest.mark.parametrize("command", ["dedup-dropped", "dedup-report", "pipeline-run"])
    def test_two_outputs_naming_one_file_is_exit_1_and_writes_nothing(self, tmp_path, capsys, monkeypatch, command):
        kept = tmp_path / "kept.jsonl"
        monkeypatch.chdir(tmp_path)  # a relative and an absolute path name one file
        args = {
            "dedup-dropped": ["dedup", "--in", _write_mono(tmp_path, _english_docs(6)), "--out", kept,
                              "--dropped", "kept.jsonl"],
            "dedup-report": ["dedup", "--in", _write_mono(tmp_path, _english_docs(6)), "--out", kept,
                             "--report", kept],
            "pipeline-run": ["pipeline-run", "--config", self._pipeline(tmp_path, output=kept, dropped_output=kept)],
        }[command]
        before = _files(tmp_path)
        assert run(*args) == 1
        assert capsys.readouterr().err.endswith("kept.jsonl: written twice by one command\n")
        assert _files(tmp_path) == before

    def test_output_may_replace_its_own_input(self, tmp_path):
        corpus = _write_mono(tmp_path, _english_docs(6))
        assert run("dedup", "--in", corpus, "--out", corpus, "--dropped", tmp_path / "dropped.jsonl") == 0
        assert len(read_corpus(corpus, "mono")) == 3

    def test_failed_rename_keeps_the_renames_before_it(self, tmp_path, capsys, monkeypatch):
        # the one window left: --out is renamed before the rename of --dropped
        # fails; the report, written after, is not renamed
        corpus = _write_mono(tmp_path, _english_docs(6))
        real_replace, calls = os.replace, []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError(errno.EIO, os.strerror(errno.EIO), src, dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert run("dedup", "--in", corpus, "--out", tmp_path / "kept.jsonl", "--dropped", tmp_path / "dropped.jsonl",
                   "--report", tmp_path / "report.json") == 2
        dropped = (tmp_path / "dropped.jsonl").resolve()
        assert capsys.readouterr().err == f"error: [Errno {errno.EIO}] {os.strerror(errno.EIO)}: '{dropped}'\n"
        assert _files(tmp_path) == ["corpus.jsonl", "kept.jsonl"]

    def test_directory_destination_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        # refused when staged, so the --out written before it is not renamed
        (tmp_path / "dropped").mkdir()
        corpus = _write_mono(tmp_path, _english_docs(6))
        before = _files(tmp_path)
        assert run("dedup", "--in", corpus, "--out", tmp_path / "kept.jsonl", "--dropped", tmp_path / "dropped",
                   "--report", tmp_path / "report.json") == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{tmp_path / 'dropped'}'\n"
        assert _files(tmp_path) == before
        assert _files(tmp_path / "dropped") == []

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_outputs_get_the_umask_mode(self, tmp_path, umask):
        # a new file and one the command replaces get the mode open() gives a new file
        out, report = tmp_path / "mixtures.jsonl", tmp_path / "report.json"
        report.write_text("{}")
        report.chmod(0o640)
        old = os.umask(umask)
        try:
            assert run("mix-sample", "--domains", "a,b", "--n", 4, "--out", out, "--report", report) == 0
        finally:
            os.umask(old)
        assert [stat.S_IMODE(path.stat().st_mode) for path in (out, report)] == [0o666 & ~umask] * 2

    def test_nested_transaction_joins_the_outer_one(self, tmp_path):
        with pytest.raises(RuntimeError):
            with output_transaction():
                with output_transaction():
                    with atomic_write(tmp_path / "a.txt") as handle:
                        handle.write("a")
                assert not (tmp_path / "a.txt").exists()  # the inner block committed nothing
                raise RuntimeError
        assert _files(tmp_path) == []
        with output_transaction():
            with output_transaction():
                dump_json(tmp_path / "b.json", {})
            write_jsonl(tmp_path / "c.jsonl", [])
        assert _files(tmp_path) == ["b.json", "c.jsonl"]


class TestDedupCommand:
    def test_matches_module_level_run(self, tmp_path):
        from mtforge.minlsh import dedup as dedup_fn

        docs = _planted_dup_docs()
        in_path = _write_mono(tmp_path, docs)
        out_path = tmp_path / "kept.jsonl"
        report_path = tmp_path / "dedup.json"
        code = run(
            "dedup", "--in", in_path, "--out", out_path, "--report", report_path, "--seed", 5
        )
        assert code == 0
        kept_ref, dropped_ref = dedup_fn(docs, **asdict(DedupStage(seed=5)))
        kept = read_corpus(out_path, "mono")
        assert [d.id for d in kept] == [d.id for d in kept_ref]
        report = json.loads(report_path.read_text())
        assert report["schema_version"] == 1
        assert report["counts"] == {
            "input": len(docs), "kept": len(kept_ref), "dropped": len(dropped_ref),
        }
        dropped_rows = [
            json.loads(line) for line in (tmp_path / "kept.jsonl.dropped.jsonl").read_text().splitlines()
        ]
        assert {r["dropped_id"] for r in dropped_rows} == {doc.id for doc, _, _ in dropped_ref}

    def test_jobs_accepted_and_output_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})  # so --jobs 3 runs 3 processes
        in_path = _write_mono(tmp_path, _planted_dup_docs(seed=4, n_base=15, n_dups=5))
        outputs = []
        for jobs in (1, 2, 3):
            out = tmp_path / f"jobs{jobs}.jsonl"
            assert run("dedup", "--in", in_path, "--out", out, "--dropped", tmp_path / f"dropped{jobs}.jsonl",
                       "--jobs", jobs, "--report", tmp_path / f"report{jobs}.json") == 0
            outputs.append([(tmp_path / name).read_bytes()
                            for name in (f"jobs{jobs}.jsonl", f"dropped{jobs}.jsonl", f"report{jobs}.json")])
        assert outputs[1:] == [outputs[0]] * 2

    def test_signature_length_is_bands_times_rows(self, tmp_path):
        in_path = _write_mono(tmp_path, _planted_dup_docs(seed=4, n_base=15, n_dups=5))
        report_path = tmp_path / "report.json"
        assert run("dedup", "--in", in_path, "--out", tmp_path / "kept.jsonl", "--bands", 20, "--rows", 8,
                   "--report", report_path) == 0
        assert json.loads(report_path.read_text())["params"]["k"] == 160

    def test_k_is_not_an_option(self, tmp_path, capsys):
        in_path = _write_mono(tmp_path, _planted_dup_docs(seed=4, n_base=15, n_dups=5))
        assert run("dedup", "--in", in_path, "--out", tmp_path / "kept.jsonl", "--k", 128) == 1
        assert capsys.readouterr().err.splitlines()[-1] == "error: No such option '--k'."
        assert not (tmp_path / "kept.jsonl").exists()

    def test_idempotent_byte_identical(self, tmp_path):
        docs = _planted_dup_docs(seed=9, n_base=15, n_dups=5)
        in_path = _write_mono(tmp_path, docs)
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run("dedup", "--in", in_path, "--out", out_a, "--seed", 2) == 0
        assert run("dedup", "--in", in_path, "--out", out_b, "--seed", 2) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestLangIdCommands:
    def test_train_then_filter(self, tmp_path):
        labeled = [Document(id=f"e{i}", lang="en", text="the cat sat on the mat") for i in range(3)]
        labeled += [Document(id=f"f{i}", lang="fr", text="le chat est sur le tapis") for i in range(3)]
        train_path = _write_mono(tmp_path, labeled, "train.jsonl")
        model_path = tmp_path / "langid.json"
        assert run("langid-train", "--in", train_path, "--model", model_path) == 0

        mixed = [Document(id=f"good{i}", lang="en", text="the cat sat on a mat") for i in range(5)]
        mixed += [Document(id="bad0", lang="en", text="le chat est sur le tapis")]
        mixed_path = _write_mono(tmp_path, mixed, "mixed.jsonl")
        out_path = tmp_path / "kept.jsonl"
        dropped_path = tmp_path / "dropped.jsonl"
        report_path = tmp_path / "report.json"
        code = run(
            "langid-filter", "--in", mixed_path, "--model", model_path, "--expected", "en",
            "--out", out_path, "--dropped", dropped_path, "--report", report_path,
        )
        assert code == 0
        kept = read_corpus(out_path, "mono")
        assert {d.id for d in kept} == {f"good{i}" for i in range(5)}
        dropped = [json.loads(line) for line in dropped_path.read_text().splitlines()]
        assert dropped[0]["id"] == "bad0" and dropped[0]["predicted"] == "fr"
        report = json.loads(report_path.read_text())
        assert report["counts"] == {"input": 6, "kept": 5, "dropped": 1}

    def test_train_idempotent(self, tmp_path):
        labeled = [Document(id=f"e{i}", lang="en", text=f"text number {i}") for i in range(4)]
        train_path = _write_mono(tmp_path, labeled)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("langid-train", "--in", train_path, "--model", a) == 0
        assert run("langid-train", "--in", train_path, "--model", b) == 0
        assert a.read_bytes() == b.read_bytes()


class TestLmCommands:
    def test_train_and_filter(self, tmp_path):
        natural = _english_docs(30)
        rng = np.random.default_rng(8)
        gibberish = [
            Document(id=f"g{i}", lang="en", text=" ".join(f"z{int(v)}" for v in rng.integers(0, 999, 8)))
            for i in range(3)
        ]
        train_path = _write_mono(tmp_path, natural, "train.jsonl")
        model_path = tmp_path / "lm.txt"
        assert run("lm-train", "--in", train_path, "--model", model_path, "--order", 2) == 0

        eval_path = _write_mono(tmp_path, natural[:27] + gibberish, "eval.jsonl")
        out_path = tmp_path / "kept.jsonl"
        report_path = tmp_path / "rep.json"
        code = run(
            "lm-filter", "--in", eval_path, "--model", model_path,
            "--mode", "percentile", "--q", 0.9, "--out", out_path, "--report", report_path,
        )
        assert code == 0
        kept_ids = {d.id for d in read_corpus(out_path, "mono")}
        assert all(g.id not in kept_ids for g in gibberish)
        counts = json.loads(report_path.read_text())["counts"]
        assert counts["input"] == counts["kept"] + counts["dropped"]

    def test_order_above_bound_is_one_line_exit_1(self, tmp_path):
        from mtforge.ngram_lm import MAX_ORDER

        train_path = _write_mono(tmp_path, _english_docs(3), "train.jsonl")
        model_path = tmp_path / "lm.txt"
        proc = run_module("lm-train", "--in", train_path, "--model", model_path, "--order", MAX_ORDER + 1)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: order must be in 1..{MAX_ORDER}, got {MAX_ORDER + 1}"]
        assert not model_path.exists()


class TestQualityCommands:
    def test_quality_score(self, tmp_path):
        docs = [
            Document(id="a", lang="en", text="x", provenance="academic",
                     scores={"knowledge_value": 2, "authenticity": 1, "writing_style": 0}),
            Document(id="partial", lang="en", text="y", scores={"knowledge_value": 2}),
        ]
        in_path = _write_mono(tmp_path, docs)
        out_path = tmp_path / "scored.jsonl"
        unscored_path = tmp_path / "unscored.jsonl"
        code = run("quality-score", "--in", in_path, "--out", out_path, "--unscored", unscored_path)
        assert code == 0
        scored = read_corpus(out_path, "mono")
        assert math.isclose(scored[0].scores["quality_composite"], 0.625)
        assert [d.id for d in read_corpus(unscored_path, "mono")] == ["partial"]

    @pytest.mark.parametrize("scores", [
        {"knowledge_value": 1.9, "authenticity": 2.7, "writing_style": -0.5},  # exited 0, truncated to (1, 2, 0)
        {"knowledge_value": 2, "authenticity": 0.5, "writing_style": 1},
        {"knowledge_value": 2, "authenticity": 1, "writing_style": 3},
    ])
    def test_quality_score_rejects_a_dimension_off_the_scale(self, tmp_path, capsys, scores):
        docs = [Document(id="a", lang="en", text="x", scores={"knowledge_value": 2.0, "authenticity": 1,
                                                              "writing_style": 0}),
                Document(id="b", lang="en", text="y", scores=scores)]
        in_path = _write_mono(tmp_path, docs)
        before = _files(tmp_path)
        assert run("quality-score", "--in", in_path, "--out", tmp_path / "scored.jsonl") == 1
        key, value = next((k, v) for k, v in scores.items() if v not in (0, 1, 2))
        assert capsys.readouterr().err == f"error: {in_path}: document 'b': {key} must be 0, 1 or 2, got {value!r}\n"
        assert _files(tmp_path) == before

    def test_quality_score_accepts_an_integral_float(self, tmp_path):
        doc = Document(id="a", lang="en", text="x", provenance="academic",
                       scores={"knowledge_value": 2.0, "authenticity": 1.0, "writing_style": 0})
        out_path = tmp_path / "scored.jsonl"
        assert run("quality-score", "--in", _write_mono(tmp_path, [doc]), "--out", out_path) == 0
        assert read_corpus(out_path, "mono")[0].scores["quality_composite"] == 0.625

    def test_quality_filter_with_builtin_scorer(self, tmp_path):
        rows = [
            {"id": "close", "src_lang": "en", "tgt_lang": "fr", "src_text": "abcdef", "tgt_text": "abcdeg"},
            {"id": "far", "src_lang": "en", "tgt_lang": "fr", "src_text": "abcdef", "tgt_text": "zz"},
        ]
        in_path = tmp_path / "pairs.jsonl"
        in_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out_path = tmp_path / "kept.jsonl"
        report_path = tmp_path / "rep.json"
        code = run(
            "quality-filter", "--in", in_path, "--scorer", "length_ratio", "--tau", 0.5,
            "--out", out_path, "--report", report_path,
        )
        assert code == 0
        kept = read_corpus(out_path, "parallel")
        assert [p.id for p in kept] == ["close"]
        assert kept[0].scores["length_ratio"] == 1.0

    def test_scorer_shorthand_uses_registered_range(self, tmp_path):
        register_scorer("cli_ten_point", lambda item: 7.0, (0.0, 10.0))
        in_path = tmp_path / "pairs.jsonl"
        in_path.write_text(json.dumps({"id": "p", "src_lang": "en", "tgt_lang": "fr",
                                       "src_text": "a", "tgt_text": "b"}) + "\n")
        out_path = tmp_path / "kept.jsonl"
        code = run("quality-filter", "--in", in_path, "--scorer", "cli_ten_point", "--tau", 5,
                   "--out", out_path)
        assert code == 0
        assert read_corpus(out_path, "parallel")[0].scores == {"cli_ten_point": 7.0}

    @pytest.mark.parametrize("command", ["quality-filter", "pipeline-run"])
    def test_reference_scorer_without_references_is_exit_1(self, tmp_path, capsys, monkeypatch, command):
        in_path = tmp_path / "pairs.jsonl"
        in_path.write_text(json.dumps({"id": "p", "src_lang": "en", "tgt_lang": "fr",
                                       "src_text": "a", "tgt_text": "b"}) + "\n")
        out_path = tmp_path / "out.jsonl"
        if command == "quality-filter":
            args = ["--in", in_path, "--scorer", "chrf", "--tau", 10, "--out", out_path]
            place, name = "", "chrf"
        else:
            config = tmp_path / "pipeline.json"
            config.write_text(json.dumps({
                "schema_version": 1, "kind": "parallel", "input": str(in_path), "output": str(out_path),
                "unscored_output": str(tmp_path / "unscored.jsonl"),
                "stages": [{"type": "quality_threshold", "scorer": dict(_SCORER, config="chrf"), "tau": 10}]}))
            args = ["--config", config]
            place, name = f"{config}: stages[0]: ", "s"
        reads = []
        monkeypatch.setattr(mtforge.corpus, "read_corpus", lambda *args: reads.append(args))
        before = sorted(tmp_path.iterdir())
        assert run(command, *args, "--report", tmp_path / "report.json") == 1
        # the scorer is checked when it is loaded, before the input is read
        assert capsys.readouterr().err == (f"error: {place}scorer {name!r} reads the item field 'reference', "
                                           "but items here carry only source, hypothesis, src_lang, tgt_lang\n")
        assert reads == []
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command, sent", [("reward-score", "source, hypothesis"),
                                               ("eval", "source, hypothesis, reference")])
    def test_scorer_reading_a_field_items_lack_is_exit_1(self, tmp_path, capsys, command, sent):
        register_scorer("by_src_lang", lambda item: float(item["src_lang"] == "en"),
                        fields=("source", "hypothesis", "src_lang"))
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": "p", "src_lang": "en", "tgt_lang": "fr",
                                     "src_text": "a", "tgt_text": "b"}) + "\n")
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text(json.dumps({"id": "p", "hypothesis": "b"}) + "\n")
        args = {"reward-score": ["--in", _reward_batch(tmp_path, 2, 2), "--terms", DATA / "terms_medical.json",
                                 "--scorer", "by_src_lang"],
                "eval": ["--pairs", pairs, "--hyps", hyps, "--metric", "by_src_lang"]}[command]
        before = sorted(tmp_path.iterdir())
        assert run(command, *args, "--out", tmp_path / "out.jsonl", "--report", tmp_path / "report.json") == 1
        assert capsys.readouterr().err == (
            f"error: scorer 'by_src_lang' reads the item field 'src_lang', but items here carry only {sent}\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_judge_flag(self, tmp_path):
        rows = [
            {"sample_id": "steady", "round_scores": [80, 82]},
            {"sample_id": "wild", "round_scores": [60, 90]},
        ]
        in_path = tmp_path / "judge.jsonl"
        in_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        report_path = tmp_path / "rep.json"
        assert run("judge-flag", "--in", in_path, "--max-spread", 5, "--report", report_path) == 0
        report = json.loads(report_path.read_text())
        assert report["flagged_ids"] == ["wild"]
        assert report["counts"] == {"input": 2, "consistent": 1, "flagged": 1}


class TestMixCommands:
    def test_sample_fit_optimize_chain(self, tmp_path):
        mixtures_path = tmp_path / "mixtures.jsonl"
        assert run("mix-sample", "--domains", "a,b,c", "--n", 256, "--out", mixtures_path, "--seed", 4) == 0
        target = np.array([0.2, 0.3, 0.5])
        runs_path = tmp_path / "runs.jsonl"
        with open(mixtures_path) as handle, open(runs_path, "w") as out:
            for line in handle:
                obj = json.loads(line)
                loss = float(np.sum((np.array(obj["weights"]) - target) ** 2))
                out.write(json.dumps({**obj, "loss": loss}) + "\n")
        model_path = tmp_path / "model.json"
        assert run("mix-fit", "--runs", runs_path, "--model-out", model_path) == 0
        best_path = tmp_path / "best.json"
        assert run(
            "mix-optimize", "--model", model_path, "--candidates", 20000,
            "--out", best_path, "--seed", 11,
        ) == 0
        best = json.loads(best_path.read_text())
        l1 = float(np.abs(np.array(best["weights"]) - target).sum())
        assert l1 <= 0.1

    def test_optimize_with_replay_blend(self, tmp_path):
        runs = [
            {"domains": ["a", "b"], "weights": [w, 1 - w], "loss": (w - 0.5) ** 2}
            for w in np.linspace(0.05, 0.95, 12)
        ]
        runs_path = tmp_path / "runs.jsonl"
        runs_path.write_text("\n".join(json.dumps(r) for r in runs) + "\n")
        model_path = tmp_path / "model.json"
        assert run("mix-fit", "--runs", runs_path, "--model-out", model_path) == 0
        best_path = tmp_path / "best.json"
        code = run(
            "mix-optimize", "--model", model_path, "--candidates", 5000, "--out", best_path,
            "--replay-fraction", 0.2, "--replay-domain", "replay", "--seed", 1,
        )
        assert code == 0
        best = json.loads(best_path.read_text())
        assert best["domains"][0] == "replay"
        assert math.isclose(best["weights"][0], 0.2, abs_tol=1e-12)
        assert math.isclose(sum(best["weights"]), 1.0, abs_tol=1e-9)

    def test_fit_report_stays_finite_for_huge_losses(self, tmp_path):
        losses = [1e200, 3e200, -2e200, 5e199, 1e199]
        runs_path = tmp_path / "runs.jsonl"
        runs_path.write_text("".join(
            json.dumps({"domains": ["a", "b"], "weights": [w, 1 - w], "loss": loss}) + "\n"
            for w, loss in zip((0.1, 0.3, 0.5, 0.7, 0.9), losses)))
        model_path, report_path = tmp_path / "s.json", tmp_path / "r.json"
        assert run("mix-fit", "--runs", runs_path, "--model-out", model_path, "--report", report_path) == 0
        assert model_path.exists()
        rmse = json.loads(report_path.read_text())["in_sample_rmse"]
        assert math.isfinite(rmse) and rmse > 0

    @pytest.mark.parametrize("command, count_flag", [("mix-sample", "--n"), ("mix-optimize", "--candidates")])
    def test_oversized_count_is_one_line_exit_2(self, tmp_path, capsys, command, count_flag):
        # NumPy refuses an array of 10**14 mixtures before allocating any of it
        model = tmp_path / "model.json"
        model.write_bytes(_mix_model_json())
        args = ["--domains", "a,b"] if command == "mix-sample" else ["--model", model]
        assert run(command, *args, count_flag, 10**14, "--out", tmp_path / "out.json") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: out of memory: Unable to allocate"), err
        assert not (tmp_path / "out.json").exists()

    def test_lr_curve_boundaries(self, tmp_path):
        out_path = tmp_path / "curve.csv"
        code = run(
            "lr-curve", "--warmup", 10, "--total", 110, "--peak", 3e-4, "--min-lr", 3e-5,
            "--out", out_path,
        )
        assert code == 0
        rows = out_path.read_text().splitlines()
        assert rows[0] == "step,lr"
        table = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
        assert table[10] == 3e-4
        assert table[110] == 3e-5
        assert math.isclose(table[60], (3e-4 + 3e-5) / 2, abs_tol=1e-9)


class TestRewardCommands:
    def test_reward_score(self, tmp_path):
        rows = [
            {
                "id": "good",
                "source": "已知有血液疾病的患者",
                "hypothesis": "patients with blood disorders",
                "quality": 0.9,
            },
            {
                "id": "loopy",
                "source": "已知有血液疾病的患者",
                "hypothesis": "go go go go go go blood disorders",
                "quality": 0.9,
            },
        ]
        in_path = tmp_path / "batch.jsonl"
        in_path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n")
        out_path = tmp_path / "rewards.jsonl"
        code = run(
            "reward-score", "--in", in_path, "--terms", DATA / "terms_medical.json",
            "--out", out_path,
        )
        assert code == 0
        results = {json.loads(l)["id"]: json.loads(l) for l in out_path.read_text().splitlines()}
        assert results["good"]["terminology"] == 1.0
        assert results["good"]["repetition_penalty"] == 0.0
        assert math.isclose(results["good"]["total"], 0.5 * 0.9 + 0.5 * 1.0)
        assert results["loopy"]["repetition_penalty"] == 1.0
        assert results["loopy"]["total"] == 0.0

    def test_tgt_lang_decides_the_units_of_repetition(self, tmp_path):
        degenerate = {"source": "你好", "hypothesis": "好的" * 20, "quality": 0.8}
        rows = [dict(degenerate, id="untagged"), dict(degenerate, id="zh", tgt_lang="zh"),
                dict(degenerate, id="en", tgt_lang="en")]
        in_path = tmp_path / "batch.jsonl"
        in_path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n")
        out_path = tmp_path / "rewards.jsonl"
        assert run("reward-score", "--in", in_path, "--terms", DATA / "terms_medical.json", "--out", out_path) == 0
        # without a tag, or with a spaced one, the hypothesis is one whitespace
        # token, and the row has the bytes it had before records carried tgt_lang
        assert out_path.read_text() == (
            '{"id": "untagged", "quality": 0.8, "repetition_penalty": 0.0, "terminology": 1.0, "total": 0.9}\n'
            '{"id": "zh", "quality": 0.8, "repetition_penalty": 1.0, "terminology": 1.0, "total": 0.0}\n'
            '{"id": "en", "quality": 0.8, "repetition_penalty": 0.0, "terminology": 1.0, "total": 0.9}\n')

    def test_grpo_advantages_command(self, tmp_path):
        in_path = tmp_path / "groups.jsonl"
        in_path.write_text(json.dumps({"id": "g", "rewards": [0.0, 1.0]}) + "\n")
        out_path = tmp_path / "adv.jsonl"
        assert run("grpo-advantages", "--in", in_path, "--out", out_path) == 0
        row = json.loads(out_path.read_text())
        assert math.isclose(row["advantages"][0], -1.0, abs_tol=1e-7)
        assert math.isclose(row["advantages"][1], 1.0, abs_tol=1e-7)

    def test_grpo_epsilon_must_be_positive(self, tmp_path, capsys):
        in_path = tmp_path / "groups.jsonl"
        in_path.write_text(json.dumps({"id": "g", "rewards": [0.0, 1.0]}) + "\n")
        out_path = tmp_path / "adv.jsonl"
        assert run("grpo-advantages", "--in", in_path, "--out", out_path, "--epsilon", 0) == 1
        assert "error: Invalid value for '--epsilon': 0.0 is not in the range x>0." in capsys.readouterr().err
        assert not out_path.exists()


def _chimera_config(tmp_path, endpoint="mock:echo", fusion_endpoint=None, scorer=False):
    config = {
        "schema_version": 1,
        "backend": {"name": "gen", "endpoint": endpoint, "model_id": "weak-model"},
    }
    if fusion_endpoint:
        config["fusion_backend"] = {"name": "fuser", "endpoint": fusion_endpoint, "model_id": "fusion-model"}
    if scorer:
        config["fallback_scorer"] = {"name": "length_ratio", "kind": "local_function", "config": "length_ratio"}
    path = tmp_path / "chimera.json"
    path.write_text(json.dumps(config))
    return path


def _sources(tmp_path, n=2):
    rows = [
        {"id": f"s{i}", "src_lang": "zh", "tgt_lang": "en", "text": f"你好世界{i}"}
        for i in range(n)
    ]
    path = tmp_path / "sources.jsonl"
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n")
    return path


class TestChimeraCommands:
    def test_translate(self, tmp_path):
        config = _chimera_config(tmp_path)
        out_path = tmp_path / "cands.jsonl"
        assert run("translate", "--config", config, "--in", _sources(tmp_path), "--out", out_path) == 0
        rows = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert len(rows) == 2
        assert all(len(r["candidates"]) == 6 for r in rows)

    def test_fuse_exit_zero_and_rows(self, tmp_path):
        config = _chimera_config(tmp_path, fusion_endpoint="mock:echo")
        out_path = tmp_path / "fused.jsonl"
        report_path = tmp_path / "rep.json"
        code = run(
            "fuse", "--config", config, "--in", _sources(tmp_path), "--out", out_path,
            "--report", report_path,
        )
        assert code == 0
        rows = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert all(not r["fallback_used"] and r["fused"] for r in rows)
        assert json.loads(report_path.read_text())["counts"] == {"sources": 2, "fallbacks": 0}

    def test_fuse_fallback_with_scorer(self, tmp_path):
        config = _chimera_config(tmp_path, fusion_endpoint="mock:fail", scorer=True)
        out_path = tmp_path / "fused.jsonl"
        assert run("fuse", "--config", config, "--in", _sources(tmp_path, 1), "--out", out_path) == 0
        row = json.loads(out_path.read_text())
        assert row["fallback_used"] is True
        assert row["fused"] in row["candidates"]
        assert row["scores"] is not None

    def test_fuse_deterministic(self, tmp_path):
        config = _chimera_config(tmp_path, fusion_endpoint="mock:echo")
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        sources = _sources(tmp_path)
        assert run("fuse", "--config", config, "--in", sources, "--out", out_a, "--seed", 7) == 0
        assert run("fuse", "--config", config, "--in", sources, "--out", out_b, "--seed", 7) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_bad_source_line_fails_before_any_request(self, tmp_path, capsys):
        prompts = []
        register_mock_backend("recording", lambda prompt, params, model_id: prompts.append(prompt) or "x")
        config = _chimera_config(tmp_path, endpoint="mock:recording")
        sources = tmp_path / "sources.jsonl"
        sources.write_text(json.dumps({"id": "a", "src_lang": "fr", "tgt_lang": "en", "text": "salut"}) + "\n"
                           + json.dumps({"id": "b", "src_lang": "fr", "tgt_lang": "fr", "text": "salut"}) + "\n")
        out_path = tmp_path / "cands.jsonl"
        assert run("translate", "--config", config, "--in", sources, "--out", out_path) == 1
        assert capsys.readouterr().err == f"error: {sources}: line 2: source and target language are both 'fr'\n"
        assert prompts == [] and not out_path.exists()

    def test_config_with_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "schema_version": 1,
            "backend": {"name": "g", "endpoint": "mock:echo", "model_id": "m"},
            "mystery": True,
        }))
        assert run("translate", "--config", config, "--in", _sources(tmp_path), "--out", tmp_path / "o") == 1

    @pytest.mark.parametrize("command, key", [("translate", "backend"), ("fuse", "backend"),
                                              ("fuse", "fusion_backend")])
    def test_unknown_mock_backend_refused_before_any_input_is_read(self, tmp_path, capsys, monkeypatch, command, key):
        sources = _sources(tmp_path)
        calls = []
        monkeypatch.setattr(mtforge.ioutils, "read_jsonl", lambda *args: calls.append(args))
        config = tmp_path / "chimera.json"
        config.write_bytes(_fuse_json(**{key: dict(_BACKEND, endpoint="mock:nope")}))
        assert run(command, "--config", config, "--in", sources, "--out", tmp_path / "out.jsonl") == 1
        assert capsys.readouterr().err == f"error: {config}: {key}: unknown mock backend 'nope'\n"
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chimera.json", "sources.jsonl"]

    def _failed_translate_error(self, tmp_path, capsys, endpoint):
        out_path = tmp_path / "cands.jsonl"
        assert run("translate", "--config", _chimera_config(tmp_path, endpoint=endpoint),
                   "--in", _sources(tmp_path), "--out", out_path) == 2
        assert not out_path.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    def test_refused_port_names_the_connection_failure(self, tmp_path, capsys):
        with socket.socket() as sock:  # bound, then closed: nothing listens on the port
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        err = self._failed_translate_error(tmp_path, capsys, f"http://127.0.0.1:{port}/complete")
        assert err.startswith("error: only 0 of 6 candidate requests succeeded; slot 0: ")
        assert "Connection refused" in err

    @pytest.mark.parametrize("command", ["translate", "fuse"])
    def test_unpaired_surrogate_in_a_reply_is_exit_2(self, tmp_path, capsys, slow_endpoint, command):
        config = _chimera_config(tmp_path, endpoint=slow_endpoint, fusion_endpoint=slow_endpoint)
        sources = tmp_path / "sources.jsonl"
        sources.write_text(json.dumps({"id": "s", "src_lang": "zh", "tgt_lang": "en", "text": "你好 SURROGATE"}) + "\n")
        out_path, report_path = tmp_path / "out.jsonl", tmp_path / "report.json"
        assert run(command, "--config", config, "--in", sources, "--out", out_path, "--report", report_path) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: only 0 of 6 candidate requests succeeded; slot 0: "
                            r"http://\S+/complete: unpaired surrogate \\ud800 in a string\n", err), err
        assert not out_path.exists() and not report_path.exists()

    @pytest.mark.parametrize("command", ["translate", "fuse"])
    @pytest.mark.parametrize("token", ["gen-secret\n", "gen\nsecret", "gen-secret\u00e9"])
    def test_unsendable_token_names_the_variable_not_its_value(self, tmp_path, capsys, monkeypatch,
                                                              slow_endpoint, token, command):
        # http.client's refusal quoted the whole header, token included; the
        # token is checked where the config is read, before any request
        monkeypatch.setenv("MTFORGE_BACKEND_TOKEN", token)
        config, sources = _chimera_config(tmp_path, endpoint=slow_endpoint), _sources(tmp_path)
        before = _files(tmp_path)
        _SlowHandler.requests = 0
        assert run(command, "--config", config, "--in", sources, "--out", tmp_path / "out.jsonl",
                   "--report", tmp_path / "report.json") == 1
        err = capsys.readouterr().err
        assert err == f"error: {config}: backend: MTFORGE_BACKEND_TOKEN must hold printable ASCII to be sent as a header\n"
        assert "secret" not in err
        assert _SlowHandler.requests == 0
        assert _files(tmp_path) == before

    def test_fallback_scorer_reading_a_reference_fails_before_any_request(self, tmp_path, capsys):
        prompts = []
        register_mock_backend("recording", lambda prompt, params, model_id: prompts.append(prompt) or "x")
        config = tmp_path / "chimera.json"
        config.write_text(json.dumps({
            "schema_version": 1, "backend": {"name": "gen", "endpoint": "mock:recording", "model_id": "m"},
            "fallback_scorer": {"name": "c", "kind": "local_function", "config": "chrf"}}))
        out_path = tmp_path / "fused.jsonl"
        assert run("fuse", "--config", config, "--in", _sources(tmp_path), "--out", out_path) == 1
        assert capsys.readouterr().err == (f"error: {config}: fallback_scorer: scorer 'c' reads the item field "
                                           "'reference', but items here carry only source, hypothesis\n")
        assert prompts == [] and not out_path.exists()

    def test_empty_completions_name_the_cause(self, tmp_path, capsys):
        register_mock_backend("blank", lambda prompt, params, model_id: "  \n")
        err = self._failed_translate_error(tmp_path, capsys, "mock:blank")
        assert err == "error: only 0 of 6 candidate requests succeeded; slot 0: empty completion\n"


class _SlowHandler(JsonHandler):
    """Completion and scorer endpoint that holds each request briefly and
    records how many are active at once and how many items each scorer
    request carries. It answers 500 to a prompt, or a scorer item's
    hypothesis, containing FAIL, a null score to a hypothesis containing
    NULL, and a completion holding an unpaired surrogate escape to a prompt
    containing SURROGATE.

    With `gate` set to n, the first requests wait (up to GATE_TIMEOUT_S)
    until n are active at once; then the gate stays open. So a client that
    keeps n in flight shows a peak of exactly n however loaded the host is,
    and one that sends more still shows a peak above n."""

    GATE_TIMEOUT_S = 5.0
    lock = threading.Lock()
    gate_open = threading.Condition(lock)
    gate = 0
    active = 0
    peak = 0
    score_batches = []  # items per scorer request
    requests = 0

    def do_POST(self):
        cls = type(self)
        with cls.lock:
            cls.requests += 1
            cls.active += 1
            cls.peak = max(cls.peak, cls.active)
            if cls.active < cls.gate:
                cls.gate_open.wait_for(lambda: cls.gate == 0, timeout=cls.GATE_TIMEOUT_S)
            cls.gate = 0
            cls.gate_open.notify_all()
        try:
            payload = self.payload()
            time.sleep(0.02)
        finally:
            with cls.lock:
                cls.active -= 1
        if "items" in payload:
            with cls.lock:
                cls.score_batches.append(len(payload["items"]))
            texts = [item["hypothesis"] for item in payload["items"]]
            reply = {"scores": [None if "NULL" in text else _slow_score(text) for text in texts]}
        else:
            texts = [payload["prompt"]]
            digest = hashlib.sha256(payload["prompt"].encode()).hexdigest()[:8]
            reply = {"text": f"{payload['model']}:{payload['temperature']}:{digest}"}
        if any("FAIL" in text for text in texts):
            self.reply(500)
        else:
            self.reply(200, b'{"text": "ok \\ud800 x"}' if "SURROGATE" in texts[0] else reply)


def _slow_score(hypothesis):
    """The slow scorer's score for a hypothesis, in [0, 1]."""
    return int(hashlib.sha256(hypothesis.encode()).hexdigest()[:8], 16) / 0xFFFFFFFF


@pytest.fixture(scope="module")
def slow_endpoint():
    with serving(_SlowHandler) as url:
        yield f"{url}/complete"


def _peak_of(*args, gate=0):
    """Exit code of the command and the most requests the slow endpoint had
    active at once, with its gate set to `gate`."""
    _SlowHandler.peak = 0
    _SlowHandler.gate = gate
    try:
        code = run(*args)
    finally:
        _SlowHandler.gate = 0
    return code, _SlowHandler.peak


class TestChimeraFanOut:
    # 8 in flight is more than one segment's 6-slot grid can issue; the
    # short inputs have fewer segments than jobs, or do not divide them
    @pytest.mark.parametrize("segments, jobs", [(8, 3), (8, 8), (2, 3), (3, 2), (4, 3)])
    def test_jobs_bounds_requests_in_flight(self, tmp_path, slow_endpoint, segments, jobs):
        config = _chimera_config(tmp_path, endpoint=slow_endpoint, fusion_endpoint=slow_endpoint)
        code, peak = _peak_of("fuse", "--config", config, "--in", _sources(tmp_path, segments),
                              "--out", tmp_path / "f.jsonl", "--jobs", jobs, gate=jobs)
        assert code == 0
        assert peak == jobs

    def test_requests_run_on_jobs_threads(self, tmp_path):
        threads = set()

        def record(prompt, params, model_id):
            threads.add(threading.get_ident())
            time.sleep(0.001)
            return f"{model_id}:{params.temperature}:{len(prompt)}"

        register_mock_backend("threads", record)
        config = _chimera_config(tmp_path, endpoint="mock:threads", fusion_endpoint="mock:threads")
        assert run("fuse", "--config", config, "--in", _sources(tmp_path, 8),
                   "--out", tmp_path / "f.jsonl", "--jobs", 3) == 0
        assert 1 <= len(threads) <= 3

    def test_output_independent_of_jobs(self, tmp_path, slow_endpoint):
        config = _chimera_config(tmp_path, endpoint=slow_endpoint, fusion_endpoint=slow_endpoint)
        sources = _sources(tmp_path, 8)
        out_1, out_4 = tmp_path / "j1.jsonl", tmp_path / "j4.jsonl"
        assert run("fuse", "--config", config, "--in", sources, "--out", out_1, "--jobs", 1) == 0
        assert run("fuse", "--config", config, "--in", sources, "--out", out_4, "--jobs", 4) == 0
        assert out_1.read_bytes() == out_4.read_bytes()
        assert [json.loads(l)["id"] for l in out_1.read_text().splitlines()] == [f"s{i}" for i in range(8)]

    def test_single_segment_fans_out_over_grid(self, tmp_path, slow_endpoint):
        config = _chimera_config(tmp_path, endpoint=slow_endpoint)
        code, peak = _peak_of("translate", "--config", config, "--in", _sources(tmp_path, 1),
                              "--out", tmp_path / "c.jsonl", "--jobs", 4)
        assert code == 0
        assert 1 < peak <= 4

    def test_failing_segment_aborts_without_output(self, tmp_path, slow_endpoint, capfd):
        config = _chimera_config(tmp_path, endpoint=slow_endpoint, fusion_endpoint=slow_endpoint)
        rows = [{"id": f"s{i}", "src_lang": "zh", "tgt_lang": "en", "text": f"你好世界{i}"} for i in range(8)]
        rows[5]["text"] = "FAIL"
        sources = tmp_path / "sources.jsonl"
        sources.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows))
        out_path = tmp_path / "fused.jsonl"
        capfd.readouterr()
        assert run("fuse", "--config", config, "--in", sources, "--out", out_path, "--jobs", 3) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out_path.exists()


def _reward_batch(tmp_path, n, unscored, fail=None):
    """`n` reward records, the first `unscored` of them without a quality;
    record `fail` has a hypothesis the slow scorer fails on."""
    rows = [{"id": f"r{i}", "source": "已知有血液疾病的患者", "hypothesis": f"patients with blood disorders {i}"}
            for i in range(n)]
    for row in rows[unscored:]:
        row["quality"] = 0.5
    if fail is not None:
        rows[fail]["hypothesis"] = "FAIL"
    path = tmp_path / "batch.jsonl"
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows))
    return path


class TestRewardFanOut:
    @pytest.fixture
    def scorer(self, tmp_path, slow_endpoint):
        path = tmp_path / "qe.json"
        path.write_text(json.dumps({"name": "qe", "kind": "remote_http", "config": slow_endpoint}))
        _SlowHandler.score_batches = []
        return path

    def _args(self, scorer, batch, out, jobs):
        return ("reward-score", "--in", batch, "--terms", DATA / "terms_medical.json",
                "--scorer", scorer, "--out", out, "--jobs", jobs)

    def _reward_score(self, *args):
        return run(*self._args(*args))

    # the scored records at the end of the batch send no request
    @pytest.mark.parametrize("unscored, jobs", [(8, 3), (8, 8), (2, 3), (3, 2)])
    def test_jobs_bounds_requests_in_flight(self, tmp_path, scorer, unscored, jobs):
        batch = _reward_batch(tmp_path, unscored + 2, unscored)
        expected = min(jobs, unscored)
        code, peak = _peak_of(*self._args(scorer, batch, tmp_path / "r.jsonl", jobs), gate=expected)
        assert code == 0
        assert peak == expected

    def test_one_item_per_request(self, tmp_path, scorer):
        batch = _reward_batch(tmp_path, 10, 6)
        assert self._reward_score(scorer, batch, tmp_path / "r.jsonl", 4) == 0
        assert _SlowHandler.score_batches == [1] * 6

    def test_output_independent_of_jobs(self, tmp_path, scorer):
        batch = _reward_batch(tmp_path, 10, 8)
        out_1, out_4 = tmp_path / "j1.jsonl", tmp_path / "j4.jsonl"
        assert self._reward_score(scorer, batch, out_1, 1) == 0
        assert self._reward_score(scorer, batch, out_4, 4) == 0
        assert out_1.read_bytes() == out_4.read_bytes()
        rows = [json.loads(l) for l in out_1.read_text().splitlines()]
        assert [r["id"] for r in rows] == [f"r{i}" for i in range(10)]
        assert [r["quality"] for r in rows] == (
            [_slow_score(f"patients with blood disorders {i}") for i in range(8)] + [0.5, 0.5])

    def test_failing_record_aborts_without_output(self, tmp_path, scorer, capfd):
        batch = _reward_batch(tmp_path, 8, 8, fail=5)
        out_path = tmp_path / "r.jsonl"
        capfd.readouterr()
        assert self._reward_score(scorer, batch, out_path, 3) == 2
        assert capfd.readouterr().err == "error: quality scorer failed on record 'r5'\n"
        assert not out_path.exists()

    def test_scorer_off_the_unit_scale_fails_before_any_request(self, tmp_path, slow_endpoint, capfd):
        path = tmp_path / "qe100.json"
        path.write_text(json.dumps({"name": "qe", "kind": "remote_http", "config": slow_endpoint,
                                    "score_range": [0, 100]}))
        _SlowHandler.score_batches = []
        batch = _reward_batch(tmp_path, 4, 4)
        out_path = tmp_path / "r.jsonl"
        capfd.readouterr()
        assert self._reward_score(path, batch, out_path, 2) == 1
        assert capfd.readouterr().err == "error: --scorer 'qe' scores on [0, 100], not within [0, 1]\n"
        assert _SlowHandler.score_batches == []
        assert not out_path.exists()

    def test_reference_scorer_is_refused(self, tmp_path, capfd):
        batch = _reward_batch(tmp_path, 4, 4)
        out_path = tmp_path / "r.jsonl"
        capfd.readouterr()
        assert self._reward_score("chrf", batch, out_path, 2) == 1
        assert capfd.readouterr().err == "error: --scorer 'chrf' scores on [0.0, 100.0], not within [0, 1]\n"
        assert not out_path.exists()

    def test_items_carry_the_declared_fields(self, tmp_path):
        seen = []
        register_scorer("reward_spy", lambda item: seen.append(item) or 1.0, fields=REWARD_ITEM_FIELDS)
        batch = _reward_batch(tmp_path, 2, 1)
        assert self._reward_score("reward_spy", batch, tmp_path / "r.jsonl", 1) == 0
        assert seen == [{"source": "已知有血液疾病的患者", "hypothesis": "patients with blood disorders 0"}]

    def test_missing_scorer_names_the_first_unscored_record(self, tmp_path, capfd):
        batch = _reward_batch(tmp_path, 6, 0)
        rows = [json.loads(l) for l in batch.read_text().splitlines()]
        for i in (2, 4):
            del rows[i]["quality"]
        batch.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows))
        out_path = tmp_path / "r.jsonl"
        assert run("reward-score", "--in", batch, "--terms", DATA / "terms_medical.json", "--out", out_path) == 1
        assert capfd.readouterr().err == "error: record 'r2' has no quality score and no --scorer was given\n"
        assert not out_path.exists()

    def _edited_batch(self, tmp_path, unscored, edits):
        """A batch of 4 records, the first `unscored` without a quality, with
        `edits` mapping a 1-based line number to the fields it overrides."""
        batch = _reward_batch(tmp_path, 4, unscored)
        rows = [json.loads(l) for l in batch.read_text().splitlines()]
        for line, fields in edits.items():
            rows[line - 1].update(fields)
        batch.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows))
        return batch

    def test_bad_record_exits_before_any_request(self, tmp_path, scorer, capfd):
        batch = self._edited_batch(tmp_path, 4, {2: {"hypothesis": "  "}})
        out_path = tmp_path / "r.jsonl"
        _SlowHandler.requests = 0
        capfd.readouterr()
        assert self._reward_score(scorer, batch, out_path, 2) == 1
        assert capfd.readouterr().err == f"error: {batch}: line 2: cannot score empty text\n"
        assert _SlowHandler.requests == 0
        assert not out_path.exists()

    def test_first_bad_line_is_reported(self, tmp_path, scorer, capfd):
        batch = self._edited_batch(tmp_path, 0, {2: {"quality": 5}, 3: {"hypothesis": 5}})
        out_path = tmp_path / "r.jsonl"
        capfd.readouterr()
        assert self._reward_score(scorer, batch, out_path, 2) == 1
        assert capfd.readouterr().err == f"error: {batch}: line 2: quality must be in [0, 1], got 5\n"
        assert not out_path.exists()


class TestUnsendableScorerToken:
    """A scorer token that no header can carry stops the command where it
    reads the remote scorer's config: exit 1, no request, no file."""

    def _args(self, tmp_path, command, scorer):
        """The place the error names, and the command's arguments."""
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl(pairs, [{"id": "p", "src_lang": "en", "tgt_lang": "fr", "src_text": "source",
                             "tgt_text": "cible"}])
        qe = tmp_path / "qe.json"
        qe.write_text(json.dumps(scorer))
        if command == "quality-filter":
            return qe, ["--in", pairs, "--scorer", qe, "--tau", 0.5, "--out", tmp_path / "kept.jsonl"]
        if command == "eval":
            hyps = tmp_path / "hyps.jsonl"
            write_jsonl(hyps, [{"id": "p", "hypothesis": "cible"}])
            return qe, ["--pairs", pairs, "--hyps", hyps, "--metric", qe]
        if command == "reward-score":
            batch = _reward_batch(tmp_path, 2, 2)
            return qe, ["--in", batch, "--terms", DATA / "terms_medical.json", "--scorer", qe,
                                 "--out", tmp_path / "rewards.jsonl"]
        config = tmp_path / "config.json"
        if command == "pipeline-run":
            config.write_text(json.dumps({
                "schema_version": 1, "kind": "parallel", "input": str(pairs), "output": str(tmp_path / "kept.jsonl"),
                "stages": [{"type": "quality_threshold", "scorer": scorer, "tau": 0.5}]}))
            return f"{config}: stages[0].scorer", ["--config", config]
        config.write_text(json.dumps({
            "schema_version": 1, "backend": {"name": "gen", "endpoint": "mock:fail", "model_id": "m"},
            "fallback_scorer": scorer}))
        return f"{config}: fallback_scorer", ["--config", config, "--in", _sources(tmp_path),
                                               "--out", tmp_path / "fused.jsonl"]

    @pytest.mark.parametrize("command", ["quality-filter", "eval", "reward-score", "pipeline-run", "fuse"])
    def test_exit_1_before_any_request(self, tmp_path, capsys, monkeypatch, slow_endpoint, command):
        monkeypatch.setenv("MTFORGE_SCORER_TOKEN", "qe-secret\n")
        scorer = {"name": "qe", "kind": "remote_http", "config": slow_endpoint}
        where, args = self._args(tmp_path, command, scorer)
        before = _files(tmp_path)
        _SlowHandler.requests = 0
        assert run(command, *args, "--report", tmp_path / "report.json") == 1
        err = capsys.readouterr().err
        assert err == f"error: {where}: MTFORGE_SCORER_TOKEN must hold printable ASCII to be sent as a header\n"
        assert _SlowHandler.requests == 0
        assert _files(tmp_path) == before


@pytest.mark.parametrize("command, code, err", [("eval", 1, "error: nothing to report\n"), ("quality-filter", 0, "")])
def test_remote_scorer_is_sent_no_request_for_zero_items(tmp_path, capsys, slow_endpoint, command, code, err):
    pairs, hyps, qe = tmp_path / "pairs.jsonl", tmp_path / "hyps.jsonl", tmp_path / "qe.json"
    pairs.write_text("")
    hyps.write_text("")
    qe.write_text(json.dumps({"name": "qe", "kind": "remote_http", "config": slow_endpoint}))
    args = (["--pairs", pairs, "--hyps", hyps, "--metric", qe] if command == "eval"
            else ["--in", pairs, "--scorer", qe, "--tau", 0.5, "--out", tmp_path / "kept.jsonl"])
    _SlowHandler.requests = 0
    assert run(command, *args) == code
    assert _SlowHandler.requests == 0
    assert capsys.readouterr().err == err


class TestNonFiniteNumbers:
    def test_infinite_grid_temperature_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "chimera.json"
        config.write_text('{"schema_version": 1, "backend": {"name": "g", "endpoint": "mock:echo", '
                          '"model_id": "m"}, "grid": [{"temperature": 1e400}, {}]}')
        out_path = tmp_path / "cands.jsonl"
        assert run("translate", "--config", config, "--in", _sources(tmp_path), "--out", out_path) == 1
        assert capsys.readouterr().err == f"error: {config}: grid[0]: temperature must be finite, got inf\n"
        assert not out_path.exists()

    def test_non_finite_output_is_one_error_line_exit_2(self, tmp_path):
        for path, write in [(tmp_path / "rows.jsonl", lambda p: write_jsonl(p, [{"x": 1.0}, {"x": math.inf}])),
                            (tmp_path / "doc.json", lambda p: dump_json(p, {"x": math.nan}))]:
            with pytest.raises(MtforgeError, match=f"^{re.escape(str(path))}: "):
                write(path)
            assert list(tmp_path.iterdir()) == []

    def test_infinite_perplexity_is_written_as_null(self, tmp_path):
        train = _write_mono(tmp_path, _english_docs(10), "train.jsonl")
        assert run("lm-train", "--in", train, "--model", tmp_path / "lm.txt", "--discount", 0) == 0
        docs = _english_docs(3) + [Document(id="unseen", lang="en", text="zebra quartz")]
        dropped = tmp_path / "dropped.jsonl"
        assert run("lm-filter", "--in", _write_mono(tmp_path, docs), "--model", tmp_path / "lm.txt",
                   "--mode", "absolute", "--max-ppl", 1e6, "--out", tmp_path / "kept.jsonl",
                   "--dropped", dropped) == 0
        rows = [json.loads(l) for l in dropped.read_text().splitlines()]
        assert [(r["id"], r["perplexity"]) for r in rows] == [("unseen", None)]

    def _nan_for_b(self, tmp_path):
        """Pairs a and b, and a registered scorer that gives b's hypothesis NaN."""
        register_scorer("nan_for_b", lambda item: math.nan if item["hypothesis"] == "b" else 0.5)
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl(pairs, [{"id": i, "src_lang": "en", "tgt_lang": "fr", "src_text": "x", "tgt_text": i}
                            for i in "ab"])
        return pairs

    def test_nan_score_leaves_the_pair_unscored(self, tmp_path):
        kept, unscored = tmp_path / "kept.jsonl", tmp_path / "unscored.jsonl"
        assert run("quality-filter", "--in", self._nan_for_b(tmp_path), "--scorer", "nan_for_b", "--tau", 0.1,
                   "--out", kept, "--unscored", unscored) == 0
        assert [p.id for p in read_corpus(kept, "parallel")] == ["a"]
        assert [p.id for p in read_corpus(unscored, "parallel")] == ["b"]

    def test_nan_score_is_a_failed_pair_in_eval(self, tmp_path):
        hyps = tmp_path / "hyps.jsonl"
        write_jsonl(hyps, [{"id": i, "hypothesis": i} for i in "ab"])
        report = tmp_path / "report.json"
        assert run("eval", "--pairs", self._nan_for_b(tmp_path), "--hyps", hyps, "--metric", "nan_for_b",
                   "--report", report) == 0
        assert json.loads(report.read_text())["counts"] == {"pairs": 2, "scored": 1, "failed": 1}


class TestEvalCommand:
    def test_chrf_report(self, tmp_path):
        pairs = [
            {"id": "p1", "src_lang": "zh", "tgt_lang": "en", "src_text": "你好", "tgt_text": "hello"},
            {"id": "p2", "src_lang": "fr", "tgt_lang": "de", "src_text": "salut", "tgt_text": "hallo"},
        ]
        pairs_path = tmp_path / "pairs.jsonl"
        pairs_path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in pairs) + "\n")
        hyps_path = tmp_path / "hyps.jsonl"
        hyps_path.write_text(
            json.dumps({"id": "p1", "hypothesis": "hello"}) + "\n"
            + json.dumps({"id": "p2", "hypothesis": "xxxxx"}) + "\n"
        )
        out_path = tmp_path / "report.json"
        assert run("eval", "--pairs", pairs_path, "--hyps", hyps_path, "--out", out_path) == 0
        report = json.loads(out_path.read_text())
        assert report["groups"]["ZH_TO_XX"] == {"mean": 100.0, "count": 1}
        assert report["groups"]["XX_TO_XX"] == {"mean": 0.0, "count": 1}
        assert report["overall"] == {"mean": 50.0, "count": 2}

    def test_text_table(self, tmp_path, capsys):
        pairs_path = tmp_path / "pairs.jsonl"
        pairs_path.write_text(
            json.dumps({"id": "p1", "src_lang": "zh", "tgt_lang": "en", "src_text": "你好", "tgt_text": "hello"},
                       ensure_ascii=False) + "\n"
            + json.dumps({"id": "p2", "src_lang": "fr", "tgt_lang": "de", "src_text": "salut", "tgt_text": "hallo"})
            + "\n")
        hyps_path = tmp_path / "hyps.jsonl"
        hyps_path.write_text("".join(json.dumps({"id": i, "hypothesis": h}) + "\n"
                                     for i, h in (("p1", "hello"), ("p2", "xxxxx"))))
        assert run("eval", "--pairs", pairs_path, "--hyps", hyps_path, "--text") == 0
        assert capsys.readouterr().out == (
            "metric: chrf (micro)\n"
            "ZH_TO_XX  mean=  100.0000  n=1\n"
            "XX_TO_ZH  mean=     -  n=0\n"
            "EN_TO_XX  mean=     -  n=0\n"
            "XX_TO_EN  mean=     -  n=0\n"
            "XX_TO_XX  mean=    0.0000  n=1\n"
            "overall   mean=   50.0000  n=2\n"
        )

    def test_scorer_file_naming_chrf_keeps_its_scale(self, tmp_path):
        pairs = [
            {"id": "p1", "src_lang": "zh", "tgt_lang": "en", "src_text": "你好", "tgt_text": "hello world"},
            {"id": "p2", "src_lang": "fr", "tgt_lang": "de", "src_text": "salut", "tgt_text": "hallo"},
        ]
        pairs_path = tmp_path / "pairs.jsonl"
        pairs_path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in pairs))
        hyps_path = tmp_path / "hyps.jsonl"
        hyps_path.write_text(json.dumps({"id": "p1", "hypothesis": "hello word"}) + "\n"
                             + json.dumps({"id": "p2", "hypothesis": "hallo"}) + "\n")
        scorer_path = tmp_path / "c.json"
        scorer_path.write_text(json.dumps({"name": "c", "kind": "local_function", "config": "chrf"}))
        reports = {}
        for metric in ("chrf", scorer_path):
            out_path = tmp_path / "report.json"
            assert run("eval", "--pairs", pairs_path, "--hyps", hyps_path, "--metric", metric,
                       "--out", out_path) == 0
            reports[metric] = json.loads(out_path.read_text())
        assert reports[scorer_path]["groups"] == reports["chrf"]["groups"]
        assert reports[scorer_path]["overall"] == reports["chrf"]["overall"]
        assert 1.0 < reports["chrf"]["groups"]["ZH_TO_XX"]["mean"] < 100.0

    @pytest.mark.parametrize("metric, mean", [("length_ratio", 0.5), ("constant:0.25", 0.25)])
    def test_metric_is_any_scorer_spec(self, tmp_path, metric, mean):
        pairs_path = tmp_path / "pairs.jsonl"
        pairs_path.write_text(json.dumps({"id": "p", "src_lang": "en", "tgt_lang": "fr",
                                          "src_text": "abcd", "tgt_text": "wxyz"}) + "\n")
        hyps_path = tmp_path / "hyps.jsonl"
        hyps_path.write_text(json.dumps({"id": "p", "hypothesis": "ab"}) + "\n")
        out_path = tmp_path / "report.json"
        assert run("eval", "--pairs", pairs_path, "--hyps", hyps_path, "--metric", metric, "--out", out_path) == 0
        report = json.loads(out_path.read_text())
        assert report["metric"] == metric
        assert report["overall"] == report["groups"]["EN_TO_XX"] == {"mean": mean, "count": 1}

    def test_registered_metric_wins_over_a_file_of_that_name(self, tmp_path, monkeypatch):
        pairs_path = tmp_path / "pairs.jsonl"
        pairs_path.write_text(json.dumps({"id": "p", "src_lang": "en", "tgt_lang": "fr",
                                          "src_text": "hi", "tgt_text": "salut"}) + "\n")
        hyps_path = tmp_path / "hyps.jsonl"
        hyps_path.write_text(json.dumps({"id": "p", "hypothesis": "salut"}) + "\n")
        monkeypatch.chdir(tmp_path)
        for name in ("chrf", "length_ratio", "constant:0.5"):
            Path(name).write_text("not a scorer config")
        for metric in (None, "chrf", "length_ratio", "constant:0.5"):
            args = [] if metric is None else ["--metric", metric]
            assert run("eval", "--pairs", pairs_path, "--hyps", hyps_path, *args, "--out", "r.json") == 0
            assert json.loads(Path("r.json").read_text())["metric"] == (metric or "chrf")

    def test_blank_reference_names_the_file_and_line(self, tmp_path, capsys):
        pairs_path = tmp_path / "pairs.jsonl"
        pairs_path.write_text(
            json.dumps({"id": "p1", "src_lang": "en", "tgt_lang": "fr", "src_text": "hi", "tgt_text": "salut"}) + "\n"
            + json.dumps({"id": "p2", "src_lang": "en", "tgt_lang": "fr", "src_text": "hi", "tgt_text": "   "}) + "\n")
        hyps_path = tmp_path / "hyps.jsonl"
        hyps_path.write_text("".join(json.dumps({"id": i, "hypothesis": "salut"}) + "\n" for i in ("p1", "p2")))
        out_path = tmp_path / "report.json"
        assert run("eval", "--pairs", pairs_path, "--hyps", hyps_path, "--out", out_path) == 1
        assert capsys.readouterr().err == f"error: {pairs_path}: line 2: pair 'p2': empty text\n"
        assert not out_path.exists()


class TestPipelineRun:
    def _prepare(self, tmp_path):
        labeled = [Document(id=f"e{i}", lang="en", text="the cat sat on the mat") for i in range(3)]
        labeled += [Document(id=f"f{i}", lang="fr", text="le chat est sur le tapis") for i in range(3)]
        langid_model = tmp_path / "langid.json"
        assert run("langid-train", "--in", _write_mono(tmp_path, labeled, "labeled.jsonl"),
                   "--model", langid_model) == 0

        natural = _english_docs(30)
        lm_model = tmp_path / "lm.txt"
        assert run("lm-train", "--in", _write_mono(tmp_path, natural, "lm_train.jsonl"),
                   "--model", lm_model, "--order", 2) == 0

        rng = np.random.default_rng(12)
        corpus = _english_docs(24)
        corpus += [Document(id=f"dupe{i}", lang="en", text=corpus[0].text + " extra") for i in range(2)]
        corpus += [Document(id="french", lang="en", text="le chat est sur le tapis")]
        corpus += [
            Document(id=f"gib{i}", lang="en", text=" ".join(f"q{int(v)}" for v in rng.integers(0, 999, 8)))
            for i in range(2)
        ]
        corpus_path = _write_mono(tmp_path, corpus, "pipeline_in.jsonl")

        config = {
            "schema_version": 1,
            "kind": "mono",
            "input": str(corpus_path),
            "output": str(tmp_path / "final.jsonl"),
            "dropped_output": str(tmp_path / "dropped.jsonl"),
            "seed": 13,
            "stages": [
                {"type": "langid", "model": str(langid_model), "expected": "en"},
                {"type": "dedup", "shingle_n": 2, "bands": 8, "rows": 8, "threshold": 0.5},
                {"type": "perplexity", "model": str(lm_model), "mode": "percentile", "q": 0.9},
            ],
        }
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(json.dumps(config))
        return config_path, len(corpus)

    def test_end_to_end_counts_reconcile(self, tmp_path):
        config_path, input_count = self._prepare(tmp_path)
        report_path = tmp_path / "report.json"
        assert run("pipeline-run", "--config", config_path, "--report", report_path) == 0
        report = json.loads(report_path.read_text())
        stages = report["stages"]
        assert stages[0]["input_count"] == input_count
        for stage in stages:
            assert stage["input_count"] == stage["kept"] + stage["dropped"] + stage["unscored"]
        for prev, nxt in zip(stages, stages[1:]):
            assert nxt["input_count"] == prev["kept"]
        final = read_corpus(tmp_path / "final.jsonl", "mono")
        assert len(final) == stages[-1]["kept"]
        assert report["counts"]["input"] == input_count
        assert report["counts"]["output"] == len(final)
        dropped_rows = [json.loads(l) for l in (tmp_path / "dropped.jsonl").read_text().splitlines()]
        assert len(dropped_rows) == report["counts"]["dropped"]
        assert input_count == len(final) + len(dropped_rows) + report["counts"]["unscored"]

    def test_deterministic_artifacts(self, tmp_path):
        config_path, _ = self._prepare(tmp_path)
        report_a = tmp_path / "ra.json"
        assert run("pipeline-run", "--config", config_path, "--report", report_a) == 0
        final_a = (tmp_path / "final.jsonl").read_bytes()
        report_b = tmp_path / "rb.json"
        assert run("pipeline-run", "--config", config_path, "--report", report_b) == 0
        assert (tmp_path / "final.jsonl").read_bytes() == final_a
        assert report_a.read_bytes() == report_b.read_bytes()

    def test_stage_of_another_kind_exits_1_before_any_stage_runs(self, tmp_path, capsys):
        config = tmp_path / "pipeline.json"
        stages = [{"type": "dedup"}, {"type": "quality_threshold", "scorer": _SCORER, "tau": 0.5}]
        config.write_bytes(_pipeline_json(*stages).replace(b"{dir}", json.dumps(str(tmp_path))[1:-1].encode()))
        _write_mono(tmp_path, _english_docs(3))
        assert run("pipeline-run", "--config", config) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: stages[1]: stage 'quality_threshold' expects parallel records, not mono\n")
        assert not (tmp_path / "out.jsonl").exists()

    def test_unscored_output_holds_every_unscored_record(self, tmp_path, slow_endpoint):
        pairs = [{"id": f"p{i}", "src_lang": "en", "tgt_lang": "fr", "src_text": f"source {i}",
                  "tgt_text": f"cible {i}" + (" NULL" if i % 3 == 0 else "")} for i in range(10)]
        write_jsonl(tmp_path / "pairs.jsonl", pairs)
        outputs = {name: tmp_path / f"{name}.jsonl" for name in ("output", "dropped_output", "unscored_output")}
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(json.dumps({
            "schema_version": 1, "kind": "parallel", "input": str(tmp_path / "pairs.jsonl"),
            **{name: str(path) for name, path in outputs.items()},
            "stages": [{"type": "quality_threshold", "tau": 0.5,
                        "scorer": {"name": "qe", "kind": "remote_http", "config": slow_endpoint}}],
        }))
        report_path = tmp_path / "report.json"
        assert run("pipeline-run", "--config", config_path, "--report", report_path) == 0
        ids = {name: [json.loads(line)["id"] for line in path.read_text().splitlines()]
               for name, path in outputs.items()}
        assert ids["unscored_output"] == ["p0", "p3", "p6", "p9"]
        assert json.loads(report_path.read_text())["counts"]["unscored"] == 4
        assert sorted(sum(ids.values(), [])) == sorted(pair["id"] for pair in pairs)

    def test_jobs_accepted_and_output_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})  # so --jobs 3 runs 3 processes
        config_path, _ = self._prepare(tmp_path)
        artifacts = []
        for jobs in (1, 2, 3):
            report = tmp_path / f"report{jobs}.json"
            assert run("pipeline-run", "--config", config_path, "--jobs", jobs, "--report", report) == 0
            artifacts.append([(tmp_path / name).read_bytes() for name in ("final.jsonl", "dropped.jsonl")]
                             + [report.read_bytes()])
        assert artifacts[1:] == [artifacts[0]] * 2

    def test_report_envelope_names_command_and_effective_seed(self, tmp_path):
        report_path = tmp_path / "dedup_report.json"
        assert run("dedup", "--in", _write_mono(tmp_path, _english_docs(4)), "--out", tmp_path / "kept.jsonl",
                   "--seed", 5, "--report", report_path) == 0
        report = json.loads(report_path.read_text())
        assert (report["command"], report["seed"], report["schema_version"]) == ("dedup", 5, 1)

        config_path, _ = self._prepare(tmp_path)  # the config sets "seed": 13
        assert run("pipeline-run", "--config", config_path, "--seed", 2, "--report", report_path) == 0
        report = json.loads(report_path.read_text())
        assert (report["command"], report["seed"]) == ("pipeline-run", 13)

    def test_unknown_stage_key_rejected_before_output(self, tmp_path):
        config_path, _ = self._prepare(tmp_path)
        config = json.loads(config_path.read_text())
        config["stages"][0]["mystery"] = 1
        config["output"] = str(tmp_path / "never.jsonl")
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(config))
        assert run("pipeline-run", "--config", bad_path) == 1
        assert not (tmp_path / "never.jsonl").exists()
