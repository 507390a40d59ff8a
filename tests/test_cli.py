import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import click
import numpy as np
import pytest

import mtforge
from mtforge.backends import register_mock_backend
from mtforge.cli import cli, main
from mtforge.corpus import Document, read_corpus, write_corpus
from mtforge.errors import MtforgeError
from mtforge.ioutils import dump_json, write_jsonl
from mtforge.scorers import register_scorer

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

    @pytest.mark.parametrize("name", ["translate", "fuse", "reward-score"])
    def test_jobs_below_1_is_exit_1(self, capfd, name):
        assert run(name, "--jobs", 0) == 1
        assert "error: Invalid value for '--jobs': 0 is not in the range x>=1." in capfd.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("name, flag", _FLOAT_FLAGS)
    def test_non_finite_float_flag_is_one_error_line_exit_1(self, tmp_path, capfd, name, flag, value):
        # every other required option gets a value of its type, so the float
        # check is the one that fails
        (tmp_path / "in.jsonl").write_text("")
        args = [flag, value]
        for i, param in enumerate(cli.commands[name].params):
            if param.required and flag not in param.opts:
                if isinstance(param.type, click.Path):
                    arg = tmp_path / ("in.jsonl" if param.type.exists else f"out{i}")
                else:
                    arg = 1 if isinstance(param.type, (click.types.IntParamType, click.types.FloatParamType)) else "x"
                args += [param.opts[0], arg]
        assert run(name, *args, "--report", tmp_path / "report.json") == 1
        err = capfd.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert errors == [f"error: Invalid value for '{flag}': {value} is not a finite number."], err
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
        bad.write_bytes(json.dumps(first_line).encode() + b"\n" + bad_line)
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
        ("langid-filter", "--model", _langid_model_json(vocab=["a", "b", "c"])),
        ("lm-filter", "--model", b'garbage'),
        ("lm-filter", "--model", b'{"format":"mtforge-ngram-lm"}'),
        ("lm-filter", "--model", b'{"default_lang": "en", "discount": 0.75, "format": "mtforge-ngram-lm", '
                                 b'"min_count": 1, "order": 100000}\n'),
        ("reward-score", "--terms", b'{"blood": ["sang"'),
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
        ("quality-filter", "--scorer", _scorer_json(config="constant:abc")),
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
        ("pipeline-run", "--config", _pipeline_json({"type": "dedup", "k": 2.5})),
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
        ("lm-filter", "--model", _LM_HEADER.replace(b'"order": 1', b'"order": 100000'),
         "order must be in 1..32, got 100000"),
        ("lm-filter", "--model", b"[1]\n", "header: a JSON array, not an object"),
        ("reward-score", "--terms", b'{"cat": ["chat", ""]}', "term 'cat' needs a list of non-empty renderings"),
        ("reward-score", "--terms", b'["cat"]', "a JSON array, not an object"),
        ("mix-optimize", "--model", _mix_model_json(domains=["a", "a"]),
         "domains must be a non-empty list of distinct names"),
        ("mix-optimize", "--model", _mix_model_json(coefficients=[0.1]), "1 coefficients for 2 domains, expected 3"),
        ("mix-optimize", "--model", _mix_model_json(coefficients=[1e308, 1e308, 0]),
         "coefficients and ridge_lambda must be finite numbers"),
    ])
    def test_model_file_error_names_the_problem(self, tmp_path, capsys, command, bad_flag, content, message):
        bad, args = _bad_file_args(tmp_path, command, bad_flag, content)
        assert run(*args) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, content, message", [
        ("pipeline-run", _pipeline_json({"type": "dedup", "mystery": 1}), "stages[0]: unknown fields ['mystery']"),
        ("pipeline-run", _pipeline_json({"type": "dedup"}, {"type": "dedup", "k": 2.5}),
         "stages[1]: field 'k' must be integer, not number"),
        ("pipeline-run", _pipeline_json({"type": "dedup", "unit": "byte"}),
         "stages[0]: field 'unit' must be 'word' or 'char', not 'byte'"),
        ("pipeline-run", _pipeline_json({"type": "perplexity", "model": "lm.txt"}),
         "stages[0]: missing fields ['mode']"),
        ("pipeline-run", _pipeline_json(5), "stages[0]: a JSON number, not an object"),
        ("pipeline-run", _pipeline_json({"type": "quality_threshold", "scorer": dict(_SCORER, kind="x"), "tau": 1}),
         "stages[0].scorer: scorer kind must be local_function or remote_http, got 'x'"),
        ("pipeline-run", _pipeline_json(schema_version=2), "schema_version must be 1, got 2"),
        ("pipeline-run", _pipeline_json(drop=("kind", "input")), "missing fields ['input', 'kind']"),
        ("pipeline-run", b"[]", "a JSON array, not an object"),
        ("fuse", _fuse_json(backend=dict(_BACKEND, max_retries=-1)), "backend: max_retries must be >= 0, got -1"),
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
    ])
    def test_config_error_names_the_place(self, tmp_path, capsys, command, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content.replace(b"{dir}", json.dumps(str(tmp_path))[1:-1].encode()))
        other = ["--in", _sources(tmp_path), "--out", tmp_path / "out.jsonl"] if command == "fuse" else []
        assert run(command, "--config", bad, *other) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("bands, rows, k", [(-1, -128, 128), (0, 8, 0), (16, 0, 0)])
    def test_dedup_rejects_bands_or_rows_below_1(self, tmp_path, capsys, bands, rows, k):
        corpus = _write_mono(tmp_path, _english_docs(3))
        out = tmp_path / "kept.jsonl"
        assert run("dedup", "--in", corpus, "--out", out, "--bands", bands, "--rows", rows, "--k", k) == 1
        assert capsys.readouterr().err == f"error: bands and rows must be >= 1, got {bands}x{rows}\n"
        config = tmp_path / "pipeline.json"
        config.write_bytes(_pipeline_json({"type": "dedup", "bands": bands, "rows": rows, "k": k})
                           .replace(b"{dir}", json.dumps(str(tmp_path))[1:-1].encode()))
        assert run("pipeline-run", "--config", config) == 1
        assert capsys.readouterr().err == f"error: bands and rows must be >= 1, got {bands}x{rows}\n"
        assert not out.exists() and not (tmp_path / "out.jsonl").exists()

    def test_constant_scorer_shorthand_must_be_a_finite_number(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": "p", "src_lang": "en", "tgt_lang": "fr",
                                     "src_text": "a", "tgt_text": "b"}) + "\n")
        for value in ("abc", "inf", ""):
            assert run("quality-filter", "--in", pairs, "--scorer", f"constant:{value}", "--tau", 0.5,
                       "--out", tmp_path / "out.jsonl") == 1
            assert capsys.readouterr().err == (
                f"error: constant scorer value must be a finite number, got {value!r}\n")
        assert not (tmp_path / "out.jsonl").exists()

    def test_io_error_is_exit_2(self, tmp_path):
        docs = _write_mono(tmp_path, _english_docs(4))
        # output directory path collides with an existing file
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir")
        assert run("dedup", "--in", docs, "--out", blocker / "out.jsonl") == 2


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
        kept_ref, dropped_ref = dedup_fn(docs, seed=5)
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
        assert {r["dropped_id"] for r in dropped_rows} == {d.dropped_id for d in dropped_ref}

    def test_jobs_accepted_and_output_unchanged(self, tmp_path):
        in_path = _write_mono(tmp_path, _planted_dup_docs(seed=4, n_base=15, n_dups=5))
        outputs = []
        for jobs in (1, 4):
            out = tmp_path / f"jobs{jobs}.jsonl"
            assert run("dedup", "--in", in_path, "--out", out, "--dropped", tmp_path / f"dropped{jobs}.jsonl",
                       "--jobs", jobs, "--report", tmp_path / f"report{jobs}.json") == 0
            outputs.append([(tmp_path / name).read_bytes()
                            for name in (f"jobs{jobs}.jsonl", f"dropped{jobs}.jsonl", f"report{jobs}.json")])
        assert outputs[0] == outputs[1]

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


class _SlowHandler(BaseHTTPRequestHandler):
    """Completion and scorer endpoint that holds each request briefly and
    records how many are active at once and how many items each scorer
    request carries. It answers 500 to a prompt, or a scorer item's
    hypothesis, containing FAIL.

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

    def do_POST(self):
        cls = type(self)
        with cls.lock:
            cls.active += 1
            cls.peak = max(cls.peak, cls.active)
            if cls.active < cls.gate:
                cls.gate_open.wait_for(lambda: cls.gate == 0, timeout=cls.GATE_TIMEOUT_S)
            cls.gate = 0
            cls.gate_open.notify_all()
        try:
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            time.sleep(0.02)
        finally:
            with cls.lock:
                cls.active -= 1
        if "items" in payload:
            with cls.lock:
                cls.score_batches.append(len(payload["items"]))
            texts = [item["hypothesis"] for item in payload["items"]]
            reply = {"scores": [_slow_score(text) for text in texts]}
        else:
            texts = [payload["prompt"]]
            digest = hashlib.sha256(payload["prompt"].encode()).hexdigest()[:8]
            reply = {"text": f"{payload['model']}:{payload['temperature']}:{digest}"}
        if any("FAIL" in text for text in texts):
            self.send_response(500)
            self.end_headers()
            return
        data = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def _slow_score(hypothesis):
    """The slow scorer's score for a hypothesis, in [0, 1]."""
    return int(hashlib.sha256(hypothesis.encode()).hexdigest()[:8], 16) / 0xFFFFFFFF


@pytest.fixture(scope="module")
def slow_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/complete"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


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
                {"type": "dedup", "shingle_n": 2, "k": 64, "bands": 8, "rows": 8, "threshold": 0.5},
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

    def test_jobs_accepted_and_output_unchanged(self, tmp_path):
        config_path, _ = self._prepare(tmp_path)
        artifacts = []
        for jobs in (1, 4):
            report = tmp_path / f"report{jobs}.json"
            assert run("pipeline-run", "--config", config_path, "--jobs", jobs, "--report", report) == 0
            artifacts.append([(tmp_path / name).read_bytes() for name in ("final.jsonl", "dropped.jsonl")]
                             + [report.read_bytes()])
        assert artifacts[0] == artifacts[1]

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
