"""Fuzz the JSON Lines inputs of the record-reading commands through cli.main.

Each input file holds one valid line and one drawn line: an arbitrary JSON
value, an object keyed by the command's field names, or the valid line with
one or two fields set to drawn values. Whatever the drawn line holds, the
command must return 0, 1 or 2 without raising, and a non-zero exit must print
exactly one `error:` line and leave --out unwritten.
"""

import contextlib
import io
import json
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

_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _drawn_lines(valid: dict, names: tuple):
    # values of the right JSON type often enough to get past the reader's
    # checks to the domain types' own
    values = st.one_of(_json, st.lists(_scalars, max_size=3), st.sampled_from(list(valid.values())))
    keyed = st.dictionaries(st.sampled_from(names), values, max_size=len(names))
    edited = st.dictionaries(st.sampled_from(names), values, min_size=1, max_size=2).map(
        lambda change: {**valid, **change})
    return st.one_of(_json, keyed, edited, edited)


@pytest.fixture(scope="module")
def side_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("side")
    (path / "pairs.jsonl").write_text(json.dumps(_PAIR) + "\n")
    (path / "chimera.json").write_text(json.dumps({
        "schema_version": 1,
        "backend": {"name": "gen", "endpoint": "mock:echo", "model_id": "m"},
    }))
    return path


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_drawn_line_exits_cleanly(command, side_dir, tmp_path_factory):
    flag, valid, names, other = COMMANDS[command]
    other = [arg.replace("{dir}", str(side_dir)) for arg in other]
    out_flag = "--model-out" if command == "mix-fit" else "--out"

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(line=_drawn_lines(valid, names))
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
