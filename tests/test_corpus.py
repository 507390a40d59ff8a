import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtforge.corpus import (
    REGISTRY,
    DirectionGroup,
    Document,
    ParallelPair,
    attach_scores,
    classify_direction,
    read_corpus,
    segment_tokens,
    write_corpus,
)
from mtforge.errors import ValidationError, at
from mtforge.ioutils import load_json, read_jsonl, read_records


class TestRegistry:
    def test_known_tags_present(self):
        for tag in ("zh", "en", "bo", "kk", "yue", "zh-Hant", "mn", "ug"):
            assert tag in REGISTRY

    def test_size(self):
        assert len(REGISTRY) == 38
        assert len(set(REGISTRY)) == len(REGISTRY)

    def test_case_sensitive(self):
        with pytest.raises(ValidationError):
            classify_direction("ZH", "en")


class TestClassifyDirection:
    def test_zh_to_other(self):
        assert classify_direction("zh", "fr") is DirectionGroup.ZH_TO_XX

    def test_other_to_other(self):
        assert classify_direction("fr", "de") is DirectionGroup.XX_TO_XX

    def test_zh_en_precedence(self):
        assert classify_direction("zh", "en") is DirectionGroup.ZH_TO_XX
        assert classify_direction("en", "zh") is DirectionGroup.XX_TO_ZH

    def test_sinitic_variants_are_not_zh(self):
        assert classify_direction("zh-Hant", "fr") is DirectionGroup.XX_TO_XX
        assert classify_direction("yue", "en") is DirectionGroup.XX_TO_EN
        assert classify_direction("zh", "yue") is DirectionGroup.ZH_TO_XX

    def test_total_and_disjoint_over_all_pairs(self):
        counts = {group: 0 for group in DirectionGroup}
        for src in REGISTRY:
            for tgt in REGISTRY:
                if src == tgt:
                    continue
                counts[classify_direction(src, tgt)] += 1
        n = len(REGISTRY)
        assert sum(counts.values()) == n * (n - 1)
        assert counts[DirectionGroup.ZH_TO_XX] == n - 1
        assert counts[DirectionGroup.XX_TO_ZH] == n - 1
        assert counts[DirectionGroup.EN_TO_XX] == n - 2
        assert counts[DirectionGroup.XX_TO_EN] == n - 2

    def test_same_language_rejected(self):
        with pytest.raises(ValidationError):
            classify_direction("fr", "fr")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValidationError):
            classify_direction("xx", "en")


class TestRecordValidation:
    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            Document(id="d1", lang="en", text="   ")

    def test_same_langs_rejected(self):
        with pytest.raises(ValidationError):
            ParallelPair(id="p1", src_lang="en", tgt_lang="en", src_text="a", tgt_text="b")

    def test_bad_provenance_rejected(self):
        with pytest.raises(ValidationError):
            Document(id="d1", lang="en", text="hello", provenance="wiki")

    @pytest.mark.parametrize("tags", [["law", 5], [None], [["law"]]])
    def test_non_string_tags_rejected(self, tags):
        with pytest.raises(ValidationError, match="tags must be strings"):
            Document(id="d1", lang="en", text="hello", tags=tags)

    def test_attach_scores_copies(self):
        docs = [Document(id=f"d{i}", lang="en", text="hello", scores={"old": 1.0}) for i in range(4)]
        scored, unscored = attach_scores(docs, "ppl", [3.5, None, 2, None])
        assert [doc.id for doc in scored] == ["d0", "d2"]
        assert [doc.scores for doc in scored] == [{"old": 1.0, "ppl": 3.5}, {"old": 1.0, "ppl": 2.0}]
        assert type(scored[1].scores["ppl"]) is float
        assert unscored == [docs[1], docs[3]]
        assert all(doc.scores == {"old": 1.0} for doc in docs)


class TestCorpusIo:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_corpus(path, "mono") == []

    def test_three_lines_in_order(self, tmp_path):
        docs = [Document(id=f"d{i}", lang="en", text=f"text {i}") for i in range(3)]
        path = tmp_path / "c.jsonl"
        assert write_corpus(docs, path) == 3
        assert read_corpus(path, "mono") == docs

    def test_round_trip_counts_10k(self, tmp_path):
        docs = [Document(id=f"d{i}", lang="en", text=f"line {i}") for i in range(10_000)]
        path = tmp_path / "big.jsonl"
        assert write_corpus(docs, path) == 10_000
        with open(path, encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == 10_000
        assert read_corpus(path, "mono") == docs

    def test_write_empty(self, tmp_path):
        path = tmp_path / "none.jsonl"
        assert write_corpus([], path) == 0
        assert path.read_text() == ""

    def test_schema_error_names_line(self, tmp_path):
        rows = [
            {"id": "p1", "src_lang": "en", "tgt_lang": "fr", "src_text": "a", "tgt_text": "b"},
            {"id": "p2", "src_lang": "de", "tgt_lang": "de", "src_text": "a", "tgt_text": "b"},
        ]
        path = tmp_path / "pairs.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_corpus(path, "parallel")

    def test_crlf_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"id": "d1", "lang": "en", "text": "x"}\r\n\r\n{"id": "d2", "lang": "en", "text": "y"}')
        assert [d.id for d in read_corpus(path, "mono")] == ["d1", "d2"]

    @pytest.mark.parametrize("line, message", [
        (b"[1, 2\n", "line 2: invalid JSON"),
        (b'{"id": "d2", "lang": "en", "text": "\xff"}\n', "line 2: invalid UTF-8 at byte 37"),
    ])
    def test_undecodable_line_named(self, tmp_path, line, message):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"id": "d1", "lang": "en", "text": "x"}\n' + line)
        with pytest.raises(ValidationError, match=message):
            read_corpus(path, "mono")

    def test_unknown_language_named_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "d1", "lang": "klingon", "text": "x"}) + "\n")
        with pytest.raises(ValidationError, match="line 1"):
            read_corpus(path, "mono")

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "d1", "lang": "en", "text": "x", "extra": 1}) + "\n")
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}: line 1: unknown fields \['extra'\]$"):
            read_corpus(path, "mono")

    def test_duplicate_id_rejected(self, tmp_path):
        docs = [Document(id="dup", lang="en", text="a"), Document(id="dup", lang="fr", text="b")]
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(json.dumps(obj) for obj in (
            {"id": d.id, "lang": d.lang, "text": d.text} for d in docs)) + "\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_corpus(path, "mono")


_text = st.text(min_size=1, max_size=60).filter(lambda s: s.strip())
_ids = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=12
)
_scores = st.dictionaries(
    st.sampled_from(["ppl", "qe", "chrf"]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    max_size=3,
)


@st.composite
def documents(draw):
    return Document(
        id=draw(_ids),
        lang=draw(st.sampled_from(REGISTRY)),
        text=draw(_text),
        provenance=draw(st.sampled_from(["academic", "book", "professional_web", "general_web", "other"])),
        scores=draw(_scores),
        tags=frozenset(draw(st.lists(st.sampled_from(["law", "news", "med"]), max_size=3))),
    )


@st.composite
def parallel_pairs(draw):
    src = draw(st.sampled_from(REGISTRY))
    tgt = draw(st.sampled_from([t for t in REGISTRY if t != src]))
    return ParallelPair(
        id=draw(_ids),
        src_lang=src,
        tgt_lang=tgt,
        src_text=draw(_text),
        tgt_text=draw(_text),
        scores=draw(_scores),
    )


def _not_b(obj):
    if obj["id"] == "b":
        raise ValidationError("record 'b' is refused")
    return obj["id"]


class TestReadRecords:
    FIELDS = {"id": "string", "n": "number", "q": "number|null", "xs": "array", "m": "object"}

    def _read(self, tmp_path, line, fields=FIELDS, **kwargs):
        path = tmp_path / "r.jsonl"
        path.write_text('{"id": "a"}\n' + line + "\n")
        return path, list(read_records(path, fields, **kwargs))

    def test_valid_records_in_order(self, tmp_path):
        _, rows = self._read(tmp_path, '{"id": "b", "n": 1, "q": null, "xs": [], "m": {}, "extra": true}',
                             required=("id",))
        assert rows == [(1, {"id": "a"}), (2, {"id": "b", "n": 1, "q": None, "xs": [], "m": {}, "extra": True})]

    @pytest.mark.parametrize("line, kwargs, message", [
        ("5", {}, "line 2: record is a JSON number, not an object"),
        ('["id"]', {}, "line 2: record is a JSON array, not an object"),
        ('{"n": 1}', {"required": ("id",)}, "line 2: missing fields ['id']"),
        ('{"id": 5}', {}, "line 2: field 'id' must be string, not number"),
        ('{"id": "b", "n": true}', {}, "line 2: field 'n' must be number, not boolean"),
        ('{"id": "b", "n": "1"}', {}, "line 2: field 'n' must be number, not string"),
        ('{"id": "b", "q": "x"}', {}, "line 2: field 'q' must be number or null, not string"),
        ('{"id": "b", "xs": {}}', {}, "line 2: field 'xs' must be array, not object"),
        ('{"id": "b", "m": null}', {}, "line 2: field 'm' must be object, not null"),
        ('{"id": "b", "z": 1, "y": 2}', {"closed": True}, "line 2: unknown fields ['y', 'z']"),
        ('{"id": "b", "n": 1.0}', {"fields": {"id": "string", "n": "integer"}},
         "line 2: field 'n' must be integer, not number"),
        ('{"id": "b", "n": true}', {"fields": {"id": "string", "n": "integer"}},
         "line 2: field 'n' must be integer, not boolean"),
        ('{"id": "c"}', {"fields": {"id": ("a", "b")}}, "line 2: field 'id' must be 'a' or 'b', not 'c'"),
        ('{"id" 5}', {}, "line 2: invalid JSON: Expecting ':' delimiter (column 7)"),
        ('{"id": "b"}', {"build": _not_b}, "line 2: record 'b' is refused"),
    ])
    def test_bad_record_names_path_and_line(self, tmp_path, line, kwargs, message):
        path = tmp_path / "r.jsonl"
        with pytest.raises(ValidationError) as info:
            self._read(tmp_path, line, **kwargs)
        assert str(info.value) == f"{path}: {message}"

    def test_key_fills_a_missing_id_with_the_line_number_before_build(self, tmp_path):
        _, rows = self._read(tmp_path, '{"n": 1}', key="id", build=lambda obj: obj["id"])
        assert rows == [(1, "a"), (2, "2")]

    def test_filled_id_is_checked_for_duplicates(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"id": "2"}\n{"n": 1}\n')
        with pytest.raises(ValidationError) as info:
            list(read_records(path, self.FIELDS, key="id"))
        assert str(info.value) == f"{path}: line 2: duplicate id '2' (first on line 1)"

    def test_build_makes_each_record(self, tmp_path):
        _, rows = self._read(tmp_path, '{"id": "c"}', build=_not_b)
        assert rows == [(1, "a"), (2, "c")]

    def test_at_names_the_place_of_validation_errors_only(self):
        with pytest.raises(ValidationError) as info:
            with at("p.json", "grid[1]"):
                raise ValidationError("top_p must be in [0, 1]")
        assert str(info.value) == "p.json: grid[1]: top_p must be in [0, 1]"
        with pytest.raises(KeyError):
            with at("p.json"):
                raise KeyError("top_p")

    def test_float_and_int_are_numbers(self, tmp_path):
        _, rows = self._read(tmp_path, '{"id": "b", "n": 1.5, "q": 2}')
        assert rows[1][1] == {"id": "b", "n": 1.5, "q": 2}

    def test_integer_and_choice_fields(self, tmp_path):
        _, rows = self._read(tmp_path, '{"id": "b", "n": -3}', fields={"id": ("a", "b"), "n": "integer"},
                             closed=True)
        assert rows[1][1] == {"id": "b", "n": -3}

    @pytest.mark.parametrize("escaped, code", [("\\ud800 x", "d800"), ("x \\udfff", "dfff"),
                                               ("\\ude00\\ud83d", "de00")])
    def test_lone_surrogate_rejected(self, tmp_path, escaped, code):
        path = tmp_path / "r.jsonl"
        path.write_text('{"id": "a"}\n{"id": "%s"}\n' % escaped)
        with pytest.raises(ValidationError, match=rf"^line 2: unpaired surrogate \\u{code} in a string$"):
            list(read_jsonl(path))
        config = tmp_path / "c.json"
        config.write_text('{"x": ["%s"]}' % escaped)
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(config))}: unpaired surrogate \\u{code}"):
            load_json(config)

    @pytest.mark.parametrize("escaped, text", [("\\ud83d\\ude00", "\U0001f600"), ("\\\\ud800", "\\ud800"),
                                               ("\\u00e9", "\u00e9")])
    def test_paired_or_literal_surrogate_escapes_pass(self, tmp_path, escaped, text):
        path = tmp_path / "r.jsonl"
        path.write_text('{"id": "%s"}\n' % escaped)
        assert list(read_jsonl(path)) == [(1, {"id": text})]

    @pytest.mark.parametrize("content, message", [
        (b'{"a": }', "invalid JSON: Expecting value (column 7)"),
        (b'{"a": }\n', "invalid JSON: Expecting value (line 1, column 7)"),
        (b'{\n  "a": }\n', "invalid JSON: Expecting value (line 2, column 8)"),
        (b'{\r\n  "a": }\r\n', "invalid JSON: Expecting value (line 2, column 8)"),
        (b"\xef\xbb\xbf{}\n", "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig) (line 1, column 1)"),
        ('{"a": 1}'.encode("utf-16"), "invalid UTF-8 at byte 1"),
        (b'{"a": "caf\xe9"}\n', "invalid UTF-8 at byte 11"),
    ])
    def test_json_file_fault_names_its_place(self, tmp_path, content, message):
        path = tmp_path / "c.json"
        path.write_bytes(content)
        with pytest.raises(ValidationError) as info:
            load_json(path)
        assert str(info.value) == f"{path}: {message}"

    def test_json_file_with_cr_line_ends_parses(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'{\r\n  "a": [1,\r 2]\r\n}\r\n')
        assert load_json(path) == {"a": [1, 2]}


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(docs=st.lists(documents(), max_size=8))
    def test_mono_round_trip(self, tmp_path_factory, docs):
        unique = list({d.id: d for d in docs}.values())
        path = tmp_path_factory.mktemp("rt") / "docs.jsonl"
        write_corpus(unique, path)
        assert read_corpus(path, "mono") == unique

    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(parallel_pairs(), max_size=8))
    def test_parallel_round_trip(self, tmp_path_factory, pairs):
        unique = list({p.id: p for p in pairs}.values())
        path = tmp_path_factory.mktemp("rt") / "pairs.jsonl"
        write_corpus(unique, path)
        assert read_corpus(path, "parallel") == unique


class TestSegmentTokens:
    def test_whitespace_script(self):
        assert segment_tokens("the quick  fox", "en") == ["the", "quick", "fox"]

    def test_codepoint_script(self):
        assert segment_tokens("你好 世界", "zh") == ["你", "好", "世", "界"]

    def test_tibetan_codepoints(self):
        tokens = segment_tokens("བཀྲ་ཤིས", "bo")
        assert len(tokens) == len("བཀྲ་ཤིས")

    def test_no_tag_gives_whitespace_tokens(self):
        text = "你好 世界\tthe\u3000end"
        assert segment_tokens(text, None) == ["你好", "世界", "the", "end"] == segment_tokens(text, "en")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValidationError, match="^unknown language tag: 'xx'$"):
            segment_tokens("hello", "xx")
