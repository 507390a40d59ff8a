"""Canonical data model: language registry, corpus records, direction groups, JSONL IO.

A language tag is a plain string validated against the closed registry below.
Corpus files are JSON Lines, one record per line, UTF-8, with fixed field
names. All record types are immutable; derive updated records with
`dataclasses.replace` (or the `with_score` helper).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from .errors import SchemaError, ValidationError
from .ioutils import is_finite_number, read_records, write_jsonl

# (code, English display name, Chinese display name), in registry order.
# The registry is closed: tags compare case-sensitively and anything outside
# this table is rejected.
_REGISTRY_ROWS: tuple[tuple[str, str, str], ...] = (
    ("zh", "Chinese", "中文"),
    ("en", "English", "英语"),
    ("fr", "French", "法语"),
    ("pt", "Portuguese", "葡萄牙语"),
    ("es", "Spanish", "西班牙语"),
    ("ja", "Japanese", "日语"),
    ("tr", "Turkish", "土耳其语"),
    ("ru", "Russian", "俄语"),
    ("ar", "Arabic", "阿拉伯语"),
    ("ko", "Korean", "韩语"),
    ("th", "Thai", "泰语"),
    ("it", "Italian", "意大利语"),
    ("de", "German", "德语"),
    ("vi", "Vietnamese", "越南语"),
    ("ms", "Malay", "马来语"),
    ("id", "Indonesian", "印度尼西亚语"),
    ("tl", "Filipino", "菲律宾语"),
    ("hi", "Hindi", "印地语"),
    ("zh-Hant", "Traditional Chinese", "繁体中文"),
    ("pl", "Polish", "波兰语"),
    ("cs", "Czech", "捷克语"),
    ("nl", "Dutch", "荷兰语"),
    ("km", "Khmer", "高棉语"),
    ("my", "Burmese", "缅甸语"),
    ("fa", "Persian", "波斯语"),
    ("gu", "Gujarati", "古吉拉特语"),
    ("ur", "Urdu", "乌尔都语"),
    ("te", "Telugu", "泰卢固语"),
    ("mr", "Marathi", "马拉地语"),
    ("he", "Hebrew", "希伯来语"),
    ("bn", "Bengali", "孟加拉语"),
    ("ta", "Tamil", "泰米尔语"),
    ("uk", "Ukrainian", "乌克兰语"),
    ("bo", "Tibetan", "藏语"),
    ("kk", "Kazakh", "哈萨克语"),
    ("mn", "Mongolian", "蒙古语"),
    ("ug", "Uyghur", "维吾尔语"),
    ("yue", "Cantonese", "粤语"),
)

REGISTRY: tuple[str, ...] = tuple(code for code, _, _ in _REGISTRY_ROWS)
_REGISTRY_INDEX = {code: i for i, (code, _, _) in enumerate(_REGISTRY_ROWS)}
_EN_NAMES = {code: en for code, en, _ in _REGISTRY_ROWS}
_ZH_NAMES = {code: zh for code, _, zh in _REGISTRY_ROWS}

# Sinitic tags: grouped with Chinese for prompt-template selection, but only
# the literal "zh" counts as Chinese for direction grouping.
SINITIC_TAGS = frozenset({"zh", "zh-Hant", "yue"})

# Scripts written without inter-word spaces get codepoint tokenization.
NO_SPACE_TAGS = frozenset({"zh", "zh-Hant", "yue", "ja", "th", "km", "my", "bo"})

PROVENANCES = ("academic", "book", "professional_web", "general_web", "other")


def require_tag(code: str) -> str:
    """Validate a language tag against the closed registry; returns it unchanged."""
    if code not in _REGISTRY_INDEX:
        raise ValidationError(f"unknown language tag: {code!r}")
    return code


def registry_order(code: str) -> int:
    """Position of a tag in the registry; used for deterministic tie-breaking."""
    require_tag(code)
    return _REGISTRY_INDEX[code]


def display_name(code: str, in_lang: str = "en") -> str:
    """Display name of a language, in English ("en") or Chinese ("zh")."""
    require_tag(code)
    if in_lang == "en":
        return _EN_NAMES[code]
    if in_lang == "zh":
        return _ZH_NAMES[code]
    raise ValidationError(f"display names exist for 'en' and 'zh', not {in_lang!r}")


class DirectionGroup(Enum):
    ZH_TO_XX = "ZH_TO_XX"
    XX_TO_ZH = "XX_TO_ZH"
    EN_TO_XX = "EN_TO_XX"
    XX_TO_EN = "XX_TO_EN"
    XX_TO_XX = "XX_TO_XX"


def classify_direction(src: str, tgt: str) -> DirectionGroup:
    """Assign an ordered language pair to exactly one of the five direction groups.

    Chinese-centric groups take precedence over English-centric ones, so
    zh->en is ZH_TO_XX and en->zh is XX_TO_ZH. Only the literal tag "zh"
    counts as Chinese here; "zh-Hant" and "yue" are ordinary XX tags.
    """
    require_tag(src)
    require_tag(tgt)
    if src == tgt:
        raise ValidationError(f"source and target language are both {src!r}")
    if src == "zh":
        return DirectionGroup.ZH_TO_XX
    if tgt == "zh":
        return DirectionGroup.XX_TO_ZH
    if src == "en":
        return DirectionGroup.EN_TO_XX
    if tgt == "en":
        return DirectionGroup.XX_TO_EN
    return DirectionGroup.XX_TO_XX


def _check_scores(scores: dict, where: str) -> None:
    for name, value in scores.items():
        if not isinstance(name, str) or not name:
            raise ValidationError(f"{where}: score names must be non-empty strings")
        if not is_finite_number(value):
            raise ValidationError(f"{where}: score {name!r} must be a finite number")


@dataclass(frozen=True)
class Document:
    """One monolingual corpus record."""

    id: str
    lang: str
    text: str
    provenance: str = "other"
    scores: dict[str, float] = field(default_factory=dict)
    tags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if not self.id:
            raise ValidationError("document id must be non-empty")
        require_tag(self.lang)
        if not self.text.strip():
            raise ValidationError(f"document {self.id!r}: text is empty")
        if self.provenance not in PROVENANCES:
            raise ValidationError(f"document {self.id!r}: unknown provenance {self.provenance!r}")
        _check_scores(self.scores, f"document {self.id!r}")
        if not all(isinstance(tag, str) for tag in self.tags):
            raise ValidationError(f"document {self.id!r}: tags must be strings")
        object.__setattr__(self, "tags", frozenset(self.tags))


@dataclass(frozen=True)
class ParallelPair:
    """One bilingual corpus record (source segment and its translation)."""

    id: str
    src_lang: str
    tgt_lang: str
    src_text: str
    tgt_text: str
    scores: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise ValidationError("pair id must be non-empty")
        require_tag(self.src_lang)
        require_tag(self.tgt_lang)
        if self.src_lang == self.tgt_lang:
            raise ValidationError(f"pair {self.id!r}: src_lang == tgt_lang == {self.src_lang!r}")
        if not self.src_text.strip() or not self.tgt_text.strip():
            raise ValidationError(f"pair {self.id!r}: empty text")
        _check_scores(self.scores, f"pair {self.id!r}")


Record = Document | ParallelPair


def with_score(record: Record, name: str, value: float) -> Record:
    """Copy of a record with one score added or replaced."""
    scores = dict(record.scores)
    scores[name] = float(value)
    return replace(record, scores=scores)


def segment_tokens(text: str, lang: str) -> list[str]:
    """Tokenize per script: whitespace tokens, or single codepoints for
    scripts written without spaces (whitespace codepoints are skipped)."""
    require_tag(lang)
    if lang in NO_SPACE_TAGS:
        return [ch for ch in text if not ch.isspace()]
    return text.split()


def char_ngram_levels(text: str, max_n: int) -> Iterator[list[str]]:
    """Yield the character n-grams of text for n = 1..max_n (max_n >= 1),
    one list per n in position order; a level is empty once n > len(text).

    Each level is built from the one before by appending the next character
    to every gram, so no gram is sliced out of the text.
    """
    level = list(text)
    yield level
    for n in range(2, max_n + 1):
        level = list(map(operator.add, level, text[n - 1 :]))
        yield level


# record kind -> (record type, JSON type of each field, required fields)
_KINDS = {
    "mono": (Document, {"id": "string", "lang": "string", "text": "string", "provenance": "string",
                        "scores": "object", "tags": "array"}, ("id", "lang", "text")),
    "parallel": (ParallelPair, {"id": "string", "src_lang": "string", "tgt_lang": "string",
                                "src_text": "string", "tgt_text": "string", "scores": "object"},
                 ("id", "src_lang", "tgt_lang", "src_text", "tgt_text")),
}


def record_to_obj(record: Record) -> dict:
    """JSON-serializable form of a record (tags sorted for determinism).

    A record's instance attributes are exactly its fields."""
    obj = dict(vars(record), scores=dict(record.scores))
    if isinstance(record, Document):
        obj["tags"] = sorted(record.tags)
    return obj


def read_corpus(path: str | Path, kind: str) -> list[Record]:
    """Parse a JSONL corpus file in file order.

    kind is "mono" (Document records) or "parallel" (ParallelPair records).
    Malformed lines raise SchemaError naming the path and the line; duplicate
    ids are a schema violation.
    """
    if kind not in _KINDS:
        raise ValidationError(f"corpus kind must be 'mono' or 'parallel', not {kind!r}")
    record_type, fields, required = _KINDS[kind]
    records: list[Record] = []
    seen_ids: set[str] = set()
    for lineno, record in read_records(path, fields, required, closed=True, build=lambda obj: record_type(**obj)):
        if record.id in seen_ids:
            raise SchemaError(f"{path}: line {lineno}: duplicate id {record.id!r}")
        seen_ids.add(record.id)
        records.append(record)
    return records


def write_corpus(records: Iterable[Record], path: str | Path) -> int:
    """Write records as JSON Lines (atomically); returns the count written."""
    return write_jsonl(path, (record_to_obj(record) for record in records))
