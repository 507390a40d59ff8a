"""Interpolated Kneser-Ney n-gram language model and perplexity scoring.

Single fixed absolute discount, continuation counts for the lower orders,
and a uniform base distribution over the prediction vocabulary (which always
includes the unknown token), so every conditional distribution is proper and
no sequence has zero probability when the discount is positive.

Tokenization follows the document's language tag: whitespace tokens for
spaced scripts, single codepoints otherwise (see corpus.segment_tokens).
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from .corpus import Document, registry_order, require_tag, segment_tokens
from .errors import SchemaError, ValidationError, at
from .ioutils import atomic_write, check_fields, decode_utf8, parse_json

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

# Highest accepted order. Tables are allocated per order before any count is
# read, so the bound keeps a tiny model file from allocating a table for
# each of billions of orders; it is far above the orders Kneser-Ney
# smoothing is used with.
MAX_ORDER = 32


def _check_params(order: int, discount: float, min_count: int) -> None:
    if not 1 <= order <= MAX_ORDER:
        raise ValidationError(f"order must be in 1..{MAX_ORDER}, got {order}")
    if not 0 <= discount < 1:
        raise ValidationError(f"discount must be in [0, 1), got {discount}")
    if min_count < 1:
        raise ValidationError(f"min_count must be >= 1, got {min_count}")


class NGramLm:
    """Trained model state plus derived tables; build via train_lm or load_lm.

    counts[k] maps each k-token gram to its count for k = 1..order, one flat
    table per order as the model file lists them, counted over BOS-padded,
    EOS-terminated sentences (windows ending in BOS are skipped so BOS is
    never a predicted word). _levels[k] = (grams, contexts) is what order k
    interpolates from: grams is counts[order] at the highest order and,
    below it, the continuation counts (the number of distinct one-token
    left-extensions of each k-gram at order k+1); contexts maps each
    (k-1)-token context in grams to (total count, distinct words).
    """

    def __init__(
        self,
        order: int,
        discount: float,
        min_count: int,
        counts: dict[int, dict[tuple[str, ...], int]],
        default_lang: str,
    ):
        _check_params(order, discount, min_count)
        require_tag(default_lang)
        self.order = order
        self.discount = discount
        self.min_count = min_count
        self.counts = counts
        self.default_lang = default_lang
        self._levels: dict[int, tuple[dict, dict]] = {}
        for k in range(1, order + 1):
            grams = counts[k] if k == order else Counter(gram[1:] for gram in counts[k + 1])
            contexts: dict[tuple[str, ...], tuple[int, int]] = {}
            for gram, count in grams.items():
                total, types = contexts.get(gram[:-1], (0, 0))
                contexts[gram[:-1]] = (total + count, types + 1)
            self._levels[k] = (grams, contexts)
        self.vocab: frozenset[str] = frozenset({word for (word,) in counts[1]} - {BOS} | {UNK, EOS})

    # -- probabilities ----------------------------------------------------

    def _prob(self, word: str, context: tuple[str, ...]) -> float:
        """P(word | context) for a word in vocab and an order-1 token context
        of vocab words and BOS: the uniform base, then each order's
        discounted estimate interpolated with the one below it."""
        p = 1.0 / len(self.vocab)
        for k in range(1, self.order + 1):
            grams, contexts = self._levels[k]
            ctx = context[self.order - k :]
            seen = contexts.get(ctx)
            if seen:
                total, types = seen
                p = max(grams.get(ctx + (word,), 0) - self.discount, 0.0) / total + self.discount * types / total * p
        return p

    def prob(self, word: str, context: Sequence[str] = ()) -> float:
        """P(word | context), with unknown tokens mapped to UNK and the
        context truncated on the left to order-1 tokens."""
        word = word if word in self.vocab else UNK
        ctx = tuple(t if t in self.vocab or t == BOS else UNK for t in context)
        return self._prob(word, ((BOS,) * (self.order - 1) + ctx)[len(ctx) :])  # the last order-1 tokens

    def seen_contexts(self, k: int | None = None) -> list[tuple[str, ...]]:
        return sorted({gram[:-1] for gram in self.counts[k if k is not None else self.order]})


def train_lm(
    corpus: Sequence[Document],
    order: int = 3,
    discount: float = 0.75,
    min_count: int = 1,
) -> NGramLm:
    """Count n-grams of every order up to `order` over the corpus.

    Tokens seen fewer than min_count times become UNK before counting. Each
    document is one sentence, padded with order-1 BOS tokens and one EOS.
    """
    if not corpus:
        raise ValidationError("empty training corpus")
    _check_params(order, discount, min_count)

    tokenized = [segment_tokens(doc.text, doc.lang) for doc in corpus]
    raw_freq: Counter[str] = Counter()
    for tokens in tokenized:
        raw_freq.update(tokens)
    keep = {t: sys.intern(t) for t, c in raw_freq.items() if c >= min_count}  # one string per token

    counts: dict[int, Counter[tuple[str, ...]]] = {k: Counter() for k in range(1, order + 1)}
    for tokens in tokenized:
        padded = [BOS] * (order - 1) + [keep.get(t, UNK) for t in tokens] + [EOS]
        for k in range(1, order + 1):
            counts[k].update(tuple(padded[i - k : i]) for i in range(k, len(padded) + 1) if padded[i - 1] != BOS)

    lang_freq = Counter(doc.lang for doc in corpus)
    default_lang = min(lang_freq, key=lambda lang: (-lang_freq[lang], registry_order(lang)))
    return NGramLm(order, discount, min_count, counts, default_lang)


def _tokens(lm: NGramLm, text: str, lang: str | None) -> list[str]:
    """The tokens log_prob and perplexity score; empty input is rejected."""
    tokens = segment_tokens(text, lang or lm.default_lang)
    if not tokens:
        raise ValidationError("cannot score empty text")
    return tokens


def _log_prob(lm: NGramLm, tokens: Sequence[str]) -> float:
    """log_prob of non-empty tokens, each mapped to UNK when out of vocab and padded once."""
    n = lm.order - 1
    padded = (BOS,) * n + tuple(t if t in lm.vocab else UNK for t in tokens) + (EOS,)
    total = 0.0
    for i in range(n, len(padded)):
        p = lm._prob(padded[i], padded[i - n : i])
        if p <= 0.0:
            return float("-inf")  # only reachable with discount == 0
        total += math.log(p)
    return total


def log_prob(lm: NGramLm, text: str, lang: str | None = None) -> float:
    """Natural-log probability of a sentence, EOS included, tokenized per
    `lang` (default the model's training language)."""
    return _log_prob(lm, _tokens(lm, text, lang))


def perplexity(lm: NGramLm, text: str, lang: str | None = None) -> float:
    """exp(-log_prob / N) with N = token count + 1 for the EOS position."""
    tokens = _tokens(lm, text, lang)
    return math.exp(-_log_prob(lm, tokens) / (len(tokens) + 1))


# -- serialization: JSON header line + sorted plain-text count table --------


def save_lm(lm: NGramLm, path: str | Path) -> None:
    header = {
        "format": "mtforge-ngram-lm",
        "version": 1,
        "order": lm.order,
        "discount": lm.discount,
        "min_count": lm.min_count,
        "vocab_size": len(lm.vocab),
        "default_lang": lm.default_lang,
    }
    with atomic_write(path) as handle:
        handle.write(json.dumps(header, sort_keys=True))
        handle.write("\n")
        for k in sorted(lm.counts):
            for gram, count in sorted(lm.counts[k].items()):
                handle.write(f"{k}\t{' '.join(gram)}\t{count}\n")


# header fields, as save_lm writes them
_HEADER_FIELDS = {"format": ("mtforge-ngram-lm",), "version": "integer", "order": "integer",
                  "discount": "number", "min_count": "integer", "vocab_size": "integer", "default_lang": "string"}


def _read_header(raw: bytes) -> dict:
    with at("line 1"):
        header = parse_json(decode_utf8(raw).rstrip("\n"))
    check_fields(header, _HEADER_FIELDS, _HEADER_FIELDS, closed=True, where="header")
    if header["version"] != 1:
        raise ValidationError(f"version must be 1, got {header['version']}")
    _check_params(header["order"], header["discount"], header["min_count"])  # before any table is allocated
    return header


def load_lm(path: str | Path) -> NGramLm:
    """Read a model written by save_lm; a malformed header or count line, or
    a header vocab_size other than the counts' vocabulary, raises
    ValidationError naming the path."""
    with at(path), open(path, "rb") as handle:
        header = _read_header(handle.readline())
        order = header["order"]
        counts: dict[int, dict[tuple[str, ...], int]] = {k: {} for k in range(1, order + 1)}
        for lineno, raw in enumerate(handle, start=2):
            try:
                line = decode_utf8(raw)
                if not line.strip():
                    continue
                k_str, gram_str, count_str = line.rstrip("\n").split("\t")
                k, count = int(k_str), int(count_str)
            except ValidationError as exc:
                raise SchemaError(f"line {lineno}: {exc}") from None
            except ValueError:
                raise SchemaError(f"line {lineno}: expected k<TAB>gram<TAB>count") from None
            table = counts.get(k)
            if table is None:
                raise SchemaError(f"line {lineno}: order {k} outside 1..{order}")
            gram = tuple(map(sys.intern, gram_str.split(" ")))
            if len(gram) != k or count < 1:
                raise SchemaError(f"line {lineno}: an order-{k} line needs a {k}-token gram and a count >= 1")
            if gram in table:
                raise SchemaError(f"line {lineno}: repeated {k}-gram")
            table[gram] = count
        lm = NGramLm(order, header["discount"], header["min_count"], counts, header["default_lang"])
        if header["vocab_size"] != len(lm.vocab):
            raise ValidationError(f"header: vocab_size must be {len(lm.vocab)}, got {header['vocab_size']}")
        return lm
