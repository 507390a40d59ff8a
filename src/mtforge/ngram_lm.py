"""Interpolated Kneser-Ney n-gram language model and perplexity filtering.

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
from collections import Counter
from pathlib import Path
from typing import Sequence

from .corpus import Document, registry_order, segment_tokens
from .errors import SchemaError, ValidationError, at
from .ioutils import atomic_write, check_fields

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

# Highest accepted order. Tables are allocated per order before any count is
# read, and NGramLm._interpolate recurses once per order, so the bound keeps
# a tiny model file from exhausting memory or the interpreter's recursion
# limit; it is far above the orders Kneser-Ney smoothing is used with.
MAX_ORDER = 32


def _check_order(order: int) -> None:
    if not 1 <= order <= MAX_ORDER:
        raise ValidationError(f"order must be in 1..{MAX_ORDER}, got {order}")


class NGramLm:
    """Trained model state plus derived tables; build via train_lm or load_lm.

    counts[k] maps a (k-1)-token context to {word: count} for k = 1..order,
    counted over BOS-padded, EOS-terminated sentences (windows ending in BOS
    are skipped so BOS is never a predicted word). Continuation tables for
    orders below the highest are derived from the raw counts.
    """

    def __init__(
        self,
        order: int,
        discount: float,
        min_count: int,
        counts: dict[int, dict[tuple[str, ...], dict[str, int]]],
        default_lang: str,
    ):
        _check_order(order)
        if not 0 <= discount < 1:
            raise ValidationError(f"discount must be in [0, 1), got {discount}")
        self.order = order
        self.discount = discount
        self.min_count = min_count
        self.counts = counts
        self.default_lang = default_lang
        self._build_derived()

    def _build_derived(self) -> None:
        # _levels[k] = (table, totals) that order k interpolates from: raw counts
        # at the highest order, below it continuation counts, where table[ctx][w]
        # is the number of distinct one-token left-extensions of ctx+w at order k+1
        self._levels: list = [None]
        for k in range(1, self.order):
            table: dict[tuple[str, ...], Counter[str]] = {}
            for ctx, words in self.counts[k + 1].items():
                lower_ctx = ctx[1:]
                for word in words:
                    table.setdefault(lower_ctx, Counter())[word] += 1
            self._levels.append((table, {ctx: sum(c.values()) for ctx, c in table.items()}))
        top = self.counts[self.order]
        self._levels.append((top, {ctx: sum(words.values()) for ctx, words in top.items()}))
        unigram_types = set(self.counts[1].get((), {}))
        unigram_types.discard(BOS)
        unigram_types.add(UNK)
        unigram_types.add(EOS)
        self.vocab: frozenset[str] = frozenset(unigram_types)

    # -- probabilities ----------------------------------------------------

    def _uniform(self) -> float:
        return 1.0 / len(self.vocab)

    def _interpolate(self, word: str, context: tuple[str, ...], k: int) -> float:
        """Discounted order-k estimate interpolated with order k-1."""
        if k == 0:
            return self._uniform()
        tables, totals = self._levels[k]
        table = tables.get(context)
        if not table:
            return self._interpolate(word, context[1:], k - 1)
        total = totals[context]
        top = max(table.get(word, 0) - self.discount, 0.0) / total
        lam = self.discount * len(table) / total
        return top + lam * self._interpolate(word, context[1:], k - 1)

    def prob(self, word: str, context: Sequence[str] = ()) -> float:
        """P(word | context), with unknown tokens mapped to UNK and the
        context truncated on the left to order-1 tokens."""
        word = word if word in self.vocab else UNK
        ctx = tuple(t if t in self.vocab or t == BOS else UNK for t in context)
        ctx = ctx[max(0, len(ctx) - (self.order - 1)) :]
        if len(ctx) < self.order - 1:
            ctx = (BOS,) * (self.order - 1 - len(ctx)) + ctx
        return self._interpolate(word, ctx, self.order)

    def seen_contexts(self, k: int | None = None) -> list[tuple[str, ...]]:
        return sorted(self.counts[k if k is not None else self.order])


def _map_rare(tokens: list[str], keep: set[str]) -> list[str]:
    return [t if t in keep else UNK for t in tokens]


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
    _check_order(order)
    if not 0 <= discount < 1:
        raise ValidationError(f"discount must be in [0, 1), got {discount}")
    if min_count < 1:
        raise ValidationError(f"min_count must be >= 1, got {min_count}")

    tokenized = [segment_tokens(doc.text, doc.lang) for doc in corpus]
    raw_freq: Counter[str] = Counter()
    for tokens in tokenized:
        raw_freq.update(tokens)
    keep = {t for t, c in raw_freq.items() if c >= min_count}

    counts: dict[int, dict[tuple[str, ...], dict[str, int]]] = {
        k: {} for k in range(1, order + 1)
    }
    for tokens in tokenized:
        if not tokens:
            continue
        padded = [BOS] * (order - 1) + _map_rare(tokens, keep) + [EOS]
        for k in range(1, order + 1):
            table = counts[k]
            for i in range(len(padded) - k + 1):
                if padded[i + k - 1] == BOS:
                    continue
                ctx = tuple(padded[i : i + k - 1])
                word = padded[i + k - 1]
                table.setdefault(ctx, {})[word] = table.get(ctx, {}).get(word, 0) + 1
    if not counts[1]:
        raise ValidationError("training corpus has no tokens")

    lang_freq = Counter(doc.lang for doc in corpus)
    default_lang = min(lang_freq, key=lambda lang: (-lang_freq[lang], registry_order(lang)))
    return NGramLm(order, discount, min_count, counts, default_lang)


def _tokens(lm: NGramLm, text: str | Sequence[str], lang: str | None) -> list[str]:
    """The tokens log_prob and perplexity score; empty input is rejected."""
    if isinstance(text, str):
        tokens = segment_tokens(text, lang or lm.default_lang)
    else:
        tokens = list(text)
    if not tokens:
        raise ValidationError("cannot score empty text")
    return tokens


def log_prob(lm: NGramLm, text: str | Sequence[str], lang: str | None = None) -> float:
    """Natural-log probability of a sentence, EOS included.

    Accepts raw text (tokenized per `lang`, default the model's training
    language) or a pre-tokenized sequence.
    """
    tokens = _tokens(lm, text, lang)
    mapped = [t if t in lm.vocab else UNK for t in tokens]
    padded = [BOS] * (lm.order - 1) + mapped + [EOS]
    total = 0.0
    for i in range(lm.order - 1, len(padded)):
        p = lm.prob(padded[i], padded[i - lm.order + 1 : i])
        if p <= 0.0:
            return float("-inf")  # only reachable with discount == 0
        total += math.log(p)
    return total


def perplexity(lm: NGramLm, text: str | Sequence[str], lang: str | None = None) -> float:
    """exp(-log_prob / N) with N = token count + 1 for the EOS position."""
    tokens = _tokens(lm, text, lang)
    return math.exp(-log_prob(lm, tokens) / (len(tokens) + 1))


def filter_high_perplexity(
    docs: Sequence[Document],
    lm: NGramLm,
    mode: str = "percentile",
    max_ppl: float | None = None,
    q: float | None = None,
) -> tuple[list[Document], list[tuple[Document, float]]]:
    """Drop high-perplexity documents.

    absolute mode keeps ppl <= max_ppl; percentile mode keeps the lowest-q
    fraction by perplexity, with boundary ties kept.
    """
    ppls = [(doc, perplexity(lm, doc.text, doc.lang)) for doc in docs]
    if mode == "absolute":
        if max_ppl is None or not max_ppl > 1:  # NaN too
            raise ValidationError("absolute mode requires max_ppl > 1")
        cutoff = max_ppl
    elif mode == "percentile":
        if q is None or not 0 < q <= 1:
            raise ValidationError("percentile mode requires q in (0, 1]")
        if not ppls:
            return [], []
        target = int(math.floor(q * len(ppls) + 1e-9))
        if target == 0:
            return [], list(ppls)
        cutoff = sorted(p for _, p in ppls)[target - 1]
    else:
        raise ValidationError(f"mode must be 'absolute' or 'percentile', not {mode!r}")
    kept = [doc for doc, p in ppls if p <= cutoff]
    dropped = [(doc, p) for doc, p in ppls if p > cutoff]
    return kept, dropped


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
            rows = []
            for ctx, words in lm.counts[k].items():
                for word, count in words.items():
                    rows.append((ctx + (word,), count))
            for gram, count in sorted(rows):
                handle.write(f"{k}\t{' '.join(gram)}\t{count}\n")


# header fields, as save_lm writes them
_HEADER_FIELDS = {"format": ("mtforge-ngram-lm",), "version": "integer", "order": "integer",
                  "discount": "number", "min_count": "integer", "vocab_size": "integer", "default_lang": "string"}


def _read_header(line: str) -> dict:
    try:
        header = json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or an integer beyond int()'s digit limit
        raise SchemaError(f"line 1: invalid JSON header: {exc}") from None
    check_fields(header, _HEADER_FIELDS, _HEADER_FIELDS, closed=True, where="header")
    _check_order(header["order"])  # before any table is allocated
    return header


def load_lm(path: str | Path) -> NGramLm:
    """Read a model written by save_lm; a malformed header or count line
    raises ValidationError naming the path."""
    with at(path):
        try:
            with open(path, encoding="utf-8") as handle:
                header = _read_header(handle.readline())
                order = header["order"]
                counts: dict[int, dict[tuple[str, ...], dict[str, int]]] = {k: {} for k in range(1, order + 1)}
                for lineno, line in enumerate(handle, start=2):
                    if not line.strip():
                        continue
                    try:
                        k_str, gram_str, count_str = line.rstrip("\n").split("\t")
                        k, count = int(k_str), int(count_str)
                    except ValueError:
                        raise SchemaError(f"line {lineno}: expected k<TAB>gram<TAB>count") from None
                    table = counts.get(k)
                    if table is None:
                        raise SchemaError(f"line {lineno}: order {k} outside 1..{order}")
                    gram = tuple(gram_str.split(" "))
                    if len(gram) != k or count < 1:
                        raise SchemaError(f"line {lineno}: an order-{k} line needs a {k}-token gram and a count >= 1")
                    table.setdefault(gram[:-1], {})[gram[-1]] = count
        except UnicodeDecodeError:
            raise SchemaError("invalid UTF-8") from None
        return NGramLm(order, header["discount"], header["min_count"], counts, header["default_lang"])
