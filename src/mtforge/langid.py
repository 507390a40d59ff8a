"""Character-n-gram Naive Bayes language identification.

Self-contained stand-in for an external language-ID model: multinomial
Naive Bayes over character n-grams with add-alpha smoothing. Text is
lowercased (per-codepoint, so CJK and other unicameral scripts are
untouched) before n-gram extraction.

Scoring uses a matrix built once per model: row i of a (V+1, C) float64
array holds the log-likelihoods of the i-th vocab gram (in sorted order)
under each of the C classes, and the last row holds the unseen slot. A
text's distinct grams, in first-occurrence order (by n, then by position),
gather their rows; each row is scaled by the gram's count, and a cumulative
sum down the gram axis, starting from the row of log priors, gives every
class's log posterior. The cumulative sum adds the terms one at a time in
that order, which is the order of the per-class loop it replaces, so the
posteriors are bit-identical to it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Document, char_ngram_levels, registry_order
from .errors import ValidationError, at
from .ioutils import check_fields, is_finite_number, load_json, write_jsonl


def extract_ngrams(text: str, ngram_range: tuple[int, int]) -> Counter[str]:
    """Multiset of character n-grams for every n in the inclusive range,
    keyed in first-occurrence order: by n, then by position."""
    lo, hi = ngram_range
    if lo < 1 or hi < lo:
        raise ValidationError(f"bad ngram range {ngram_range}")
    grams: Counter[str] = Counter()
    text = text.lower()
    # levels longer than the text are empty: a huge hi costs nothing
    for level in islice(char_ngram_levels(text, min(hi, len(text) or 1)), lo - 1, None):
        grams.update(level)
    return grams


@dataclass(frozen=True)
class LangIdModel:
    classes: tuple[str, ...]
    log_priors: dict[str, float]
    ngram_range: tuple[int, int]
    smoothing_alpha: float
    vocab: frozenset[str]
    log_likelihoods: dict[str, dict[str, float]]
    unseen_log_likelihood: dict[str, float]
    # scoring tables derived from the fields above (see the module docstring)
    gram_index: dict[str, int] = field(init=False, repr=False, compare=False)
    log_likelihood_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    log_prior_row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check that the fields agree with each other and build the scoring
        tables from them; an inconsistent model raises ValidationError. Lists,
        as a model file holds them, are stored as the field types."""
        lo_hi = tuple(self.ngram_range)
        if (len(lo_hi) != 2 or not all(isinstance(n, int) and not isinstance(n, bool) for n in lo_hi)
                or not 1 <= lo_hi[0] <= lo_hi[1]):
            raise ValidationError(f"ngram_range must be two integers 1 <= lo <= hi, got {list(lo_hi)}")
        classes = tuple(self.classes)
        if not classes or not all(type(s) is str for s in chain(classes, self.vocab)) \
                or len(set(classes)) < len(classes):
            raise ValidationError("classes must be distinct names, at least one, and vocab must hold strings")
        vocab = frozenset(self.vocab)
        for c in classes:
            for name in ("log_priors", "log_likelihoods", "unseen_log_likelihood"):
                if c not in getattr(self, name):
                    raise ValidationError(f"{name} has no entry for class {c!r}")
            table = self.log_likelihoods[c]
            if type(table) is not dict:
                raise ValidationError(f"log_likelihoods[{c!r}] must be an object")
            if table.keys() != vocab:
                gram = min(table.keys() ^ vocab)
                raise ValidationError(f"log_likelihoods[{c!r}] and vocab disagree on gram {gram!r}")
        grams = sorted(vocab)
        rows = [[*map(self.log_likelihoods[c].__getitem__, grams), self.unseen_log_likelihood[c]] for c in classes]
        priors = [self.log_priors[c] for c in classes]
        for name, values in (("log_likelihoods", chain.from_iterable(rows)), ("log_priors", priors)):
            if not all(map(is_finite_number, values)):
                raise ValidationError(f"{name} must hold finite numbers")
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "ngram_range", lo_hi)
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "gram_index", {g: i for i, g in enumerate(grams)})
        object.__setattr__(self, "log_likelihood_matrix", np.ascontiguousarray(np.array(rows, np.float64).T))
        object.__setattr__(self, "log_prior_row", np.array(priors, np.float64))


def train_langid(
    labeled_docs: Sequence[Document],
    ngram_range: tuple[int, int] = (1, 3),
    alpha: float = 0.5,
) -> LangIdModel:
    """Fit class priors and smoothed n-gram likelihoods from labeled documents.

    Priors are class document frequencies. Likelihoods are add-alpha smoothed
    over vocab plus one shared unseen slot, so each class distribution sums
    to one. Deterministic given the same document multiset, in any order.
    """
    if alpha <= 0:
        raise ValidationError(f"smoothing alpha must be > 0, got {alpha}")
    if not labeled_docs:
        raise ValidationError("no training documents")

    counts: dict[str, Counter[str]] = {}
    doc_counts: Counter[str] = Counter()
    for doc in labeled_docs:
        counts.setdefault(doc.lang, Counter()).update(extract_ngrams(doc.text, ngram_range))
        doc_counts[doc.lang] += 1
    for lang, grams in counts.items():
        if not grams:
            raise ValidationError(f"class {lang!r} has no n-grams")

    classes = tuple(sorted(counts, key=registry_order))
    total_docs = sum(doc_counts.values())
    log_priors = {c: math.log(doc_counts[c] / total_docs) for c in classes}
    vocab = frozenset().union(*counts.values())

    log_likelihoods: dict[str, dict[str, float]] = {}
    unseen: dict[str, float] = {}
    denom_slots = len(vocab) + 1
    for c in classes:
        total = sum(counts[c].values())
        denom = total + alpha * denom_slots
        log_likelihoods[c] = {g: math.log((counts[c][g] + alpha) / denom) for g in vocab}
        unseen[c] = math.log(alpha / denom)

    return LangIdModel(
        classes=classes,
        log_priors=log_priors,
        ngram_range=ngram_range,
        smoothing_alpha=alpha,
        vocab=vocab,
        log_likelihoods=log_likelihoods,
        unseen_log_likelihood=unseen,
    )


def posteriors(model: LangIdModel, text: str) -> dict[str, float]:
    """Normalized class posteriors for a text; sums to 1."""
    if not text:
        raise ValidationError("cannot classify empty text")
    grams = extract_ngrams(text, model.ngram_range)
    index = model.gram_index
    unseen = len(index)
    rows = [index.get(gram, unseen) for gram in grams]
    counts = np.fromiter(grams.values(), np.float64, len(rows))
    terms = np.empty((len(rows) + 1, len(model.classes)))
    terms[0] = model.log_prior_row
    np.multiply(model.log_likelihood_matrix[rows], counts[:, None], out=terms[1:])
    log_posts = np.cumsum(terms, axis=0)[-1].tolist()
    peak = max(log_posts)
    exps = [math.exp(lp - peak) for lp in log_posts]
    norm = sum(exps)
    return {c: e / norm for c, e in zip(model.classes, exps)}


def predict_lang(model: LangIdModel, text: str) -> tuple[str, float]:
    """Argmax class and its posterior; ties break toward registry order."""
    post = posteriors(model, text)
    best = max(model.classes, key=lambda c: post[c])  # first max wins on ties
    return best, post[best]


def save_langid(model: LangIdModel, path: str | Path) -> None:
    write_jsonl(path, [{
        "format": "mtforge-langid",
        "version": 1,
        "classes": list(model.classes),
        "log_priors": model.log_priors,
        "ngram_range": list(model.ngram_range),
        "smoothing_alpha": model.smoothing_alpha,
        "vocab": sorted(model.vocab),
        "log_likelihoods": {c: model.log_likelihoods[c] for c in model.classes},
        "unseen_log_likelihood": model.unseen_log_likelihood,
    }])


# model file fields, as save_langid writes them; LangIdModel checks the
# entries of the lists and tables
_MODEL_FIELDS = {"format": ("mtforge-langid",), "version": "integer", "classes": "array", "log_priors": "object",
                 "ngram_range": "array", "smoothing_alpha": "number", "vocab": "array", "log_likelihoods": "object",
                 "unseen_log_likelihood": "object"}


def load_langid(path: str | Path) -> LangIdModel:
    """Read a model written by save_langid; a malformed file raises
    ValidationError naming the path."""
    payload = check_fields(load_json(path), _MODEL_FIELDS, _MODEL_FIELDS, closed=True, where=path)
    with at(path):
        if payload["version"] != 1:
            raise ValidationError(f"version must be 1, got {payload['version']}")
        del payload["format"], payload["version"]
        return LangIdModel(**payload)
