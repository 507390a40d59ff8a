"""Character-n-gram Naive Bayes language identification.

Self-contained stand-in for an external language-ID model: multinomial
Naive Bayes over character n-grams with add-alpha smoothing. Text is
lowercased (per-codepoint, so CJK and other unicameral scripts are
untouched) before n-gram extraction.

The model is its scoring arrays: row i of a (V+1, C) float64 matrix holds
the log-likelihoods of the i-th vocab gram (in sorted order) under each of
the C classes, and the last row holds the unseen slot. A text's distinct
grams, in first-occurrence order (by n, then by position),
gather their rows; each row is scaled by the gram's count, and a cumulative
sum down the gram axis, starting from the row of log priors, gives every
class's log posterior. The cumulative sum adds the terms one at a time in
that order, which is the order of the per-class loop it replaces, so the
posteriors are bit-identical to it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class LangIdModel:
    """The scoring arrays of the module docstring: `grams` maps each vocab
    gram, in sorted order, to its row of `log_likelihood_matrix`, and the
    columns follow `classes`, registry tags in registry order."""

    classes: tuple[str, ...]
    ngram_range: tuple[int, int]
    smoothing_alpha: float
    grams: dict[str, int]
    log_likelihood_matrix: np.ndarray
    log_prior_row: np.ndarray


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
    vocab = sorted(set().union(*counts.values()))
    matrix = np.empty((len(vocab) + 1, len(classes)))
    for j, c in enumerate(classes):
        table = counts[c]
        denom = sum(table.values()) + alpha * (len(vocab) + 1)
        matrix[:-1, j] = np.fromiter((math.log((table[g] + alpha) / denom) for g in vocab), np.float64, len(vocab))
        matrix[-1, j] = math.log(alpha / denom)

    return LangIdModel(
        classes=classes,
        ngram_range=ngram_range,
        smoothing_alpha=alpha,
        grams={g: i for i, g in enumerate(vocab)},
        log_likelihood_matrix=matrix,
        log_prior_row=np.array([math.log(doc_counts[c] / total_docs) for c in classes]),
    )


def posteriors(model: LangIdModel, text: str) -> dict[str, float]:
    """Normalized class posteriors for a text; sums to 1."""
    if not text:
        raise ValidationError("cannot classify empty text")
    grams = extract_ngrams(text, model.ngram_range)
    index = model.grams
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
    vocab = list(model.grams)
    columns = model.log_likelihood_matrix.T.tolist()
    write_jsonl(path, [{
        "format": "mtforge-langid",
        "version": 1,
        "classes": list(model.classes),
        "log_priors": dict(zip(model.classes, model.log_prior_row.tolist())),
        "ngram_range": list(model.ngram_range),
        "smoothing_alpha": model.smoothing_alpha,
        "vocab": vocab,
        "log_likelihoods": {c: dict(zip(vocab, column[:-1])) for c, column in zip(model.classes, columns)},
        "unseen_log_likelihood": {c: column[-1] for c, column in zip(model.classes, columns)},
    }])


# model file fields, as save_langid writes them; load_langid checks the
# entries of the lists and tables
_MODEL_FIELDS = {"format": ("mtforge-langid",), "version": "integer", "classes": "array", "log_priors": "object",
                 "ngram_range": "array", "smoothing_alpha": "number", "vocab": "array", "log_likelihoods": "object",
                 "unseen_log_likelihood": "object"}


def load_langid(path: str | Path) -> LangIdModel:
    """Read a model written by save_langid. A file whose tables disagree
    with each other or with the classes, or that holds a value save_langid
    would not write, raises ValidationError naming the path."""
    payload = check_fields(load_json(path), _MODEL_FIELDS, _MODEL_FIELDS, closed=True, where=path)
    with at(path):
        if payload["version"] != 1:
            raise ValidationError(f"version must be 1, got {payload['version']}")
        lo_hi = tuple(payload["ngram_range"])
        if len(lo_hi) != 2 or not all(type(n) is int for n in lo_hi) or not 1 <= lo_hi[0] <= lo_hi[1]:
            raise ValidationError(f"ngram_range must be two integers 1 <= lo <= hi, got {list(lo_hi)}")
        alpha = payload["smoothing_alpha"]
        if not (is_finite_number(alpha) and alpha > 0):
            raise ValidationError(f"smoothing_alpha must be a finite number > 0, got {alpha}")
        classes = tuple(payload["classes"])
        if not classes or not all(type(s) is str for s in chain(classes, payload["vocab"])) \
                or len(set(classes)) < len(classes):
            raise ValidationError("classes must be distinct names, at least one, and vocab must hold strings")
        if list(classes) != sorted(classes, key=registry_order):  # ties break toward the first class
            raise ValidationError(f"classes must be in registry order, got {list(classes)}")
        vocab = set(payload["vocab"])
        grams = sorted(vocab)
        matrix = np.empty((len(grams) + 1, len(classes)))
        for j, c in enumerate(classes):
            for name in ("log_priors", "log_likelihoods", "unseen_log_likelihood"):
                if c not in payload[name]:
                    raise ValidationError(f"{name} has no entry for class {c!r}")
            table = payload["log_likelihoods"][c]
            if type(table) is not dict:
                raise ValidationError(f"log_likelihoods[{c!r}] must be an object")
            if table.keys() != vocab:
                gram = min(table.keys() ^ vocab)
                raise ValidationError(f"log_likelihoods[{c!r}] and vocab disagree on gram {gram!r}")
            column = [*map(table.__getitem__, grams), payload["unseen_log_likelihood"][c]]
            if not all(map(is_finite_number, column)):
                raise ValidationError("log_likelihoods must hold finite numbers")
            matrix[:, j] = column
        priors = [payload["log_priors"][c] for c in classes]
        if not all(map(is_finite_number, priors)):
            raise ValidationError("log_priors must hold finite numbers")
        return LangIdModel(classes, lo_hi, alpha, {g: i for i, g in enumerate(grams)}, matrix,
                           np.array(priors, np.float64))
