"""Reward components for translation RL: terminology overlap, repetition
detection, composite aggregation, and group-relative advantage normalization.

Quality scores arrive from outside (a ScorerEndpoint) as numbers in [0, 1];
nothing neural runs in-process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import segment_tokens
from .errors import ValidationError, at
from .ioutils import check_fields, is_finite_number, load_json


@dataclass(frozen=True)
class TermTable:
    """Source terms mapped to their acceptable target renderings."""

    entries: Mapping[str, frozenset[str]]

    def __post_init__(self):
        frozen = {}
        for term, renderings in self.entries.items():
            if not term:
                raise ValidationError("empty source term in term table")
            if (not isinstance(renderings, (list, tuple, set, frozenset)) or not renderings
                    or not all(type(r) is str and r for r in renderings)):
                raise ValidationError(f"term {term!r} needs a list of non-empty renderings")
            frozen[term] = frozenset(renderings)
        object.__setattr__(self, "entries", frozen)


def load_term_table(path: str | Path) -> TermTable:
    """Read a JSON object mapping each source term to a list of renderings;
    a malformed file raises ValidationError naming the path."""
    raw = check_fields(load_json(path), {}, where=path)
    with at(path):
        return TermTable(raw)


def terminology_reward(source: str, hypothesis: str, table: TermTable) -> float:
    """Fraction of source-relevant terms rendered acceptably in the hypothesis.

    A table entry is relevant when its source term occurs in the source text;
    it counts as covered when any acceptable rendering occurs in the
    hypothesis. No relevant terms means a vacuous 1.0. Matching is
    case-folded, which leaves caseless scripts matched exactly.
    """
    source_folded = source.casefold()
    hyp_folded = hypothesis.casefold()
    relevant = [term for term in table.entries if term.casefold() in source_folded]
    if not relevant:
        return 1.0
    covered = sum(
        1
        for term in relevant
        if any(r.casefold() in hyp_folded for r in table.entries[term])
    )
    return covered / len(relevant)


REPETITION_ORDERS = range(2, 5)
MAX_CONSECUTIVE = 3
MIN_DISTINCT_RATIO = 0.3


def repetition_score(text: str, lang: str | None = None) -> float:
    """Binary degenerate-repetition detector over the text's word units, as
    `corpus.segment_tokens(text, lang)` gives them.

    Returns 1.0 when any n-gram (n in REPETITION_ORDERS) repeats
    back-to-back at least MAX_CONSECUTIVE times, or when the distinct-n-gram
    ratio for some n falls below MIN_DISTINCT_RATIO; otherwise 0.0.
    """
    tokens = segment_tokens(text, lang)
    if not tokens:
        raise ValidationError("cannot score empty text")
    for n in REPETITION_ORDERS:
        total = len(tokens) - n + 1
        if total < 1:
            continue
        grams = [tuple(tokens[i : i + n]) for i in range(total)]
        if len(set(grams)) / total < MIN_DISTINCT_RATIO:
            return 1.0
        # back-to-back repetition: the same n-gram at i, i+n, ..., i+(MAX_CONSECUTIVE-1)*n
        runs = zip(*(grams[j * n :] for j in range(MAX_CONSECUTIVE)))
        if any(run.count(run[0]) == MAX_CONSECUTIVE for run in runs):
            return 1.0
    return 0.0


@dataclass(frozen=True)
class RewardWeights:
    w_quality: float = 0.5
    w_terminology: float = 0.5
    w_repetition_penalty: float = 1.0

    def __post_init__(self):
        if not all(is_finite_number(w) and w >= 0
                   for w in (self.w_quality, self.w_terminology, self.w_repetition_penalty)):
            raise ValidationError("reward weights must be finite and >= 0")
        if self.w_quality + self.w_terminology <= 0:
            raise ValidationError("quality and terminology weights cannot both be zero")


@dataclass(frozen=True)
class RewardBreakdown:
    quality: float
    terminology: float
    repetition_penalty: float
    total: float


def composite_reward(
    quality: float,
    terminology: float,
    repetition_penalty: float,
    weights: RewardWeights = RewardWeights(),
) -> RewardBreakdown:
    """total = clamp(w_q*quality + w_t*terminology - w_r*penalty, 0, 1)."""
    for name, value in (
        ("quality", quality),
        ("terminology", terminology),
        ("repetition_penalty", repetition_penalty),
    ):
        if not 0 <= value <= 1:
            raise ValidationError(f"{name} must be in [0, 1], got {value}")
    raw = (
        weights.w_quality * quality
        + weights.w_terminology * terminology
        - weights.w_repetition_penalty * repetition_penalty
    )
    return RewardBreakdown(quality, terminology, repetition_penalty, min(max(raw, 0.0), 1.0))


def grpo_advantages(rewards: Sequence[float], epsilon: float = 1e-8) -> list[float]:
    """Group-relative advantages: (r - mean) / (population std + epsilon)."""
    if len(rewards) < 2:
        raise ValidationError(f"need a group of >= 2 rewards, got {len(rewards)}")
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be > 0, got {epsilon}")
    if not all(is_finite_number(r) for r in rewards):
        raise ValidationError("rewards must be finite numbers")
    mean = sum(rewards) / len(rewards)
    variance = sum((r - mean) ** 2 for r in rewards) / len(rewards)
    denom = math.sqrt(variance) + epsilon
    return [(r - mean) / denom for r in rewards]
