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


def repetition_score(
    text: str,
    n_range: tuple[int, int] = (2, 4),
    max_consecutive: int = 3,
    min_distinct_ratio: float = 0.3,
) -> float:
    """Binary degenerate-repetition detector over whitespace tokens.

    Returns 1.0 when any n-gram (n in the inclusive range) repeats
    back-to-back at least max_consecutive times, or when the distinct-n-gram
    ratio for some n falls below min_distinct_ratio; otherwise 0.0.
    """
    tokens = text.split()
    if not tokens:
        raise ValidationError("cannot score empty text")
    lo, hi = n_range
    if lo < 1 or hi < lo:
        raise ValidationError(f"bad n-gram range {n_range}")
    if max_consecutive < 2:
        raise ValidationError("max_consecutive must be >= 2")
    for n in range(lo, hi + 1):
        total = len(tokens) - n + 1
        if total < 1:
            continue
        grams = [tuple(tokens[i : i + n]) for i in range(total)]
        if len(set(grams)) / total < min_distinct_ratio:
            return 1.0
        # back-to-back repetition: the same n-gram at start, start+n, ...
        for start in range(total):
            gram = tokens[start : start + n]
            run = 1
            pos = start + n
            while pos + n <= len(tokens) and tokens[pos : pos + n] == gram:
                run += 1
                if run >= max_consecutive:
                    return 1.0
                pos += n
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

    def to_obj(self) -> dict:
        return {
            "quality": self.quality,
            "terminology": self.terminology,
            "repetition_penalty": self.repetition_penalty,
            "total": self.total,
        }


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
