"""Desk-scale evaluation: chrF, corpus scoring through a scorer, grouped reports.

Every metric is a ScorerEndpoint; the default, "chrf", is the registered
local scorer that calls `chrf` below. Each score lives in its pair's
`scores` map under the scorer's name, where `group_report` reads it.

chrF here is the pure character-n-gram variant: whitespace is removed, F
with recall weighted beta^2 over precision, at chrF's standard beta of 2, is
computed per order 1..max_n, and orders where neither side has any n-grams
are skipped so a string always scores 100 against itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import DirectionGroup, ParallelPair, char_ngram_levels, classify_direction, segment_tokens, with_score
from .errors import ValidationError
from .scorers import ScorerEndpoint


def chrf(hypothesis: str, reference: str, max_n: int = 6) -> float:
    """Character-n-gram F_2 averaged over orders 1..max_n, scaled to [0, 100]."""
    if max_n < 1:
        raise ValidationError(f"max_n must be >= 1, got {max_n}")
    ref = "".join(segment_tokens(reference, None))
    hyp = "".join(segment_tokens(hypothesis, None))
    if not ref:
        raise ValidationError("reference must be non-empty")
    beta_sq = 2.0 * 2.0
    f_scores = []
    for hyp_level, ref_level in zip(char_ngram_levels(hyp, max_n), char_ngram_levels(ref, max_n)):
        hyp_total = len(hyp_level)
        ref_total = len(ref_level)
        if hyp_total == 0 and ref_total == 0:
            continue
        hyp_grams = Counter(hyp_level)
        ref_grams = Counter(ref_level)
        overlap = sum(min(count, ref_grams[gram]) for gram, count in hyp_grams.items())
        precision = overlap / hyp_total if hyp_total else 0.0
        recall = overlap / ref_total if ref_total else 0.0
        if precision + recall == 0:
            f_scores.append(0.0)
        else:
            f_scores.append((1 + beta_sq) * precision * recall / (beta_sq * precision + recall))
    return 100.0 * sum(f_scores) / len(f_scores)


# the fields of the items score_corpus sends to its scorer
SCORE_ITEM_FIELDS = ("source", "hypothesis", "reference")


def score_corpus(
    pairs: Sequence[ParallelPair],
    hypotheses: Mapping[str, str],
    scorer: ScorerEndpoint,
) -> tuple[list[ParallelPair], list[tuple[ParallelPair, str]]]:
    """Score every pair's hypothesis against its reference (the target text).

    Each scored pair comes back with its score under `scorer.name`. Scoring
    failures are returned in the second list with a reason, never silently
    dropped; a missing hypothesis violates the contract and raises.
    """
    missing = [p.id for p in pairs if p.id not in hypotheses]
    if missing:
        raise ValidationError(f"missing hypotheses for ids: {missing[:5]}")
    items = [dict(zip(SCORE_ITEM_FIELDS, (p.src_text, hypotheses[p.id], p.tgt_text))) for p in pairs]
    scored: list[ParallelPair] = []
    failures: list[tuple[ParallelPair, str]] = []
    for pair, value in zip(pairs, scorer.score_many(items)):
        if value is None:
            failures.append((pair, f"scorer {scorer.name!r} failed"))
        else:
            scored.append(with_score(pair, scorer.name, value))
    return scored, failures


@dataclass(frozen=True)
class GroupStats:
    mean: float
    count: int


@dataclass(frozen=True)
class EvalReport:
    metric_name: str
    per_group: dict[DirectionGroup, GroupStats]
    overall: GroupStats
    aggregation: str  # "micro" | "macro"

    def to_obj(self) -> dict:
        return {
            "metric": self.metric_name,
            "aggregation": self.aggregation,
            "groups": {
                group.value: {"mean": stats.mean, "count": stats.count}
                for group, stats in sorted(self.per_group.items(), key=lambda kv: kv[0].value)
            },
            "overall": {"mean": self.overall.mean, "count": self.overall.count},
        }

    def render_text(self) -> str:
        width = max(len(g.value) for g in DirectionGroup)
        lines = [f"metric: {self.metric_name} ({self.aggregation})"]
        for group in DirectionGroup:
            stats = self.per_group.get(group)
            if stats is None:
                lines.append(f"{group.value:<{width}}  mean=     -  n=0")
            else:
                lines.append(f"{group.value:<{width}}  mean={stats.mean:10.4f}  n={stats.count}")
        lines.append(f"{'overall':<{width}}  mean={self.overall.mean:10.4f}  n={self.overall.count}")
        return "\n".join(lines)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def group_report(pairs: Sequence[ParallelPair], metric: str, aggregation: str = "micro") -> EvalReport:
    """Aggregate each pair's `metric` score into the five direction groups
    plus an overall row.

    micro averages over segments; macro first averages each (src, tgt)
    language pair, then averages those means. A pair without a `metric`
    score is an error.
    """
    if aggregation not in ("micro", "macro"):
        raise ValidationError(f"aggregation must be micro or macro, not {aggregation!r}")
    if not pairs:
        raise ValidationError("nothing to report")
    unscored = [p.id for p in pairs if metric not in p.scores]
    if unscored:
        raise ValidationError(f"no {metric!r} score for ids: {unscored[:5]}")

    by_group: dict[DirectionGroup, list[ParallelPair]] = {}
    for pair in pairs:
        by_group.setdefault(classify_direction(pair.src_lang, pair.tgt_lang), []).append(pair)

    def summarize(items: list[ParallelPair]) -> GroupStats:
        if aggregation == "micro":
            return GroupStats(_mean([p.scores[metric] for p in items]), len(items))
        per_pair: dict[tuple[str, str], list[float]] = {}
        for p in items:
            per_pair.setdefault((p.src_lang, p.tgt_lang), []).append(p.scores[metric])
        return GroupStats(_mean([_mean(vals) for vals in per_pair.values()]), len(items))

    per_group = {group: summarize(items) for group, items in by_group.items()}
    overall = summarize(list(pairs))
    return EvalReport(metric, per_group, overall, aggregation)
