"""Desk-scale evaluation: built-in chrF, pluggable scorers, grouped reports.

chrF here is the pure character-n-gram variant: whitespace is removed, F with
recall weighted beta^2 over precision is computed per order 1..max_n, and
orders where neither side has any n-grams are skipped so a string always
scores 100 against itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import DirectionGroup, ParallelPair, char_ngram_levels, classify_direction, with_score
from .errors import ValidationError
from .scorers import ScorerEndpoint


def chrf(hypothesis: str, reference: str, max_n: int = 6, beta: float = 2.0) -> float:
    """Character-n-gram F_beta averaged over orders 1..max_n, scaled to [0, 100]."""
    if max_n < 1:
        raise ValidationError(f"max_n must be >= 1, got {max_n}")
    ref = "".join(reference.split())
    hyp = "".join(hypothesis.split())
    if not ref:
        raise ValidationError("reference must be non-empty")
    beta_sq = beta * beta
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
    if not f_scores:
        return 0.0
    return 100.0 * sum(f_scores) / len(f_scores)


@dataclass(frozen=True)
class MetricScore:
    metric_name: str
    value: float
    scale: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.scale
        if not lo <= self.value <= hi:
            raise ValidationError(f"{self.metric_name}={self.value} outside scale [{lo}, {hi}]")


@dataclass(frozen=True)
class ScoredPair:
    pair: ParallelPair
    hypothesis: str
    score: MetricScore


def score_corpus(
    pairs: Sequence[ParallelPair],
    hypotheses: Mapping[str, str],
    metric: str | ScorerEndpoint = "chrf",
) -> tuple[list[ScoredPair], list[tuple[ParallelPair, str]]]:
    """Score every pair's hypothesis against its reference (the target text).

    metric is the built-in "chrf" or a ScorerEndpoint. Scoring failures are
    returned in the second list with a reason, never silently dropped; a
    missing hypothesis violates the contract and raises.
    """
    missing = [p.id for p in pairs if p.id not in hypotheses]
    if missing:
        raise ValidationError(f"missing hypotheses for ids: {missing[:5]}")
    scored: list[ScoredPair] = []
    failures: list[tuple[ParallelPair, str]] = []
    if metric == "chrf":
        for pair in pairs:
            value = chrf(hypotheses[pair.id], pair.tgt_text)
            scored.append(
                ScoredPair(
                    pair=with_score(pair, "chrf", value),
                    hypothesis=hypotheses[pair.id],
                    score=MetricScore("chrf", value, (0.0, 100.0)),
                )
            )
        return scored, failures
    if not isinstance(metric, ScorerEndpoint):
        raise ValidationError(f"unknown metric {metric!r}")
    items = [
        {"source": p.src_text, "hypothesis": hypotheses[p.id], "reference": p.tgt_text}
        for p in pairs
    ]
    values = metric.score_many(items)
    for pair, value in zip(pairs, values):
        if value is None:
            failures.append((pair, f"scorer {metric.name!r} failed"))
            continue
        scored.append(
            ScoredPair(
                pair=with_score(pair, metric.name, value),
                hypothesis=hypotheses[pair.id],
                score=MetricScore(metric.name, value, metric.score_range),
            )
        )
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


def group_report(scored: Sequence[ScoredPair], aggregation: str = "micro") -> EvalReport:
    """Aggregate scores into the five direction groups plus an overall row.

    micro averages over segments; macro first averages each (src, tgt)
    language pair, then averages those means. Mixing metrics is an error.
    """
    if aggregation not in ("micro", "macro"):
        raise ValidationError(f"aggregation must be micro or macro, not {aggregation!r}")
    if not scored:
        raise ValidationError("nothing to report")
    metric_names = {sp.score.metric_name for sp in scored}
    if len(metric_names) != 1:
        raise ValidationError(f"mixed metrics in one report: {sorted(metric_names)}")
    metric_name = metric_names.pop()

    by_group: dict[DirectionGroup, list[ScoredPair]] = {}
    for sp in scored:
        group = classify_direction(sp.pair.src_lang, sp.pair.tgt_lang)
        by_group.setdefault(group, []).append(sp)

    def summarize(items: list[ScoredPair]) -> GroupStats:
        if aggregation == "micro":
            return GroupStats(_mean([sp.score.value for sp in items]), len(items))
        per_pair: dict[tuple[str, str], list[float]] = {}
        for sp in items:
            per_pair.setdefault((sp.pair.src_lang, sp.pair.tgt_lang), []).append(sp.score.value)
        return GroupStats(_mean([_mean(vals) for vals in per_pair.values()]), len(items))

    per_group = {group: summarize(items) for group, items in by_group.items()}
    overall = summarize(list(scored))
    return EvalReport(metric_name, per_group, overall, aggregation)
