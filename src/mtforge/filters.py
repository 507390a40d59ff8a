"""Quality scoring and filter-pipeline composition.

Composite quality scoring over three 0-2 dimensions with provenance-based
weight profiles, threshold filtering against a ScorerEndpoint,
multi-round judge-consistency flagging, and an ordered stage pipeline with
exact per-stage accounting (input = kept + dropped + unscored, every stage).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import ClassVar, Protocol, Sequence

from .corpus import QUALITY_COMPOSITE, Document, ParallelPair, Record, attach_scores, require_tag
from .errors import ValidationError, at
from .ioutils import is_finite_number, is_number
from .parallel import map_chunks
from .scorers import ScorerEndpoint

DIMENSION_KEYS = ("knowledge_value", "authenticity", "writing_style")


@dataclass(frozen=True)
class QualityDimensions:
    """Human- or judge-assigned scores on the 0/1/2 scale."""

    knowledge_value: int
    authenticity: int
    writing_style: int

    def __post_init__(self):
        for key in DIMENSION_KEYS:
            value = getattr(self, key)
            if value not in (0, 1, 2):
                raise ValidationError(f"{key} must be 0, 1 or 2, got {value!r}")


@dataclass(frozen=True)
class WeightProfile:
    provenance: str
    w_knowledge: float
    w_authenticity: float
    w_writing: float

    def __post_init__(self):
        weights = (self.w_knowledge, self.w_authenticity, self.w_writing)
        if any(w < 0 for w in weights):
            raise ValidationError("dimension weights must be >= 0")
        if sum(weights) == 0:
            raise ValidationError("at least one dimension weight must be positive")


# Knowledge-heavy weighting for curated provenances, uniform for the open web.
DEFAULT_PROFILES = {
    "academic": WeightProfile("academic", 0.5, 0.25, 0.25),
    "book": WeightProfile("book", 0.5, 0.25, 0.25),
    "professional_web": WeightProfile("professional_web", 0.5, 0.25, 0.25),
    "general_web": WeightProfile("general_web", 1 / 3, 1 / 3, 1 / 3),
    "other": WeightProfile("other", 1 / 3, 1 / 3, 1 / 3),
}


def composite_quality(dims: QualityDimensions, profile: WeightProfile) -> float:
    """Weighted mean of the dimension scores, normalized to [0, 1].

    Invariant under positive rescaling of the weight vector; all-2 dims give
    exactly 1.0 and all-0 dims exactly 0.0.
    """
    weights = (profile.w_knowledge, profile.w_authenticity, profile.w_writing)
    scores = (dims.knowledge_value, dims.authenticity, dims.writing_style)
    return sum(w * s for w, s in zip(weights, scores)) / (2 * sum(weights))


def score_documents(docs: Sequence[Document]) -> tuple[list[Document], list[Document]]:
    """Attach the composite score, weighted by the doc's DEFAULT_PROFILES
    entry, to docs whose scores map carries all three dimension values;
    docs missing a dimension land in the second list. A dimension value
    not 0, 1 or 2 raises SchemaError naming the doc."""

    def composite(doc: Document) -> float | None:
        if not all(key in doc.scores for key in DIMENSION_KEYS):
            return None
        with at(f"document {doc.id!r}"):
            dims = QualityDimensions(*(doc.scores[key] for key in DIMENSION_KEYS))
        return composite_quality(dims, DEFAULT_PROFILES[doc.provenance])

    return attach_scores(docs, QUALITY_COMPOSITE, map(composite, docs))


# the fields of the items threshold_filter sends to its scorer
THRESHOLD_ITEM_FIELDS = ("source", "hypothesis", "src_lang", "tgt_lang")


def threshold_filter(
    pairs: Sequence[ParallelPair],
    scorer: ScorerEndpoint,
    tau: float,
) -> tuple[list[ParallelPair], list[ParallelPair], list[ParallelPair]]:
    """Keep pairs scoring >= tau; returns (kept, dropped, unscored).

    Every scored pair (kept or dropped) carries its score under the scorer's
    name; pairs the scorer failed on go to the unscored bucket unchanged.
    QualityThresholdStage checks tau against the scorer's range.
    """
    items = [dict(zip(THRESHOLD_ITEM_FIELDS, (p.src_text, p.tgt_text, p.src_lang, p.tgt_lang))) for p in pairs]
    scored, unscored = attach_scores(pairs, scorer.name, scorer.score_many(items))
    kept = [pair for pair in scored if pair.scores[scorer.name] >= tau]
    dropped = [pair for pair in scored if pair.scores[scorer.name] < tau]
    return kept, dropped, unscored


@dataclass(frozen=True)
class JudgeRecord:
    sample_id: str
    round_scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.round_scores) < 2:
            raise ValidationError(f"sample {self.sample_id!r}: need >= 2 judge rounds")
        if not all(is_number(score) for score in self.round_scores):
            raise ValidationError(f"sample {self.sample_id!r}: judge scores must be numbers")
        if not all(is_finite_number(score) for score in self.round_scores):
            raise ValidationError(f"sample {self.sample_id!r}: judge scores must be finite")


def flag_inconsistent(
    records: Sequence[JudgeRecord], max_spread: float
) -> tuple[list[str], list[str]]:
    """Split sample ids into (consistent, flagged); flagged iff the spread
    max - min of the round scores exceeds max_spread."""
    if max_spread < 0:
        raise ValidationError(f"max_spread must be >= 0, got {max_spread}")
    consistent: list[str] = []
    flagged: list[str] = []
    for record in records:
        spread = max(record.round_scores) - min(record.round_scores)
        (flagged if spread > max_spread else consistent).append(record.sample_id)
    return consistent, flagged


# -- pipeline composition ----------------------------------------------------


def _per_document(fn, records, jobs):
    """[fn(record) for record in records], on up to `jobs` processes."""
    return [value for chunk in map_chunks(lambda part: [fn(record) for record in part], records, jobs)
            for value in chunk]


class Stage(Protocol):
    """A filter whose fields are its config keys, typed by FIELDS; `apply`
    may run on up to `jobs` processes, the run's count, and its result does
    not depend on it."""

    name: ClassVar[str]
    record_kind: ClassVar[str]  # "mono" | "parallel"
    FIELDS: ClassVar[dict]

    def apply(
        self, records: Sequence[Record], jobs: int = 1
    ) -> tuple[list[Record], list[tuple[Record, str, dict]], list[Record]]:
        """-> (kept, dropped as (record, reason, fields for its dropped row), unscored)"""
        ...


@dataclass
class StageReport:
    name: str
    input_count: int
    kept: int
    dropped: int
    unscored: int
    reasons: dict[str, int] = field(default_factory=dict)


@dataclass
class LangIdStage:
    """Keep documents identified as `expected` with confidence >=
    min_confidence; a dropped row carries the predicted language and its
    confidence."""

    name: ClassVar[str] = "langid"
    record_kind: ClassVar[str] = "mono"
    FIELDS: ClassVar[dict] = {"model": "string", "expected": "string", "min_confidence": "number"}
    model: object  # LangIdModel
    expected: str
    min_confidence: float = 0.5

    def __post_init__(self):
        require_tag(self.expected)
        if not 0 <= self.min_confidence <= 1:  # NaN too
            raise ValidationError(f"min_confidence must be in [0, 1], got {self.min_confidence}")

    def apply(self, records, jobs=1):
        # looked up per call, so a wrapper installed on the module applies
        from . import langid

        predictions = _per_document(lambda doc: langid.predict_lang(self.model, doc.text), records, jobs)
        kept, dropped = [], []
        for doc, (predicted, confidence) in zip(records, predictions):
            if predicted == self.expected and confidence >= self.min_confidence:
                kept.append(doc)
            else:
                dropped.append((doc, f"predicted={predicted}", {"predicted": predicted, "confidence": confidence}))
        return kept, dropped, []


@dataclass
class DedupStage:
    """Near-duplicate removal by minlsh.dedup, which takes these fields by
    name; a dropped row carries the kept id and the estimated Jaccard. The
    signature holds bands x rows hashes. `seed` is the run's, not a config key."""

    name: ClassVar[str] = "dedup"
    record_kind: ClassVar[str] = "mono"
    FIELDS: ClassVar[dict] = {"shingle_n": "integer", "bands": "integer", "rows": "integer", "threshold": "number",
                              "unit": ("word", "char")}
    shingle_n: int = 5
    bands: int = 16
    rows: int = 8
    threshold: float = 0.8
    unit: str = "word"
    seed: int = 0

    def __post_init__(self):
        # imported here, not at the top, so that importing filters (which
        # cli.py does for every command) does not load NumPy
        from . import minlsh

        minlsh.check_dedup_params(**asdict(self))

    def apply(self, records, jobs=1):
        # looked up per call, so a wrapper installed on the module applies
        from . import minlsh

        kept, drops = minlsh.dedup(records, **asdict(self), jobs=jobs)
        by_id = {rec.id: rec for rec in records}
        annotated = [(by_id[d.dropped_id], f"near_duplicate_of={d.kept_id}",
                      {"kept_id": d.kept_id, "estimated_jaccard": d.estimated_jaccard}) for d in drops]
        return kept, annotated, []


@dataclass
class PerplexityStage:
    """Drop high-perplexity documents: absolute mode keeps ppl <= max_ppl,
    percentile mode the lowest-q fraction by perplexity, with boundary ties
    kept."""

    name: ClassVar[str] = "perplexity"
    record_kind: ClassVar[str] = "mono"
    FIELDS: ClassVar[dict] = {"model": "string", "mode": ("absolute", "percentile"), "max_ppl": "number", "q": "number"}
    model: object  # NGramLm
    mode: str
    max_ppl: float | None = None
    q: float | None = 0.95

    def __post_init__(self):
        if self.mode == "absolute":
            if self.max_ppl is None or not self.max_ppl > 1:  # NaN too
                raise ValidationError("absolute mode requires max_ppl > 1")
        elif self.mode == "percentile":
            if self.q is None or not 0 < self.q <= 1:
                raise ValidationError("percentile mode requires q in (0, 1]")
        else:
            raise ValidationError(f"mode must be 'absolute' or 'percentile', not {self.mode!r}")

    def apply(self, records, jobs=1):
        # looked up per call, so a wrapper installed on the module applies
        from . import ngram_lm

        ppls = _per_document(lambda doc: ngram_lm.perplexity(self.model, doc.text, doc.lang), records, jobs)
        cutoff = self.max_ppl
        if self.mode == "percentile":
            target = int(math.floor(self.q * len(ppls) + 1e-9))
            cutoff = sorted(ppls)[target - 1] if target else -math.inf
        kept, dropped = [], []
        for doc, ppl in zip(records, ppls):
            if ppl <= cutoff:
                kept.append(doc)
            else:
                # a zero-discount model gives an unseen n-gram probability 0, so
                # perplexity infinity, which JSON has no number for
                dropped.append((doc, "high_perplexity", {"perplexity": ppl if math.isfinite(ppl) else None}))
        return kept, dropped, []


@dataclass
class QualityThresholdStage:
    """Keep parallel pairs scoring >= tau, which must lie in the scorer's
    range, by a scorer that reads only THRESHOLD_ITEM_FIELDS; see
    threshold_filter. Every pair goes to the scorer in one call, whatever
    `jobs` is."""

    name: ClassVar[str] = "quality_threshold"
    record_kind: ClassVar[str] = "parallel"
    FIELDS: ClassVar[dict] = {"scorer": "object", "tau": "number"}
    scorer: ScorerEndpoint
    tau: float

    def __post_init__(self):
        self.scorer.check_item_fields(THRESHOLD_ITEM_FIELDS)
        lo, hi = self.scorer.score_range
        if not lo <= self.tau <= hi:
            raise ValidationError(f"tau={self.tau} outside scorer range [{lo}, {hi}]")

    def apply(self, records, jobs=1):
        kept, dropped, unscored = threshold_filter(records, self.scorer, self.tau)
        annotated = [(pair, "below_threshold", {}) for pair in dropped]
        return kept, annotated, unscored


# stage type -> class, for pipeline configs
STAGES = {stage.name: stage for stage in (LangIdStage, DedupStage, PerplexityStage, QualityThresholdStage)}


@dataclass
class PipelineResult:
    final: list[Record]
    reports: list[StageReport]
    dropped: list[tuple[str, Record, str, dict]]  # (stage name, record, reason, detail)
    unscored: list[Record]


def run_pipeline(records: Sequence[Record], stages: Sequence[Stage], kind: str, jobs: int = 1) -> PipelineResult:
    """Run stages in order, each on up to `jobs` processes; stage i consumes
    exactly stage i-1's kept set.

    Every stage must take `kind` records, checked before any processing.
    Dropped and unscored records leave the pipeline at their stage but are
    carried in the result, never lost.
    """
    for stage in stages:
        if stage.record_kind != kind:
            raise ValidationError(f"stage {stage.name!r} expects {stage.record_kind} records, not {kind}")
    names = [stage.name for stage in stages]
    if len(set(names)) != len(names):
        raise ValidationError("stage names must be unique")

    current = list(records)
    reports: list[StageReport] = []
    all_dropped: list[tuple[str, Record, str, dict]] = []
    all_unscored: list[Record] = []
    for stage in stages:
        kept, dropped, unscored = stage.apply(current, jobs)
        if len(kept) + len(dropped) + len(unscored) != len(current):
            raise RuntimeError(f"stage {stage.name!r} accounting does not reconcile")
        reasons: dict[str, int] = {}
        for record, reason, detail in dropped:
            key = reason.split("=", 1)[0]
            reasons[key] = reasons.get(key, 0) + 1
            all_dropped.append((stage.name, record, reason, detail))
        all_unscored.extend(unscored)
        reports.append(
            StageReport(
                name=stage.name,
                input_count=len(current),
                kept=len(kept),
                dropped=len(dropped),
                unscored=len(unscored),
                reasons=reasons,
            )
        )
        current = kept
    return PipelineResult(current, reports, all_dropped, all_unscored)
