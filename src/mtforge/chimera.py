"""Multi-candidate translation and weak-to-strong fusion orchestration.

Prompt rendering is byte-exact and covered by golden files: a Chinese
instruction template when a Sinitic language is on either side of the pair,
an English one otherwise, and an English fusion prompt that lists the
candidates in fenced blocks. Candidate generation sends one request per
entry of a sampling grid to a pluggable completion backend; fusion sends one
dependent request and falls back to the best-scoring candidate (or the first
one) when the fusion backend fails. Both run their requests on a caller's
executor, so one pool can bound the requests of many segments. What they
put on it are leaf calls (a completion or a scoring request) that never
wait on another future.
"""

from __future__ import annotations

import re
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Optional, Sequence

from .backends import BackendFailure, BackendSpec, GenerationParams, complete
from .corpus import SINITIC_TAGS, display_name, require_tag
from .errors import OrchestrationError, ValidationError
from .scorers import ScorerEndpoint

ZH_TEMPLATE = "把下面的文本翻译成{target}，不要额外解释。\n\n{text}"
EN_TEMPLATE = "Translate the following segment into {target}, without additional explanation.\n\n{text}"

FUSION_HEADER = (
    "Analyze the following multiple {tgt} translations of the {src} segment "
    "surrounded in triple backticks and generate a single refined {tgt} "
    "translation. Only output the refined translation, do not explain."
)


def render_translation_prompt(src_lang: str, tgt_lang: str, text: str) -> str:
    """Single-segment translation prompt; Chinese wording whenever a Sinitic
    tag is on either side, English wording otherwise."""
    require_tag(src_lang)
    require_tag(tgt_lang)
    if src_lang == tgt_lang:
        raise ValidationError(f"source and target language are both {src_lang!r}")
    if src_lang in SINITIC_TAGS or tgt_lang in SINITIC_TAGS:
        return ZH_TEMPLATE.format(target=display_name(tgt_lang, "zh"), text=text)
    return EN_TEMPLATE.format(target=display_name(tgt_lang, "en"), text=text)


def _fence(content: str) -> str:
    """Wrap content in a backtick fence longer than any run it contains.

    Content that is empty or starts/ends with a space or backtick is padded
    with one space on each side, which a reader strips back off.
    """
    runs = re.findall(r"`+", content)
    width = max(3, max((len(r) for r in runs), default=0) + 1)
    if not content or content[0] in " `" or content[-1] in " `":
        content = f" {content} "
    return "`" * width + content + "`" * width


def render_fusion_prompt(
    src_lang: str, tgt_lang: str, source_text: str, candidates: Sequence[str]
) -> str:
    """Fusion prompt listing the source and all numbered candidates."""
    require_tag(src_lang)
    require_tag(tgt_lang)
    if len(candidates) < 2:
        raise ValidationError(f"fusion needs >= 2 candidates, got {len(candidates)}")
    src = display_name(src_lang, "en")
    tgt = display_name(tgt_lang, "en")
    lines = [
        FUSION_HEADER.format(src=src, tgt=tgt),
        "",
        f"The {src} segment:",
        _fence(source_text),
        "",
        f"The multiple {tgt} translations:",
    ]
    for i, candidate in enumerate(candidates, start=1):
        lines.append(f"{i}. {_fence(candidate)}")
    return "\n".join(lines)


def clean_generation(text: str) -> str:
    """Normalize a raw completion: trim whitespace, drop one enclosing
    code fence (with optional language label) if present."""
    cleaned = text.strip()
    if cleaned.startswith("```") and cleaned.endswith("```") and len(cleaned) > 6:
        inner = cleaned[3:-3]
        if "\n" in inner:
            first, rest = inner.split("\n", 1)
            if first == "" or first.isalnum():
                inner = rest
        cleaned = inner.strip()
    return cleaned


def default_grid() -> list[GenerationParams]:
    """Six sampling configurations: one greedy, four spread temperatures,
    and a repeated high temperature under a different seed."""
    temperatures = (0.0, 0.3, 0.5, 0.7, 1.0, 1.0)
    return [
        GenerationParams(temperature=t, top_p=0.95, max_tokens=1024, seed=i + 1)
        for i, t in enumerate(temperatures)
    ]


@dataclass(frozen=True)
class SlotFailure:
    index: int
    error: str


@dataclass(frozen=True)
class CandidateSet:
    source_text: str
    src_lang: str
    tgt_lang: str
    candidates: tuple[str, ...]
    params_used: tuple[GenerationParams, ...]
    failures: tuple[SlotFailure, ...] = ()

    def __post_init__(self):
        if len(self.candidates) < 2:
            raise ValidationError("a candidate set needs >= 2 candidates")
        if len(self.candidates) != len(self.params_used):
            raise ValidationError("candidates and params_used differ in length")


@dataclass(frozen=True)
class FusionResult:
    fused_text: str
    fallback_used: bool
    candidate_scores: Optional[tuple[float | None, ...]] = None


def generate_candidates(
    backend: BackendSpec,
    src_lang: str,
    tgt_lang: str,
    text: str,
    grid: Sequence[GenerationParams],
    pool: Executor,
    per_slot_backends: Sequence[BackendSpec | None] | None = None,
) -> CandidateSet:
    """One translation request per grid entry, assembled in grid order.

    Slots whose requests fail permanently (or come back empty after
    cleaning) are dropped along with their grid entry and recorded as
    failures. Fewer than two surviving candidates is an orchestration error.
    The requests run on `pool`, which may be shared with other calls to
    bound their requests in flight together. The grid has at least two
    entries and `per_slot_backends`, when given, one per entry; the config
    loader checks both.
    """
    prompt = render_translation_prompt(src_lang, tgt_lang, text)

    def run_slot(index: int) -> tuple[str | None, str]:
        spec = backend
        if per_slot_backends is not None and per_slot_backends[index] is not None:
            spec = per_slot_backends[index]
        try:
            raw = complete(spec, prompt, grid[index])
        except BackendFailure as exc:
            return None, str(exc)
        cleaned = clean_generation(raw)
        if not cleaned:
            return None, "empty completion"
        return cleaned, ""

    results = pool.map(run_slot, range(len(grid)))

    candidates: list[str] = []
    params_used: list[GenerationParams] = []
    failures: list[SlotFailure] = []
    for index, (cleaned, error) in enumerate(results):
        if cleaned is None:
            failures.append(SlotFailure(index, error))
        else:
            candidates.append(cleaned)
            params_used.append(grid[index])
    if len(candidates) < 2:
        raise OrchestrationError(f"only {len(candidates)} of {len(grid)} candidate requests succeeded; "
                                 f"slot {failures[0].index}: {failures[0].error}")
    return CandidateSet(
        source_text=text,
        src_lang=src_lang,
        tgt_lang=tgt_lang,
        candidates=tuple(candidates),
        params_used=tuple(params_used),
        failures=tuple(failures),
    )


# the fields of the items _score_candidates sends to a fallback scorer
FALLBACK_ITEM_FIELDS = ("source", "hypothesis")


def _score_candidates(
    scorer: ScorerEndpoint, candidates: Sequence[str], source: str | None
) -> tuple[list[float | None], int | None]:
    """All candidate scores and the 0-based index of the highest one (ties
    take the lowest index), or None when the scorer failed on every one."""
    scores = scorer.score_many([{"source": source, "hypothesis": c} for c in candidates])
    best = None
    for i, score in enumerate(scores):
        if score is not None and (best is None or score > scores[best]):
            best = i
    return scores, best


def fuse(
    backend: BackendSpec,
    candidate_set: CandidateSet,
    pool: Executor,
    fallback_scorer: ScorerEndpoint | None = None,
) -> FusionResult:
    """Fuse candidates into one output via the fusion backend.

    On backend failure or an empty completion, falls back to the
    best-scoring candidate when a scorer is available, else candidate 1.
    The result is never empty. The fusion and scoring requests run on
    `pool`, as in `generate_candidates`.
    """
    prompt = render_fusion_prompt(
        candidate_set.src_lang,
        candidate_set.tgt_lang,
        candidate_set.source_text,
        candidate_set.candidates,
    )
    try:
        raw = pool.submit(complete, backend, prompt, GenerationParams(temperature=0.0, seed=0)).result()
        fused = clean_generation(raw)
        if fused:
            return FusionResult(fused_text=fused, fallback_used=False)
    except BackendFailure:
        pass
    if fallback_scorer is not None:
        scores, best = pool.submit(_score_candidates, fallback_scorer, candidate_set.candidates,
                                   candidate_set.source_text).result()
        if best is not None:
            return FusionResult(
                fused_text=candidate_set.candidates[best],
                fallback_used=True,
                candidate_scores=tuple(scores),
            )
    return FusionResult(fused_text=candidate_set.candidates[0], fallback_used=True)
