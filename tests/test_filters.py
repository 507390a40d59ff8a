import dataclasses
import inspect
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtforge.corpus import Document, ParallelPair
from mtforge.errors import ValidationError
from mtforge.filters import (
    DEFAULT_PROFILES,
    THRESHOLD_ITEM_FIELDS,
    DedupStage,
    JudgeRecord,
    LangIdStage,
    PerplexityStage,
    QualityDimensions,
    QualityThresholdStage,
    STAGES,
    WeightProfile,
    composite_quality,
    flag_inconsistent,
    run_pipeline,
    score_documents,
    threshold_filter,
)
from mtforge.minlsh import dedup
from mtforge.scorers import ScorerEndpoint, register_scorer


def _pair(i, score_text="x"):
    return ParallelPair(id=f"p{i}", src_lang="en", tgt_lang="fr", src_text=score_text, tgt_text="y")


class TestCompositeQuality:
    def test_maximum_is_one(self):
        dims = QualityDimensions(2, 2, 2)
        for profile in DEFAULT_PROFILES.values():
            assert composite_quality(dims, profile) == 1.0

    def test_minimum_is_zero(self):
        dims = QualityDimensions(0, 0, 0)
        for profile in DEFAULT_PROFILES.values():
            assert composite_quality(dims, profile) == 0.0

    def test_worked_example(self):
        dims = QualityDimensions(2, 1, 0)
        profile = WeightProfile("academic", 0.5, 0.25, 0.25)
        assert math.isclose(composite_quality(dims, profile), 0.625, abs_tol=1e-12)

    def test_dimension_values_validated(self):
        with pytest.raises(ValidationError):
            QualityDimensions(3, 0, 0)
        with pytest.raises(ValidationError):
            QualityDimensions(0, -1, 0)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValidationError):
            WeightProfile("other", 0, 0, 0)

    @settings(max_examples=200, deadline=None)
    @given(
        dims=st.tuples(*(st.integers(0, 2) for _ in range(3))),
        weights=st.tuples(*(st.floats(0.01, 10) for _ in range(3))),
        scale=st.floats(0.1, 100),
    )
    def test_rescaling_invariance(self, dims, weights, scale):
        d = QualityDimensions(*dims)
        a = composite_quality(d, WeightProfile("other", *weights))
        b = composite_quality(d, WeightProfile("other", *(w * scale for w in weights)))
        assert math.isclose(a, b, abs_tol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        dims=st.tuples(*(st.integers(0, 2) for _ in range(3))),
        weights=st.tuples(*(st.floats(0.01, 10) for _ in range(3))),
        bump=st.integers(0, 2),
    )
    def test_monotone_in_each_dimension(self, dims, weights, bump):
        profile = WeightProfile("other", *weights)
        base = composite_quality(QualityDimensions(*dims), profile)
        raised = list(dims)
        raised[bump] = min(2, raised[bump] + 1)
        assert composite_quality(QualityDimensions(*raised), profile) >= base - 1e-12

    def test_score_documents_routes_missing_dims(self):
        complete = Document(
            id="ok", lang="en", text="x", provenance="academic",
            scores={"knowledge_value": 2, "authenticity": 1, "writing_style": 0},
        )
        partial = Document(id="missing", lang="en", text="x", scores={"knowledge_value": 2})
        scored, missing = score_documents([complete, partial])
        assert [d.id for d in missing] == ["missing"]
        assert math.isclose(scored[0].scores["quality_composite"], 0.625)


class TestThresholdFilter:
    def test_floor_threshold_keeps_all(self):
        scorer = ScorerEndpoint("const", "local_function", "constant:0.4")
        pairs = [_pair(i) for i in range(5)]
        kept, dropped, unscored = threshold_filter(pairs, scorer, tau=0.0)
        assert len(kept) == 5 and not dropped and not unscored

    def test_above_ceiling_rejected(self):
        scorer = ScorerEndpoint("const", "local_function", "constant:0.4")
        with pytest.raises(ValidationError, match=r"tau=1.5 outside scorer range \[0.0, 1.0\]"):
            QualityThresholdStage(scorer, tau=1.5)

    def test_items_carry_the_declared_fields(self):
        seen = []
        register_scorer("field_spy", lambda item: seen.append(item) or 1.0, fields=THRESHOLD_ITEM_FIELDS)
        scorer = ScorerEndpoint("spy", "local_function", "field_spy")
        QualityThresholdStage(scorer, tau=0.5)
        threshold_filter([ParallelPair(id="p", src_lang="en", tgt_lang="fr", src_text="s", tgt_text="t")],
                         scorer, tau=0.5)
        assert seen == [{"source": "s", "hypothesis": "t", "src_lang": "en", "tgt_lang": "fr"}]

    def test_scorer_reading_another_field_rejected_when_built(self):
        scorer = ScorerEndpoint("c", "local_function", "chrf")
        with pytest.raises(ValidationError, match=r"^scorer 'c' reads the item field 'reference', but items here "
                                                  r"carry only source, hypothesis, src_lang, tgt_lang$"):
            QualityThresholdStage(scorer, tau=10)

    def test_boundary_is_inclusive(self):
        scorer = ScorerEndpoint("const", "local_function", "constant:0.7")
        kept, dropped, _ = threshold_filter([_pair(i) for i in range(3)], scorer, tau=0.7)
        assert len(kept) == 3 and not dropped

    def test_scores_recorded_on_both_sides(self):
        register_scorer("len_gate", lambda item: 1.0 if len(item["hypothesis"]) > 5 else 0.0)
        scorer = ScorerEndpoint("len_gate", "local_function", "len_gate")
        pairs = [
            ParallelPair(id="long", src_lang="en", tgt_lang="fr", src_text="s", tgt_text="long enough"),
            ParallelPair(id="short", src_lang="en", tgt_lang="fr", src_text="s", tgt_text="no"),
        ]
        kept, dropped, _ = threshold_filter(pairs, scorer, tau=0.5)
        assert kept[0].scores["len_gate"] == 1.0
        assert dropped[0].scores["len_gate"] == 0.0

    def test_scorer_failure_goes_to_unscored(self):
        def maybe_fail(item):
            return None if item["hypothesis"] == "boom" else 1.0

        register_scorer("maybe_fail", maybe_fail)
        scorer = ScorerEndpoint("maybe_fail", "local_function", "maybe_fail")
        pairs = [
            ParallelPair(id="ok", src_lang="en", tgt_lang="fr", src_text="s", tgt_text="fine"),
            ParallelPair(id="bad", src_lang="en", tgt_lang="fr", src_text="s", tgt_text="boom"),
        ]
        kept, dropped, unscored = threshold_filter(pairs, scorer, tau=0.5)
        assert [p.id for p in kept] == ["ok"]
        assert [p.id for p in unscored] == ["bad"]
        assert not dropped

    def test_clamping_into_range(self):
        scorer = ScorerEndpoint("const", "local_function", "constant:7.5", score_range=(0.0, 1.0))
        kept, _, _ = threshold_filter([_pair(0)], scorer, tau=1.0)
        assert kept[0].scores["const"] == 1.0


class TestJudgeFlagging:
    def test_consistent(self):
        consistent, flagged = flag_inconsistent([JudgeRecord("a", (80, 80))], 5)
        assert consistent == ["a"] and flagged == []

    def test_flagged(self):
        consistent, flagged = flag_inconsistent([JudgeRecord("a", (60, 90))], 5)
        assert flagged == ["a"]

    def test_boundary_spread_is_consistent(self):
        consistent, flagged = flag_inconsistent([JudgeRecord("a", (70, 75))], 5)
        assert consistent == ["a"]

    def test_multi_round(self):
        consistent, flagged = flag_inconsistent(
            [JudgeRecord("a", (1, 2, 3)), JudgeRecord("b", (1, 9, 2))], 4
        )
        assert consistent == ["a"] and flagged == ["b"]

    def test_single_round_rejected(self):
        with pytest.raises(ValidationError):
            JudgeRecord("a", (80,))

    @pytest.mark.parametrize("scores", [("a", "b"), (1, None), (1, True), (1, [2])])
    def test_non_number_rounds_rejected(self, scores):
        with pytest.raises(ValidationError, match="judge scores must be numbers"):
            JudgeRecord("a", scores)


class _AlwaysPassStage:
    name = "always_pass"
    record_kind = "mono"

    def apply(self, records, jobs):
        return list(records), [], []


class TestStages:
    def test_name_and_kind_are_not_arguments(self):
        with pytest.raises(TypeError):
            LangIdStage(object(), "en", 0.5, "x", "parallel")
        with pytest.raises(TypeError):
            DedupStage(name="x")
        assert [(stage.name, stage.record_kind) for stage in
                (LangIdStage, DedupStage, PerplexityStage, QualityThresholdStage)] == [
            ("langid", "mono"), ("dedup", "mono"), ("perplexity", "mono"), ("quality_threshold", "parallel")]

    def test_stage_fields_are_their_config_keys(self):
        assert list(STAGES.items()) == [(stage.name, stage) for stage in
                                        (LangIdStage, DedupStage, PerplexityStage, QualityThresholdStage)]
        for name, stage in STAGES.items():
            extra = {"seed"} if name == "dedup" else set()  # the run's seed, not a config key
            assert {f.name for f in dataclasses.fields(stage)} == stage.FIELDS.keys() | extra

    def test_dedup_takes_every_value_from_the_stage(self):
        params = inspect.signature(dedup).parameters
        assert [name for name, param in params.items() if param.default is not param.empty] == ["jobs"]
        assert {f.name for f in dataclasses.fields(DedupStage)} == params.keys() - {"docs", "jobs"}

    @pytest.mark.parametrize("params, message", [
        (dict(shingle_n=0), "shingle width must be >= 1, got 0"),
        (dict(bands=0), "bands and rows must be >= 1, got 0x8"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(threshold=1.5), r"threshold must be in \(0, 1\], got 1.5"),
        (dict(unit="byte"), "shingle unit must be 'word' or 'char', not 'byte'"),
    ])
    def test_dedup_values_checked_when_built(self, params, message):
        with pytest.raises(ValidationError, match=message):
            DedupStage(**params)

    def test_dedup_apply_on_no_docs(self):
        assert DedupStage().apply([]) == ([], [], [])

    def test_dedup_apply_passes_every_value(self):
        # near-duplicates only as single characters at a threshold below the default
        docs = [Document(id=f"d{i}", lang="en", text=text) for i, text in enumerate(["abcde", "abcdf", "xyz"])]
        stage = DedupStage(shingle_n=1, bands=8, rows=4, threshold=0.5, unit="char", seed=3)
        kept, dropped, unscored = stage.apply(docs)
        kept_ref, dropped_ref = dedup(docs, shingle_n=1, seed=3, bands=8, rows=4, threshold=0.5, unit="char")
        assert kept == kept_ref and not unscored
        assert [(doc.id, reason, detail) for doc, reason, detail in dropped] == [
            (d.dropped_id, f"near_duplicate_of={d.kept_id}",
             {"kept_id": d.kept_id, "estimated_jaccard": d.estimated_jaccard}) for d in dropped_ref]
        assert dropped_ref


class TestPipeline:
    def test_empty_stage_list_is_identity(self):
        docs = [Document(id="d", lang="en", text="x")]
        result = run_pipeline(docs, [], "mono")
        assert result.final == docs and result.reports == []

    def test_always_pass_stage_accounting(self):
        docs = [Document(id=f"d{i}", lang="en", text=f"t {i}") for i in range(4)]
        result = run_pipeline(docs, [_AlwaysPassStage()], "mono")
        assert result.final == docs
        report = result.reports[0]
        assert (report.input_count, report.kept, report.dropped, report.unscored) == (4, 4, 0, 0)

    def test_mixed_kinds_rejected_before_processing(self):
        scorer = ScorerEndpoint("c", "local_function", "constant:1.0")
        stages = [_AlwaysPassStage(), QualityThresholdStage(scorer=scorer, tau=0.5)]
        with pytest.raises(ValidationError, match="stage 'quality_threshold' expects parallel records, not mono"):
            run_pipeline([], stages, "mono")

    def test_composition_matches_individual_stages(self):
        from mtforge.langid import train_langid
        from mtforge.ngram_lm import train_lm

        english = [Document(id=f"en{i}", lang="en", text="the cat sat on the mat") for i in range(20)]
        french = [Document(id=f"fr{i}", lang="en", text="le chat est assis la") for i in range(5)]
        dupes = [Document(id=f"dup{i}", lang="en", text="the cat sat on the mat") for i in range(3)]
        corpus = english + french + dupes

        langid_model = train_langid(
            [Document(id="ten", lang="en", text="the cat sat on the mat"),
             Document(id="tfr", lang="fr", text="le chat est assis la")]
        )
        lm = train_lm(english, order=2)
        stages = [
            LangIdStage(model=langid_model, expected="en", min_confidence=0.5),
            PerplexityStage(model=lm, mode="percentile", q=0.9),
        ]
        result = run_pipeline(corpus, stages, "mono")

        # stage-by-stage independent runs must compose to the same counts
        kept1, dropped1, _ = LangIdStage(langid_model, "en", 0.5).apply(corpus)
        kept2, dropped2, _ = PerplexityStage(lm, mode="percentile", q=0.9).apply(kept1)
        assert result.reports[0].dropped == len(dropped1)
        assert result.reports[1].input_count == len(kept1)
        assert [d.id for d in result.final] == [d.id for d in kept2]

        # accounting reconciles at every stage
        for report in result.reports:
            assert report.input_count == report.kept + report.dropped + report.unscored

    def test_result_does_not_depend_on_jobs(self, monkeypatch):
        from mtforge.langid import train_langid
        from mtforge.ngram_lm import train_lm

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # so jobs=2 forks
        rng = random.Random(5)
        words = "the cat sat on a mat and the dog ran to the big red house by the sea".split()
        english = [Document(id=f"en{i:02d}", lang="en", text=" ".join(rng.choices(words, k=12))) for i in range(40)]
        dupes = [Document(id=f"dup{i}", lang="en", text=english[i].text) for i in range(5)]
        french = [Document(id=f"fr{i}", lang="en", text=f"le chat est assis sur la table {i}") for i in range(4)]
        langid_model = train_langid([Document(id="ten", lang="en", text=" ".join(words)),
                                     Document(id="tfr", lang="fr", text="le chat est assis sur la table")])
        lm = train_lm(english[:10], order=2)

        def run(jobs):
            stages = [LangIdStage(langid_model, "en"), DedupStage(shingle_n=2, seed=1),
                      PerplexityStage(lm, mode="percentile", q=0.8)]
            return run_pipeline(english + dupes + french, stages, "mono", jobs=jobs)

        serial = run(1)
        assert [report.dropped > 0 for report in serial.reports] == [True, True, True]
        assert run(2) == serial
