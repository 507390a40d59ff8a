import random
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from mtforge.backends import BackendSpec, GenerationParams, register_mock_backend
from mtforge.chimera import (
    FALLBACK_ITEM_FIELDS,
    CandidateSet,
    clean_generation,
    default_grid,
    fuse,
    generate_candidates,
    render_fusion_prompt,
    render_translation_prompt,
)
from mtforge.errors import OrchestrationError, ValidationError
from mtforge.scorers import ScorerEndpoint, register_scorer

from fusion_prompt import parse_fusion_prompt

GOLDENS = Path(__file__).parent / "goldens"


def _mock_backend(name):
    return BackendSpec(name=name, endpoint=f"mock:{name}", model_id="test-model")


@pytest.fixture
def pool():
    with ThreadPoolExecutor(max_workers=2) as executor:
        yield executor


class TestTranslationPrompt:
    def test_zh_to_en_matches_golden(self):
        expected = (GOLDENS / "translation_zh_to_en.txt").read_bytes()
        got = render_translation_prompt("zh", "en", "你好").encode("utf-8")
        assert got == expected

    def test_fr_to_de_matches_golden(self):
        expected = (GOLDENS / "translation_fr_to_de.txt").read_bytes()
        got = render_translation_prompt("fr", "de", "Bonjour").encode("utf-8")
        assert got == expected

    def test_zh_to_zh_hant_matches_golden(self):
        expected = (GOLDENS / "translation_zh_to_zhhant.txt").read_bytes()
        got = render_translation_prompt("zh", "zh-Hant", "软件很好用").encode("utf-8")
        assert got == expected

    def test_sinitic_target_selects_chinese_template(self):
        assert render_translation_prompt("en", "yue", "hi").startswith("把下面的文本翻译成粤语")

    def test_source_appears_exactly_once(self):
        text = "a perfectly unique sentence marker"
        prompt = render_translation_prompt("en", "fr", text)
        assert prompt.count(text) == 1

    def test_same_pair_rejected(self):
        with pytest.raises(ValidationError):
            render_translation_prompt("en", "en", "x")


class TestFusionPrompt:
    def test_n6_matches_golden(self):
        candidates = [
            "But he may not be able to attend.",
            "However, he might not make it.",
            "But he is not certain to be present.",
            "But he may not necessarily show up.",
            "However, he may not be able to come.",
            "But there is no guarantee he will attend.",
        ]
        got = render_fusion_prompt("zh", "en", "但他不一定能到场。", candidates).encode("utf-8")
        assert got == (GOLDENS / "fusion_n6.txt").read_bytes()

    def test_n2_stops_at_two(self):
        prompt = render_fusion_prompt("en", "fr", "hello", ["salut", "bonjour"])
        assert "2. " in prompt and "3. " not in prompt

    def test_fewer_than_two_rejected(self):
        with pytest.raises(ValidationError):
            render_fusion_prompt("en", "fr", "hello", ["salut"])

    def test_round_trip_simple(self):
        src_text = "多行\n源文本"
        candidates = ["first output", "second\noutput"]
        src, tgt, source, got = parse_fusion_prompt(
            render_fusion_prompt("zh", "en", src_text, candidates)
        )
        assert (src, tgt) == ("Chinese", "English")
        assert source == src_text
        assert got == candidates

    def test_round_trip_backtick_torture(self):
        cases = [
            ["`", "``"],
            ["```", "````x````"],
            ["starts ` mid", "ends with `"],
            [" leading space", "trailing space "],
            ["", "empty first"],
            ["a\n1. ```fake item```", "newline ` mix\n2. ``` x"],
        ]
        for candidates in cases:
            prompt = render_fusion_prompt("en", "de", "src `` text", candidates)
            _, _, source, got = parse_fusion_prompt(prompt)
            assert source == "src `` text"
            assert got == candidates, candidates

    def test_round_trip_random_candidate_sets(self):
        rng = random.Random(42)
        alphabet = "ab `\n`xyz汉字éü.!？"
        for _ in range(200):
            n = rng.randint(2, 7)
            candidates = [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
                for _ in range(n)
            ]
            source = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
            src, tgt, got_source, got = parse_fusion_prompt(
                render_fusion_prompt("ja", "ko", source, candidates)
            )
            assert got_source == source
            assert got == candidates


class TestCleanGeneration:
    def test_trims_whitespace(self):
        assert clean_generation("  hello \n") == "hello"

    def test_strips_plain_fence(self):
        assert clean_generation("```\ntranslated text\n```") == "translated text"

    def test_strips_labeled_fence(self):
        assert clean_generation("```text\nhola\n```") == "hola"

    def test_inline_fence(self):
        assert clean_generation("```hola```") == "hola"

    def test_plain_text_untouched(self):
        assert clean_generation("plain response") == "plain response"


class TestGenerateCandidates:
    def test_default_grid_has_six_entries(self):
        assert len(default_grid()) == 6

    def test_mock_backend_in_grid_order(self, pool):
        seen = []

        def recorder(prompt, params, model_id):
            return f"out-T{params.temperature:g}-s{params.seed}"

        register_mock_backend("recorder", recorder)
        cs = generate_candidates(_mock_backend("recorder"), "zh", "en", "你好", default_grid(), pool)
        assert len(cs.candidates) == 6
        grid = default_grid()
        assert list(cs.candidates) == [f"out-T{p.temperature:g}-s{p.seed}" for p in grid]
        assert cs.params_used == tuple(grid)

    def test_partial_failures_shrink_set(self, pool):
        def flaky(prompt, params, model_id):
            if params.seed in (2, 5):
                from mtforge.backends import BackendFailure

                raise BackendFailure("down")
            return f"ok-{params.seed}"

        register_mock_backend("flaky", flaky)
        cs = generate_candidates(_mock_backend("flaky"), "zh", "en", "你好", default_grid(), pool)
        assert len(cs.candidates) == 4
        assert [p.seed for p in cs.params_used] == [1, 3, 4, 6]
        assert sorted(f.index for f in cs.failures) == [1, 4]

    def test_empty_completions_count_as_failures(self, pool):
        def sometimes_empty(prompt, params, model_id):
            return "" if params.seed == 1 else f"ok-{params.seed}"

        register_mock_backend("sometimes_empty", sometimes_empty)
        cs = generate_candidates(_mock_backend("sometimes_empty"), "zh", "en", "你好", default_grid(), pool)
        assert len(cs.candidates) == 5

    def test_all_failed_is_orchestration_error(self, pool):
        with pytest.raises(OrchestrationError):
            generate_candidates(_mock_backend("fail"), "zh", "en", "你好", default_grid(), pool)

    def test_per_slot_backend_override(self, pool):
        register_mock_backend("alt", lambda p, params, m: f"alt-{params.seed}")
        register_mock_backend("main", lambda p, params, m: f"main-{params.seed}")
        grid = default_grid()
        per_slot = [None] * 6
        per_slot[2] = _mock_backend("alt")
        cs = generate_candidates(
            _mock_backend("main"), "zh", "en", "你好", grid=grid, pool=pool, per_slot_backends=per_slot
        )
        assert cs.candidates[2] == "alt-3"
        assert cs.candidates[0] == "main-1"

    def test_candidate_set_needs_two(self):
        with pytest.raises(ValidationError):
            CandidateSet("s", "zh", "en", ("one",), (GenerationParams(),))


def _candidate_set():
    return CandidateSet(
        source_text="你好",
        src_lang="zh",
        tgt_lang="en",
        candidates=("hello there", "hi world", "greetings"),
        params_used=tuple(default_grid()[:3]),
    )


class TestFuse:
    def test_successful_fusion(self, pool):
        register_mock_backend("fuser", lambda p, params, m: "the fused output")
        result = fuse(_mock_backend("fuser"), _candidate_set(), pool)
        assert result.fused_text == "the fused output"
        assert result.fallback_used is False

    def test_failed_fusion_with_scorer_picks_argmax(self, pool):
        scores = {"hello there": 0.3, "hi world": 0.9, "greetings": 0.5}
        register_scorer("table", lambda item: scores[item["hypothesis"]])
        scorer = ScorerEndpoint("table", "local_function", "table")
        result = fuse(_mock_backend("fail"), _candidate_set(), pool, fallback_scorer=scorer)
        assert result.fused_text == "hi world"
        assert result.fallback_used is True
        assert result.candidate_scores == (0.3, 0.9, 0.5)

    def test_failed_fusion_without_scorer_takes_first(self, pool):
        result = fuse(_mock_backend("fail"), _candidate_set(), pool)
        assert result.fused_text == "hello there"
        assert result.fallback_used is True

    def test_empty_fusion_output_falls_back(self, pool):
        register_mock_backend("empty", lambda p, params, m: "   ")
        result = fuse(_mock_backend("empty"), _candidate_set(), pool)
        assert result.fallback_used is True
        assert result.fused_text == "hello there"

    def test_fallback_result_is_a_candidate(self, pool):
        result = fuse(_mock_backend("fail"), _candidate_set(), pool)
        assert result.fused_text in _candidate_set().candidates

    def test_fallback_tie_takes_lowest_index(self, pool):
        scorer = ScorerEndpoint("c", "local_function", "constant:0.5")
        result = fuse(_mock_backend("fail"), _candidate_set(), pool, fallback_scorer=scorer)
        assert result.fused_text == "hello there"
        assert result.candidate_scores == (0.5, 0.5, 0.5)

    def test_fallback_items_carry_the_declared_fields(self, pool):
        seen = []
        register_scorer("fallback_spy", lambda item: seen.append(item) or 0.5, fields=FALLBACK_ITEM_FIELDS)
        scorer = ScorerEndpoint("spy", "local_function", "fallback_spy")
        scorer.check_item_fields(FALLBACK_ITEM_FIELDS)
        fuse(_mock_backend("fail"), _candidate_set(), pool, fallback_scorer=scorer)
        assert seen == [{"source": "你好", "hypothesis": c} for c in _candidate_set().candidates]

    def test_fallback_scorer_failing_everywhere_takes_first(self, pool):
        register_scorer("unscored", lambda item: None)
        scorer = ScorerEndpoint("unscored", "local_function", "unscored")
        result = fuse(_mock_backend("fail"), _candidate_set(), pool, fallback_scorer=scorer)
        assert result.fused_text == "hello there"
        assert result.fallback_used is True
        assert result.candidate_scores is None


class TestRequestPool:
    """Requests run on the pool a caller passes in, and nowhere else."""

    def _threads_backend(self, name, reply=lambda params: f"out-{params.seed}"):
        threads = set()

        def record(prompt, params, model_id):
            threads.add(threading.current_thread().name)
            return reply(params)

        register_mock_backend(name, record)
        return threads

    def test_candidates_in_grid_order_on_pool(self):
        threads = self._threads_backend("pooled")
        with ThreadPoolExecutor(max_workers=3, thread_name_prefix="req") as pool:
            cs = generate_candidates(_mock_backend("pooled"), "zh", "en", "你好", default_grid(), pool)
        assert list(cs.candidates) == [f"out-{p.seed}" for p in default_grid()]
        assert threads and all(name.startswith("req") for name in threads)

    def test_fusion_and_fallback_scoring_run_on_pool(self):
        threads = self._threads_backend("pooled_fail", reply=lambda params: "")
        scoring = set()
        register_scorer("pooled_len", lambda item: scoring.add(threading.current_thread().name) or 0.5)
        scorer = ScorerEndpoint("pooled_len", "local_function", "pooled_len")
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="req") as pool:
            result = fuse(_mock_backend("pooled_fail"), _candidate_set(), pool, fallback_scorer=scorer)
        assert result.fallback_used is True and result.fused_text == "hello there"
        assert threads == scoring == {"req_0"}


