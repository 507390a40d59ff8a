import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtforge.errors import ValidationError
from mtforge.rewards import (
    MAX_CONSECUTIVE,
    MIN_DISTINCT_RATIO,
    REPETITION_ORDERS,
    RewardWeights,
    TermTable,
    composite_reward,
    grpo_advantages,
    load_term_table,
    repetition_score,
    terminology_reward,
)

DATA = Path(__file__).parent / "data"

MEDICAL_SOURCE = "已知有血液疾病及尿酸性肾结石的患者不推荐使用本品，二岁以下儿童不得服用。"
GOOD_HYPOTHESIS = (
    "This product is not recommended for patients with known blood disorders or "
    "uric acid kidney stones, and it should not be taken by children under the age of two."
)
BAD_HYPOTHESIS = (
    "Patients with known blood diseases and uricidal kidney stones are not recommended "
    "for use, and children under two years of age are not allowed to take it."
)


class TestTerminologyReward:
    def test_single_term_covered(self):
        table = TermTable({"血液疾病": {"blood disorders"}})
        assert terminology_reward(MEDICAL_SOURCE, "known blood disorders here", table) == 1.0

    def test_unacceptable_rendering_scores_zero(self):
        table = TermTable({"血液疾病": {"blood disorders"}})
        assert terminology_reward(MEDICAL_SOURCE, "known blood diseases here", table) == 0.0

    def test_shipped_table_on_both_hypotheses(self):
        table = load_term_table(DATA / "terms_medical.json")
        assert terminology_reward(MEDICAL_SOURCE, GOOD_HYPOTHESIS, table) == 1.0
        assert terminology_reward(MEDICAL_SOURCE, BAD_HYPOTHESIS, table) == 0.0

    def test_vacuous_when_no_terms_apply(self):
        table = TermTable({"量子力学": {"quantum mechanics"}})
        assert terminology_reward("天气很好", "the weather is nice", table) == 1.0

    def test_partial_coverage(self):
        table = load_term_table(DATA / "terms_medical.json")
        half = "patients with blood disorders should be careful"
        assert terminology_reward(MEDICAL_SOURCE, half, table) == 0.5

    def test_case_folded_matching(self):
        table = TermTable({"血液疾病": {"Blood Disorders"}})
        assert terminology_reward(MEDICAL_SOURCE, "BLOOD DISORDERS", table) == 1.0

    def test_monotone_as_renderings_appear(self):
        table = load_term_table(DATA / "terms_medical.json")
        partial = "blood disorders"
        full = partial + " and uric acid kidney stones"
        assert terminology_reward(MEDICAL_SOURCE, full, table) >= terminology_reward(
            MEDICAL_SOURCE, partial, table
        )

    def test_empty_rendering_set_rejected(self):
        with pytest.raises(ValidationError):
            TermTable({"term": set()})

    @pytest.mark.parametrize("renderings", ["chat", 5, [5], ["chat", ""], None])
    def test_renderings_must_be_a_list_of_non_empty_strings(self, renderings):
        # a string would be split into one-character renderings
        with pytest.raises(ValidationError, match="term 'cat' needs a list of non-empty renderings"):
            TermTable({"cat": renderings})

    def test_file_error_names_the_path(self, tmp_path):
        path = tmp_path / "terms.json"
        path.write_text('{"cat": "chat"}')
        with pytest.raises(ValidationError, match=f"^{path}: term 'cat'"):
            load_term_table(path)


class TestRepetitionScore:
    def test_consecutive_run_triggers(self):
        assert repetition_score("go go go go go go") == 1.0

    def test_clean_sentence_passes(self):
        assert repetition_score("the quick brown fox jumps over the lazy dog") == 0.0

    def test_low_distinct_ratio_triggers(self):
        # 20 tokens alternating two words: 19 bigrams, 2 distinct -> 2/19 < 0.3
        text = " ".join(["ping", "pong"] * 10)
        assert repetition_score(text) == 1.0

    def test_distinct_tokens_short_text_passes(self):
        assert repetition_score("alpha beta gamma delta epsilon") == 0.0

    def test_two_repeats_not_enough(self):
        assert repetition_score("stop stop now please everyone") == 0.0

    def test_phrase_level_run(self):
        assert repetition_score("I will try I will try I will try to do it") == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            repetition_score("   ")

    def test_acceptance_style_batches(self):
        rng = np.random.default_rng(51)
        vocab = [f"tok{i}" for i in range(200)]
        repetitive = []
        for i in range(50):
            if i % 2:
                # single token looping >= 6 times gives a bigram run of >= 3
                phrase, repeats = str(rng.choice(vocab)), 6
            else:
                n = int(rng.integers(2, 5))
                phrase, repeats = " ".join(rng.choice(vocab, size=n)), 3
            filler_a = " ".join(rng.choice(vocab, size=6))
            filler_b = " ".join(rng.choice(vocab, size=6))
            repetitive.append(f"{filler_a} {' '.join([phrase] * repeats)} {filler_b}")
        assert all(repetition_score(t) == 1.0 for t in repetitive)

        clean = []
        for i in range(100):
            tokens = rng.permutation(vocab)[:12]
            clean.append(" ".join(tokens))
        assert all(repetition_score(t) == 0.0 for t in clean)


class TestUnspacedRepetition:
    """An unspaced script is scored over codepoints when its tag is given."""

    def test_degenerate_zh_flags_only_with_its_tag(self):
        assert repetition_score("好的" * 40, "zh") == 1.0
        assert repetition_score("好的" * 40) == 0.0

    @pytest.mark.parametrize("lang, pair", [("zh", "好的"), ("zh-Hant", "謝謝"), ("yue", "係咪"), ("ja", "はい"),
                                            ("th", "ครับ"), ("km", "បាទ"), ("my", "ဟုတ်"), ("bo", "ལགས")])
    def test_looping_phrase_flags_in_every_unspaced_tag(self, lang, pair):
        text = pair * 6
        assert repetition_score(text, lang) == 1.0
        assert repetition_score(text) == 0.0

    def test_clean_zh_sentence_passes(self):
        assert repetition_score("已知有血液疾病的患者应在医生指导下用药", "zh") == 0.0

    def test_spaced_tag_scores_whitespace_tokens(self):
        assert repetition_score("go go go go go go", "en") == 1.0
        assert repetition_score("好的" * 40, "en") == 0.0

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValidationError, match="^unknown language tag: 'xx'$"):
            repetition_score("go go go", "xx")


def _loop_repetition_score(text):
    """repetition_score as a while loop over each start position, the
    reference for the one-pass check."""
    tokens = text.split()
    for n in REPETITION_ORDERS:
        total = len(tokens) - n + 1
        if total < 1:
            continue
        grams = [tuple(tokens[i : i + n]) for i in range(total)]
        if len(set(grams)) / total < MIN_DISTINCT_RATIO:
            return 1.0
        for start in range(total):
            gram = tokens[start : start + n]
            run = 1
            pos = start + n
            while pos + n <= len(tokens) and tokens[pos : pos + n] == gram:
                run += 1
                if run >= MAX_CONSECUTIVE:
                    return 1.0
                pos += n
    return 0.0


@st.composite
def _token_texts(draw):
    """Texts of few distinct tokens, often with a phrase repeated in the middle."""
    words = st.lists(st.sampled_from(draw(st.sampled_from(["ab", "abc", "abcdefghij"]))), max_size=30)
    phrase = draw(st.lists(st.sampled_from("abcxyz"), min_size=1, max_size=4))
    tokens = draw(words) + phrase * draw(st.integers(0, 4)) + draw(words)
    return " ".join(tokens or ["a"])


class TestRepetitionAgainstLoop:
    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(text=_token_texts())
    def test_same_score_as_the_loop(self, text):
        assert repetition_score(text) == _loop_repetition_score(text)


class TestCompositeReward:
    def test_maximum(self):
        out = composite_reward(1, 1, 0, RewardWeights(0.5, 0.5, 1.0))
        assert out.total == 1.0

    def test_penalty_floors_at_zero(self):
        out = composite_reward(1, 1, 1, RewardWeights(0.5, 0.5, 1.0))
        assert out.total == 0.0

    def test_worked_example(self):
        out = composite_reward(0.8, 0.5, 0, RewardWeights(0.7, 0.3, 1.0))
        assert math.isclose(out.total, 0.71, abs_tol=1e-12)

    def test_components_echoed(self):
        out = composite_reward(0.4, 0.6, 0.1)
        assert (out.quality, out.terminology, out.repetition_penalty) == (0.4, 0.6, 0.1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            composite_reward(1.2, 0, 0)

    def test_degenerate_weights_rejected(self):
        with pytest.raises(ValidationError):
            RewardWeights(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("weights", [(math.inf, 0.5, 1.0), (0.5, math.nan, 1.0), (0.5, 0.5, -math.inf)])
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ValidationError, match="finite"):
            RewardWeights(*weights)


class TestGrpoAdvantages:
    def test_constant_group_is_zero(self):
        assert grpo_advantages([1.0, 1.0, 1.0, 1.0]) == [0.0, 0.0, 0.0, 0.0]

    def test_two_element_hand_value(self):
        # mean 0.5, population std 0.5
        adv = grpo_advantages([0.0, 1.0])
        assert math.isclose(adv[0], -1.0, abs_tol=2e-8)
        assert math.isclose(adv[1], 1.0, abs_tol=2e-8)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        rewards = list(rng.uniform(0, 1, size=8))
        base = grpo_advantages(rewards)
        for c in (-1.0, 0.5, 3.0):
            shifted = grpo_advantages([r + c for r in rewards])
            assert all(math.isclose(a, b, abs_tol=1e-9) for a, b in zip(base, shifted))

    def test_statistical_properties_over_random_groups(self):
        rng = np.random.default_rng(90)
        for _ in range(1000):
            size = int(rng.integers(2, 17))
            rewards = rng.uniform(0, 1, size=size)
            # epsilon (1e-8) perturbs the unit-std property when the group
            # spread is itself epsilon-scale; require a non-degenerate group
            while rewards.std() < 1e-2:
                rewards = rng.uniform(0, 1, size=size)
            adv = np.array(grpo_advantages(list(rewards)))
            assert abs(adv.sum()) <= 1e-9
            assert abs(adv.std() - 1.0) <= 1e-6
            assert int(np.argmax(adv)) == int(np.argmax(rewards))

    def test_group_too_small(self):
        with pytest.raises(ValidationError):
            grpo_advantages([1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            grpo_advantages([1.0, float("nan")])

    @pytest.mark.parametrize("rewards", [["a", "b"], [1.0, None], [True, False], [1.0, [2.0]]])
    def test_non_numbers_rejected(self, rewards):
        with pytest.raises(ValidationError, match="rewards must be finite numbers"):
            grpo_advantages(rewards)
