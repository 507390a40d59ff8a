import math
import random
from collections import Counter

import pytest

from mtforge.corpus import DirectionGroup, ParallelPair
from mtforge.errors import ValidationError
from mtforge.evalkit import SCORE_ITEM_FIELDS, chrf, group_report, score_corpus
from mtforge.scorers import ScorerEndpoint, register_scorer

CHRF = ScorerEndpoint("chrf", "local_function", "chrf")


def chrf_oracle(hypothesis, reference, max_n=6, beta=2.0):
    """Brute-force recount straight from the definition: enumerate substrings
    as lists, count clipped matches with list.count, average F over orders."""
    hyp = "".join(hypothesis.split())
    ref = "".join(reference.split())
    fs = []
    for n in range(1, max_n + 1):
        hyp_grams = [hyp[i : i + n] for i in range(len(hyp) - n + 1)]
        ref_grams = [ref[i : i + n] for i in range(len(ref) - n + 1)]
        if not hyp_grams and not ref_grams:
            continue
        matched = 0
        for gram in set(hyp_grams):
            matched += min(hyp_grams.count(gram), ref_grams.count(gram))
        precision = matched / len(hyp_grams) if hyp_grams else 0.0
        recall = matched / len(ref_grams) if ref_grams else 0.0
        if precision + recall == 0:
            fs.append(0.0)
        else:
            fs.append((1 + beta**2) * precision * recall / (beta**2 * precision + recall))
    return 100.0 * sum(fs) / len(fs) if fs else 0.0


def chrf_slice_reference(hypothesis, reference, max_n=6, beta=2.0):
    """chrF over slice-built Counters, the implementation the incremental
    n-gram levels replaced; kept to require bit-identical scores."""
    ref = "".join(reference.split())
    hyp = "".join(hypothesis.split())
    beta_sq = beta * beta
    f_scores = []
    for n in range(1, max_n + 1):
        hyp_grams = Counter(hyp[i : i + n] for i in range(len(hyp) - n + 1))
        ref_grams = Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
        hyp_total = sum(hyp_grams.values())
        ref_total = sum(ref_grams.values())
        if hyp_total == 0 and ref_total == 0:
            continue
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


class TestChrf:
    def test_identity_is_100(self):
        assert chrf("the same string", "the same string") == 100.0

    def test_zero_overlap_is_0(self):
        assert chrf("aaaa", "bbbb") == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValidationError):
            chrf("x", "   ")

    def test_spaces_removed_before_counting(self):
        assert chrf("ab cd", "abcd") == 100.0

    def test_mixed_whitespace_scores_unchanged(self):
        # tabs, newlines, an ideographic space, U+001F and NEL are all removed,
        # as str.split() removes them; the values are those of the plain
        # "".join(text.split()) strip
        hyp = "the  cat\tsat on\u3000a\nmat\x1f\x85"
        ref = "the cat sat on the mat"
        assert (chrf(hyp, ref), chrf(ref, hyp)) == (65.97613331732558, 72.08020590176027)
        assert chrf(hyp, ref) == chrf("".join(hyp.split()), "".join(ref.split()))

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(1234)
        alphabet = "abcde ABC漢字áé!"
        for _ in range(50):
            hyp = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
            ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
            if not ref.strip():
                ref = "x"
            assert math.isclose(chrf(hyp, ref), chrf_oracle(hyp, ref), abs_tol=1e-6), (hyp, ref)

    @pytest.mark.parametrize("longest", [4, 10, 28])
    def test_bit_identical_to_slice_reference(self, longest):
        rng = random.Random(f"chrf{longest}")
        alphabet = "abab cd ABC漢字áé!"
        for _ in range(200):
            # lengths from 0 to `longest`, below and past order 6, so some
            # sides have no n-grams at the top orders
            hyp = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, longest)))
            ref = "x" + "".join(rng.choice(alphabet) for _ in range(rng.randint(0, longest)))
            assert chrf(hyp, ref) == chrf_slice_reference(hyp, ref), (hyp, ref)

    def test_identity_100_on_random_unicode(self):
        rng = random.Random(77)
        for _ in range(100):
            length = rng.randint(1, 30)
            s = "".join(chr(rng.randint(0x21, 0x9FFF)) for _ in range(length))
            assert chrf(s, s) == 100.0

    def test_recall_weighted(self):
        # hypothesis covering all of a short reference plus noise keeps
        # recall 1 at every order; beta=2 weighting favors it over the
        # reverse (full precision, low recall)
        ref = "abcd"
        hyp = "abcdxyzw"
        assert chrf(hyp, ref) > chrf(ref, hyp) or math.isclose(
            chrf_oracle(hyp, ref), chrf(hyp, ref), abs_tol=1e-9
        )
        assert math.isclose(chrf(hyp, ref), chrf_oracle(hyp, ref), abs_tol=1e-9)
        assert math.isclose(chrf(ref, hyp), chrf_oracle(ref, hyp), abs_tol=1e-9)


def _pair(i, src="en", tgt="fr", reference="bonjour le monde"):
    return ParallelPair(
        id=f"p{i}", src_lang=src, tgt_lang=tgt, src_text="hello world", tgt_text=reference
    )


class TestScoreCorpus:
    def test_empty_corpus(self):
        scored, failures = score_corpus([], {}, CHRF)
        assert scored == [] and failures == []

    def test_constant_scorer(self):
        pairs = [_pair(i) for i in range(10)]
        hyps = {p.id: "whatever" for p in pairs}
        scorer = ScorerEndpoint("const", "local_function", "constant:0.7")
        scored, failures = score_corpus(pairs, hyps, scorer)
        assert len(scored) == 10 and not failures
        assert all(p.scores == {"const": 0.7} for p in scored)
        assert [p.id for p in scored] == [p.id for p in pairs]

    def test_chrf_perfect_hypotheses(self):
        pairs = [_pair(i) for i in range(5)]
        hyps = {p.id: p.tgt_text for p in pairs}
        scored, _ = score_corpus(pairs, hyps, CHRF)
        assert all(p.scores["chrf"] == 100.0 for p in scored)

    def test_chrf_scorer_matches_chrf(self):
        pairs = [_pair(i, reference=ref) for i, ref in enumerate(["bonjour le monde", "abcd", "le chat"])]
        hyps = {"p0": "bonjour monde", "p1": "zzzz", "p2": "le chien"}
        scored, _ = score_corpus(pairs, hyps, CHRF)
        assert [p.scores["chrf"] for p in scored] == [chrf(hyps[p.id], p.tgt_text) for p in pairs]

    def test_items_carry_the_declared_fields(self):
        seen = []
        register_scorer("eval_spy", lambda item: seen.append(item) or 1.0, fields=SCORE_ITEM_FIELDS)
        scorer = ScorerEndpoint("spy", "local_function", "eval_spy")
        scorer.check_item_fields(SCORE_ITEM_FIELDS)
        score_corpus([_pair(0)], {"p0": "salut"}, scorer)
        assert seen == [{"source": "hello world", "hypothesis": "salut", "reference": "bonjour le monde"}]

    def test_missing_hypothesis_rejected(self):
        pairs = [_pair(0)]
        with pytest.raises(ValidationError):
            score_corpus(pairs, {}, CHRF)

    def test_failures_bucketed(self):
        def half_fail(item):
            return None if item["hypothesis"] == "bad" else 0.5

        register_scorer("half_fail", half_fail)
        scorer = ScorerEndpoint("half_fail", "local_function", "half_fail")
        pairs = [_pair(0), _pair(1)]
        hyps = {"p0": "ok", "p1": "bad"}
        scored, failures = score_corpus(pairs, hyps, scorer)
        assert [p.id for p in scored] == ["p0"]
        assert failures == [pairs[1]]


class TestGroupReport:
    def test_single_group_overall_equals_group(self):
        pairs = [_pair(i, "zh", "fr") for i in range(4)]
        hyps = {p.id: p.tgt_text for p in pairs}
        scored, _ = score_corpus(pairs, hyps, CHRF)
        report = group_report(scored, "chrf")
        assert set(report.per_group) == {DirectionGroup.ZH_TO_XX}
        assert report.overall == report.per_group[DirectionGroup.ZH_TO_XX]

    def test_two_equal_groups_average(self):
        a = [_pair(i, "zh", "fr", reference="aaaa") for i in range(3)]
        b = [_pair(i + 10, "fr", "de", reference="aaaa") for i in range(3)]
        hyps = {p.id: ("aaaa" if p.src_lang == "zh" else "bbbb") for p in a + b}
        scored, _ = score_corpus(a + b, hyps, CHRF)
        report = group_report(scored, "chrf")
        mean_a = report.per_group[DirectionGroup.ZH_TO_XX].mean
        mean_b = report.per_group[DirectionGroup.XX_TO_XX].mean
        assert math.isclose(report.overall.mean, (mean_a + mean_b) / 2, abs_tol=1e-9)

    def test_planted_five_group_counts(self):
        plan = {
            DirectionGroup.ZH_TO_XX: ("zh", "fr", 3),
            DirectionGroup.XX_TO_ZH: ("de", "zh", 4),
            DirectionGroup.EN_TO_XX: ("en", "fr", 5),
            DirectionGroup.XX_TO_EN: ("ja", "en", 6),
            DirectionGroup.XX_TO_XX: ("ko", "th", 7),
        }
        pairs = []
        for group, (src, tgt, count) in plan.items():
            pairs += [_pair(f"{group.value}{i}", src, tgt) for i in range(count)]
        hyps = {p.id: p.tgt_text for p in pairs}
        scored, _ = score_corpus(pairs, hyps, CHRF)
        report = group_report(scored, "chrf")
        for group, (_, _, count) in plan.items():
            assert report.per_group[group].count == count
        assert report.overall.count == sum(c for _, _, c in plan.values())
        assert report.overall.count == sum(s.count for s in report.per_group.values())

    def test_mixed_metrics_rejected(self):
        pairs = [_pair(0), _pair(1)]
        hyps = {p.id: p.tgt_text for p in pairs}
        chrf_scored, _ = score_corpus(pairs[:1], hyps, CHRF)
        const_scored, _ = score_corpus(
            pairs[1:], hyps, ScorerEndpoint("other", "local_function", "constant:0.5")
        )
        assert group_report(chrf_scored, "chrf").overall.count == 1
        with pytest.raises(ValidationError, match=r"no 'chrf' score for ids: \['p1'\]"):
            group_report(chrf_scored + const_scored, "chrf")

    def test_report_reads_the_pairs_scores(self):
        pairs = [ParallelPair(f"p{i}", "en", "fr", "hi", "salut", scores={"qe": v})
                 for i, v in enumerate([0.25, 0.75])]
        report = group_report(pairs, "qe")
        assert report.metric_name == "qe"
        assert report.overall == report.per_group[DirectionGroup.EN_TO_XX]
        assert (report.overall.mean, report.overall.count) == (0.5, 2)

    def test_macro_weighs_language_pairs_equally(self):
        # 9 perfect fr->de segments and 1 zero-overlap ko->th segment
        fr = [_pair(i, "fr", "de", reference="abcd") for i in range(9)]
        ko = [_pair(99, "ko", "th", reference="abcd")]
        hyps = {p.id: "abcd" for p in fr}
        hyps["p99"] = "zzzz"
        scored, _ = score_corpus(fr + ko, hyps, CHRF)
        micro = group_report(scored, "chrf", "micro")
        macro = group_report(scored, "chrf", "macro")
        assert math.isclose(micro.overall.mean, 90.0, abs_tol=1e-9)
        assert math.isclose(macro.overall.mean, 50.0, abs_tol=1e-9)
