import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtforge.ngram_lm
from mtforge.corpus import Document, segment_tokens
from mtforge.errors import ValidationError
from mtforge.filters import PerplexityStage
from mtforge.ngram_lm import (
    BOS,
    EOS,
    UNK,
    load_lm,
    log_prob,
    perplexity,
    save_lm,
    train_lm,
)

from ngram_probs import prob, seen_contexts


def _docs(texts, lang="en"):
    return [Document(id=f"d{i}", lang=lang, text=t) for i, t in enumerate(texts)]


# Hand-derived interpolated Kneser-Ney value for the 4-token toy corpus
# {"the cat", "the dog"}, order 2, discount 0.75, frozen before implementation:
#   top level:  max(1-0.75,0)/2 = 0.125; lambda(the) = 0.75*2/2 = 0.75
#   unigram continuation: 5 distinct bigrams; N1+(.cat)=1; 4 continuation types;
#     prediction vocab {the,cat,dog,</s>,<unk>} has 5 entries
#     P_cont(cat) = 0.25/5 + (0.75*4/5)*(1/5) = 0.05 + 0.12 = 0.17
#   P(cat|the) = 0.125 + 0.75*0.17 = 0.2525
HAND_P_CAT_GIVEN_THE = 0.2525


class TestTraining:
    def test_toy_bigram_matches_hand_oracle(self):
        lm = train_lm(_docs(["the cat", "the dog"]), order=2, discount=0.75)
        assert math.isclose(prob(lm, "cat", ("the",)), HAND_P_CAT_GIVEN_THE, abs_tol=1e-9)
        assert math.isclose(prob(lm, "dog", ("the",)), HAND_P_CAT_GIVEN_THE, abs_tol=1e-9)

    def test_unigram_model_has_unk_mass(self):
        lm = train_lm(_docs(["a a a"]), order=1, discount=0.75)
        assert prob(lm, "a") > prob(lm, UNK) > 0

    def test_normalization_at_seen_contexts(self):
        lm = train_lm(
            _docs(["the cat sat on the mat", "a dog sat on a log", "the dog ate the bone"]),
            order=3,
            discount=0.75,
        )
        for ctx in seen_contexts(lm):
            total = sum(prob(lm, w, ctx) for w in lm.vocab)
            assert math.isclose(total, 1.0, abs_tol=1e-9), ctx

    def test_normalization_at_unseen_contexts(self):
        lm = train_lm(_docs(["the cat sat", "a dog ran"]), order=3, discount=0.75)
        rng = random.Random(5)
        words = sorted(lm.vocab)
        for _ in range(25):
            ctx = (rng.choice(words + ["zzz"]), rng.choice(words + ["qqq"]))
            total = sum(prob(lm, w, ctx) for w in lm.vocab)
            assert math.isclose(total, 1.0, abs_tol=1e-9), ctx

    def test_min_count_maps_rare_tokens(self):
        lm = train_lm(_docs(["common common common rare"]), order=1, min_count=2)
        assert UNK in lm.vocab
        assert "rare" not in lm.vocab

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            train_lm([])
        with pytest.raises(ValidationError):
            train_lm(_docs(["x"]), discount=1.0)
        with pytest.raises(ValidationError):
            train_lm(_docs(["x"]), order=0)

    def test_codepoint_tokenization_for_zh(self):
        lm = train_lm(_docs(["你好世界"], lang="zh"), order=2)
        assert "你" in lm.vocab and "好" in lm.vocab


class TestScoring:
    def test_degenerate_one_token_model_finite(self):
        lm = train_lm(_docs(["a"]), order=1, discount=0.75)
        assert math.isfinite(log_prob(lm, "a"))

    def test_permutation_sensitive(self):
        lm = train_lm(_docs(["a b", "a b", "a c"]), order=2, discount=0.75)
        assert log_prob(lm, "a b") != log_prob(lm, "b a")

    def test_appending_token_never_increases_log_prob(self):
        lm = train_lm(_docs(["a b c d", "b c d a"]), order=2, discount=0.75)
        assert log_prob(lm, "a b c") <= log_prob(lm, "a b")

    def test_ppl_at_least_one(self):
        lm = train_lm(_docs(["x y z"]), order=2, discount=0.75)
        for text in ("x", "x y", "z z z", "unknown words here"):
            assert perplexity(lm, text) >= 1.0

    def test_uniform_model_ppl_equals_vocab_size(self):
        # 4 equally frequent outcomes {a, b, c, EOS}; discount 0 gives pure ML
        # with zero unknown-token mass
        lm = train_lm(_docs(["a b c"] * 5), order=1, discount=0.0)
        assert prob(lm, UNK) == 0.0
        for text in ("a b c", "c a", "b b b b"):
            assert math.isclose(perplexity(lm, text), 4.0, abs_tol=1e-9)

    def test_training_sentence_beats_shuffled_alphabet(self):
        lm = train_lm(_docs(["the cat sat on the mat"] * 3), order=2, discount=0.75)
        assert perplexity(lm, "the cat sat") <= perplexity(lm, "mat the on")

    def test_empty_text_rejected(self):
        lm = train_lm(_docs(["a b"]), order=1)
        with pytest.raises(ValidationError):
            perplexity(lm, "   ")

    def test_order1_matches_direct_unigram_computation(self):
        texts = ["a b a c", "b b a"]
        lm = train_lm(_docs(texts), order=1, discount=0.75)
        # direct absolute-discount unigram computation
        from collections import Counter

        counts = Counter()
        for t in texts:
            counts.update(t.split())
            counts[EOS] += 1
        total = sum(counts.values())
        vocab_size = len(set(counts) | {UNK})
        d = 0.75

        def direct(word):
            c = counts.get(word, 0)
            return max(c - d, 0) / total + d * len(counts) / total / vocab_size

        for w in ("a", "b", "c", EOS, UNK):
            assert math.isclose(prob(lm, w), direct(w), abs_tol=1e-12)
        ref = math.exp(-sum(math.log(direct(w)) for w in ["a", "b", EOS]) / 3)
        assert math.isclose(perplexity(lm, "a b"), ref, abs_tol=1e-9)


class TestPerplexityFilter:
    def _natural_and_gibberish(self):
        rng = random.Random(17)
        vocab = [f"word{i}" for i in range(30)]
        # natural: markov-ish bigram repetition of a fixed phrase bank
        phrases = [
            "the quick brown fox jumps over the lazy dog",
            "a stitch in time saves nine every single day",
            "practice makes perfect when the work is steady",
        ]
        natural = [
            Document(id=f"n{i}", lang="en", text=phrases[i % len(phrases)]) for i in range(90)
        ]
        gibberish = [
            Document(id=f"g{i}", lang="en", text=" ".join(rng.choice(vocab) for _ in range(9)))
            for i in range(10)
        ]
        return natural, gibberish

    def test_planted_gibberish_dropped_at_percentile(self):
        natural, gibberish = self._natural_and_gibberish()
        lm = train_lm(natural, order=3, discount=0.75)
        kept, dropped, _ = PerplexityStage(lm, mode="percentile", q=0.9).apply(natural + gibberish)
        dropped_ids = {doc.id for doc, _, _ in dropped}
        assert sum(1 for g in gibberish if g.id in dropped_ids) >= 9

    def test_absolute_infinite_threshold_keeps_all(self):
        natural, gibberish = self._natural_and_gibberish()
        lm = train_lm(natural, order=2)
        docs = natural + gibberish
        kept, dropped, _ = PerplexityStage(lm, mode="absolute", max_ppl=math.inf).apply(docs)
        assert len(kept) == len(docs) and not dropped

    def test_percentile_one_keeps_all(self):
        natural, _ = self._natural_and_gibberish()
        lm = train_lm(natural, order=2)
        kept, dropped, _ = PerplexityStage(lm, mode="percentile", q=1.0).apply(natural)
        assert len(kept) == len(natural) and not dropped

    def test_dropped_carry_perplexities(self):
        natural, gibberish = self._natural_and_gibberish()
        lm = train_lm(natural, order=2)
        _, dropped, _ = PerplexityStage(lm, mode="percentile", q=0.5).apply(natural + gibberish)
        for doc, reason, detail in dropped:
            assert reason == "high_perplexity"
            assert math.isclose(detail["perplexity"], perplexity(lm, doc.text, doc.lang), rel_tol=1e-12)

    def test_one_perplexity_call_per_document(self, monkeypatch):
        # the benchmark times scoring by wrapping perplexity at module level
        natural, gibberish = self._natural_and_gibberish()
        lm = train_lm(natural, order=2)
        calls = []
        real = mtforge.ngram_lm.perplexity

        def counting(lm, text, lang=None):
            calls.append(text)
            return real(lm, text, lang)

        monkeypatch.setattr(mtforge.ngram_lm, "perplexity", counting)
        PerplexityStage(lm, mode="percentile", q=0.5).apply(natural + gibberish)
        assert calls == [d.text for d in natural + gibberish]

    def test_bad_thresholds_rejected(self):
        lm = train_lm(_docs(["a b"]), order=1)
        with pytest.raises(ValidationError, match="absolute mode requires max_ppl > 1"):
            PerplexityStage(lm, mode="absolute", max_ppl=0.5)
        with pytest.raises(ValidationError, match="absolute mode requires max_ppl > 1"):
            PerplexityStage(lm, mode="absolute", max_ppl=math.nan)
        with pytest.raises(ValidationError, match=r"percentile mode requires q in \(0, 1\]"):
            PerplexityStage(lm, mode="percentile", q=0.0)
        with pytest.raises(ValidationError, match="mode must be 'absolute' or 'percentile', not 'median'"):
            PerplexityStage(lm, mode="median")


class TestSerialization:
    def test_round_trip_probabilities(self, tmp_path):
        lm = train_lm(
            _docs(["the cat sat on the mat", "the dog sat on a log"]), order=3, discount=0.75
        )
        path = tmp_path / "lm.txt"
        save_lm(lm, path)
        loaded = load_lm(path)
        assert loaded.vocab == lm.vocab
        assert loaded.counts == lm.counts
        for text in ("the cat", "a dog sat", "unseen tokens entirely"):
            assert math.isclose(log_prob(loaded, text), log_prob(lm, text), abs_tol=1e-12)

    def test_header_is_json_and_rows_sorted(self, tmp_path):
        import json

        lm = train_lm(_docs(["b a", "a b"]), order=2)
        path = tmp_path / "lm.txt"
        save_lm(lm, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["order"] == 2
        body = lines[1:]
        assert body == sorted(body, key=lambda row: (int(row.split("\t")[0]), row.split("\t")[1]))

    def test_crlf_file_loads_the_same_model(self, tmp_path):
        lm = train_lm(_docs(["the cat sat", "the dog sat"]), order=2)
        path = tmp_path / "lm.txt"
        save_lm(lm, path)
        data = path.read_bytes()
        assert b"\r" not in data  # save_lm ends each line in LF alone
        path.write_bytes(data.replace(b"\n", b"\r\n"))
        loaded = load_lm(path)
        assert (loaded.counts, loaded.vocab, loaded.default_lang) == (lm.counts, lm.vocab, lm.default_lang)


# -- exact reference: nested context -> {word: count} tables and a recursive
# interpolation, as the model was written before its flat tables ----------


def _reference_counts(corpus, order, min_count):
    tokenized = [segment_tokens(doc.text, doc.lang) for doc in corpus]
    raw_freq = Counter()
    for tokens in tokenized:
        raw_freq.update(tokens)
    keep = {t for t, c in raw_freq.items() if c >= min_count}
    counts = {k: {} for k in range(1, order + 1)}
    for tokens in tokenized:
        padded = [BOS] * (order - 1) + [t if t in keep else UNK for t in tokens] + [EOS]
        for k in range(1, order + 1):
            table = counts[k]
            for i in range(len(padded) - k + 1):
                if padded[i + k - 1] == BOS:
                    continue
                ctx = tuple(padded[i : i + k - 1])
                word = padded[i + k - 1]
                table.setdefault(ctx, {})[word] = table.get(ctx, {}).get(word, 0) + 1
    return counts


class _ReferenceLm:
    def __init__(self, order, discount, counts):
        self.order, self.discount = order, discount
        self._levels = [None]
        for k in range(1, order):
            table = {}
            for ctx, words in counts[k + 1].items():
                for word in words:
                    table.setdefault(ctx[1:], Counter())[word] += 1
            self._levels.append((table, {ctx: sum(c.values()) for ctx, c in table.items()}))
        top = counts[order]
        self._levels.append((top, {ctx: sum(words.values()) for ctx, words in top.items()}))
        self.vocab = frozenset(set(counts[1].get((), {})) - {BOS} | {UNK, EOS})

    def _interpolate(self, word, context, k):
        if k == 0:
            return 1.0 / len(self.vocab)
        tables, totals = self._levels[k]
        table = tables.get(context)
        if not table:
            return self._interpolate(word, context[1:], k - 1)
        total = totals[context]
        top = max(table.get(word, 0) - self.discount, 0.0) / total
        lam = self.discount * len(table) / total
        return top + lam * self._interpolate(word, context[1:], k - 1)

    def prob(self, word, context=()):
        word = word if word in self.vocab else UNK
        ctx = tuple(t if t in self.vocab or t == BOS else UNK for t in context)
        ctx = ctx[max(0, len(ctx) - (self.order - 1)) :]
        if len(ctx) < self.order - 1:
            ctx = (BOS,) * (self.order - 1 - len(ctx)) + ctx
        return self._interpolate(word, ctx, self.order)

    def log_prob(self, tokens):
        padded = [BOS] * (self.order - 1) + [t if t in self.vocab else UNK for t in tokens] + [EOS]
        total = 0.0
        for i in range(self.order - 1, len(padded)):
            p = self.prob(padded[i], padded[i - self.order + 1 : i])
            if p <= 0.0:
                return float("-inf")
            total += math.log(p)
        return total


def _flat(nested):
    return {k: {ctx + (word,): c for ctx, words in table.items() for word, c in words.items()}
            for k, table in nested.items()}


_WORDS = {"en": ["a", "b", "c", "d", "e"], "zh": list("你好世界天")}
_JOIN = {"en": " ", "zh": ""}
_texts = st.sampled_from(["en", "zh"]).flatmap(
    lambda lang: st.lists(st.sampled_from(_WORDS[lang]), min_size=1, max_size=8).map(
        lambda tokens: (lang, _JOIN[lang].join(tokens))))


class TestAgainstNestedReference:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(corpus=st.lists(_texts, min_size=1, max_size=6), queries=st.lists(_texts, min_size=1, max_size=4),
           contexts=st.lists(st.lists(st.sampled_from(["a", "b", "你", "zzz", BOS, EOS]), max_size=5), max_size=6),
           order=st.integers(1, 4), discount=st.sampled_from([0.0, 0.5, 0.75]), min_count=st.integers(1, 2))
    def test_bit_identical_to_the_nested_recursive_model(self, tmp_path_factory, corpus, queries, contexts, order,
                                                          discount, min_count):
        docs = [Document(id=f"d{i}", lang=lang, text=text) for i, (lang, text) in enumerate(corpus)]
        lm = train_lm(docs, order=order, discount=discount, min_count=min_count)
        nested = _reference_counts(docs, order, min_count)
        ref = _ReferenceLm(order, discount, nested)
        assert lm.counts == _flat(nested)
        assert lm.vocab == ref.vocab
        for lang, text in corpus + queries:
            assert log_prob(lm, text, lang) == ref.log_prob(segment_tokens(text, lang))
        seen = [ctx for k in range(1, order + 1) for ctx in seen_contexts(lm, k)]
        for ctx in seen + [tuple(c) for c in contexts]:
            for word in sorted(lm.vocab) + ["zzz", BOS]:
                assert prob(lm, word, ctx) == ref.prob(word, ctx), (word, ctx)
        path = tmp_path_factory.mktemp("lm") / "lm.txt"
        save_lm(lm, path)
        loaded = load_lm(path)
        assert loaded.counts == lm.counts
        assert [log_prob(loaded, text, lang) for lang, text in queries] == [log_prob(lm, text, lang)
                                                                          for lang, text in queries]
