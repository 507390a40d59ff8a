import dataclasses
import math
import random
from collections import Counter

import pytest

import mtforge.langid
from mtforge.corpus import Document
from mtforge.errors import ValidationError
from mtforge.filters import LangIdStage
from mtforge.langid import (
    LangIdModel,
    extract_ngrams,
    load_langid,
    posteriors,
    predict_lang,
    save_langid,
    train_langid,
)


def _doc(i, lang, text):
    return Document(id=f"{lang}{i}", lang=lang, text=text)


def _reference_extract(text, ngram_range):
    """The slice-based extractor the incremental one replaced, kept as the reference."""
    lo, hi = ngram_range
    folded = text.lower()
    grams = Counter()
    for n in range(lo, hi + 1):
        for i in range(len(folded) - n + 1):
            grams[folded[i : i + n]] += 1
    return grams


def _reference_posteriors(model, text):
    """The per-class dict loop the matrix scorer replaced, kept as the reference."""
    grams = _reference_extract(text, model.ngram_range)
    log_posts = []
    for c in model.classes:
        table = model.log_likelihoods[c]
        fallback = model.unseen_log_likelihood[c]
        lp = model.log_priors[c]
        for gram, count in grams.items():
            lp += count * table.get(gram, fallback)
        log_posts.append(lp)
    peak = max(log_posts)
    exps = [math.exp(lp - peak) for lp in log_posts]
    norm = sum(exps)
    return {c: e / norm for c, e in zip(model.classes, exps)}


def _random_text(rng, alphabet, max_len):
    text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
    if rng.random() < 0.3:  # repeated grams
        text *= rng.randint(2, 4)
    return text


# training letters, CJK included; the query alphabet adds letters no class saw
TRAIN_ALPHABET = "abcdeABC fghij漢字語áé"
QUERY_ALPHABET = TRAIN_ALPHABET + "xyzΩψ文!"


def _toy_model():
    docs = [_doc(0, "en", "aaaa aaa"), _doc(0, "fr", "bbbb bbb")]
    return train_langid(docs, ngram_range=(1, 3), alpha=0.5)


class TestTraining:
    def test_separable_classes_order(self):
        model = _toy_model()
        lik = model.log_likelihoods
        assert lik["en"]["aaa"] > lik["fr"]["aaa"]

    def test_priors_normalized(self):
        model = train_langid(
            [_doc(0, "en", "hello"), _doc(1, "en", "world"), _doc(0, "de", "hallo")]
        )
        assert math.isclose(sum(math.exp(v) for v in model.log_priors.values()), 1.0, abs_tol=1e-9)

    def test_likelihoods_proper_distribution(self):
        model = _toy_model()
        for c in model.classes:
            total = sum(math.exp(v) for v in model.log_likelihoods[c].values())
            total += math.exp(model.unseen_log_likelihood[c])
            assert math.isclose(total, 1.0, abs_tol=1e-9)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValidationError):
            train_langid([_doc(0, "en", "x")], alpha=0.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            train_langid([])

    def test_order_independence(self):
        docs = [_doc(0, "en", "one two"), _doc(0, "fr", "un deux"), _doc(1, "en", "three")]
        a = train_langid(docs)
        b = train_langid(list(reversed(docs)))
        assert a.log_likelihoods == b.log_likelihoods
        assert a.log_priors == b.log_priors


class TestPredict:
    def test_training_text_recovers_label(self):
        model = _toy_model()
        assert predict_lang(model, "aaaa aaa")[0] == "en"
        assert predict_lang(model, "bbbb bbb")[0] == "fr"

    def test_single_class_confidence_one(self):
        model = train_langid([_doc(0, "en", "hello world")])
        label, confidence = predict_lang(model, "anything at all")
        assert label == "en"
        assert confidence == 1.0

    def test_identical_training_symmetric(self):
        docs = [_doc(0, "en", "same text"), _doc(0, "fr", "same text")]
        model = train_langid(docs)
        post = posteriors(model, "same text")
        assert math.isclose(post["en"], 0.5, abs_tol=1e-9)
        assert math.isclose(post["fr"], 0.5, abs_tol=1e-9)

    def test_posterior_sums_to_one(self):
        model = _toy_model()
        for text in ("aa", "ab ba", "zz yy xx", "a"):
            assert math.isclose(sum(posteriors(model, text).values()), 1.0, abs_tol=1e-9)

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            predict_lang(_toy_model(), "")

    def test_ties_break_by_registry_order(self):
        # identical class tables make every posterior a tie; zh precedes en
        docs = [_doc(0, "zh", "xyz"), _doc(0, "en", "xyz")]
        model = train_langid(docs)
        assert predict_lang(model, "qqq")[0] == "zh"

    def test_matches_brute_force_bayes_oracle(self):
        # independent posterior computation, written against the NB definition
        docs = [
            _doc(0, "en", "the cat sat"),
            _doc(1, "en", "a cat"),
            _doc(0, "fr", "le chat noir"),
            _doc(0, "de", "die katze"),
        ]
        ngram_range, alpha = (1, 2), 0.5
        model = train_langid(docs, ngram_range=ngram_range, alpha=alpha)

        def oracle(text):
            by_class: dict[str, Counter] = {}
            n_docs: Counter = Counter()
            for d in docs:
                grams = Counter()
                folded = d.text.lower()
                for n in range(ngram_range[0], ngram_range[1] + 1):
                    for i in range(len(folded) - n + 1):
                        grams[folded[i : i + n]] += 1
                by_class.setdefault(d.lang, Counter()).update(grams)
                n_docs[d.lang] += 1
            vocab = set()
            for c in by_class:
                vocab |= set(by_class[c])
            classes = sorted(by_class)
            query = Counter()
            folded = text.lower()
            for n in range(ngram_range[0], ngram_range[1] + 1):
                for i in range(len(folded) - n + 1):
                    query[folded[i : i + n]] += 1
            logs = {}
            for c in classes:
                total = sum(by_class[c].values())
                lp = math.log(n_docs[c] / sum(n_docs.values()))
                for g, cnt in query.items():
                    seen = by_class[c][g] if g in vocab else 0
                    lp += cnt * math.log((seen + alpha) / (total + alpha * (len(vocab) + 1)))
                logs[c] = lp
            peak = max(logs.values())
            norm = sum(math.exp(v - peak) for v in logs.values())
            return {c: math.exp(v - peak) / norm for c, v in logs.items()}

        for text in ("the cat", "chat", "katze sat", "qqq zz"):
            expected = oracle(text)
            got = posteriors(model, text)
            for c in expected:
                assert math.isclose(got[c], expected[c], abs_tol=1e-9), (text, c)

    def test_monotonicity_on_disjoint_alphabets(self):
        model = _toy_model()
        base = posteriors(model, "aaa")["en"]
        more = posteriors(model, "aaa aaa")["en"]
        assert more >= base

    def test_deterministic(self):
        model = _toy_model()
        assert predict_lang(model, "ab ba") == predict_lang(model, "ab ba")

    @pytest.mark.parametrize("ngram_range", [(1, 1), (1, 3), (2, 4), (1, 5)])
    def test_bit_identical_to_per_class_loop(self, ngram_range, tmp_path):
        rng = random.Random(f"posteriors{ngram_range}")
        docs = [_doc(i, lang, _random_text(rng, TRAIN_ALPHABET, 40))
                for i in range(6) for lang in ("en", "fr", "de", "zh")]
        model = train_langid(docs, ngram_range=ngram_range, alpha=0.3)
        save_langid(model, tmp_path / "langid.json")
        loaded = load_langid(tmp_path / "langid.json")
        hi = ngram_range[1]
        texts = [_random_text(rng, QUERY_ALPHABET, 60) for _ in range(150)]
        texts += ["".join(rng.choice(QUERY_ALPHABET) for _ in range(n)) for n in range(1, hi)]  # shorter than hi
        for text in texts:
            expected = _reference_posteriors(model, text)
            assert posteriors(model, text) == expected, text
            assert posteriors(loaded, text) == expected, text


class TestFilter:
    """LangIdStage, the language filter of langid-filter and the pipeline's
    langid stage."""

    def _corpus(self):
        # disjoint alphabets: en uses a-f tokens, fr uses u-z tokens
        train = [_doc(i, "en", "abc def fed cab") for i in range(3)]
        train += [_doc(i, "fr", "uvw xyz zyx wuv") for i in range(3)]
        model = train_langid(train)
        good = [Document(id=f"g{i}", lang="en", text="abc fed def") for i in range(90)]
        bad = [Document(id=f"b{i}", lang="en", text="xyz wuv uvw") for i in range(10)]
        return model, good, bad

    def test_planted_wrong_language_dropped(self):
        model, good, bad = self._corpus()
        kept, dropped, unscored = LangIdStage(model, "en", min_confidence=0.5).apply(good + bad)
        assert {d.id for d in kept} == {d.id for d in good}
        assert {d.id for d, _, _ in dropped} == {d.id for d in bad}
        assert unscored == []
        for _, reason, detail in dropped:
            assert reason == "predicted=fr" and detail["predicted"] == "fr"
            assert 0 <= detail["confidence"] <= 1

    def test_zero_threshold_keeps_argmax_matches(self):
        model, good, bad = self._corpus()
        kept, _, _ = LangIdStage(model, "en", min_confidence=0.0).apply(good + bad)
        assert {d.id for d in kept} == {d.id for d in good}

    def test_partition_is_exact(self):
        model, good, bad = self._corpus()
        docs = good + bad
        kept, dropped, _ = LangIdStage(model, "en", 0.9).apply(docs)
        assert len(kept) + len(dropped) == len(docs)

    def test_one_predict_lang_call_per_document(self, monkeypatch):
        # the benchmark times language ID by wrapping predict_lang at module level
        model, good, bad = self._corpus()
        calls = []
        real = mtforge.langid.predict_lang

        def counting(model, text):
            calls.append(text)
            return real(model, text)

        monkeypatch.setattr(mtforge.langid, "predict_lang", counting)
        LangIdStage(model, "en").apply(good + bad)
        assert calls == [d.text for d in good + bad]

    @pytest.mark.parametrize("expected, min_confidence, message", [
        ("xx", 0.5, "unknown language tag: 'xx'"),
        ("en", 1.5, r"min_confidence must be in \[0, 1\], got 1.5"),
        ("en", -0.1, r"min_confidence must be in \[0, 1\], got -0.1"),
        ("en", math.nan, r"min_confidence must be in \[0, 1\], got nan"),
    ])
    def test_bad_values_rejected_when_built(self, expected, min_confidence, message):
        model, _, _ = self._corpus()
        with pytest.raises(ValidationError, match=message):
            LangIdStage(model, expected, min_confidence)

    def test_threshold_one_requires_certainty(self):
        model = train_langid([_doc(0, "en", "hello")])
        docs = [Document(id="x", lang="en", text="hello")]
        kept, _, _ = LangIdStage(model, "en", min_confidence=1.0).apply(docs)
        assert len(kept) == 1  # single class: posterior exactly 1.0


class TestModelChecks:
    @pytest.mark.parametrize("ngram_range", [(2, 1), (0, 1), (1,), (1, 2, 3), (1, "x"), (True, 2), (1.0, 2)])
    def test_bad_ngram_range_rejected(self, ngram_range):
        with pytest.raises(ValidationError, match="ngram_range"):
            dataclasses.replace(_toy_model(), ngram_range=ngram_range)

    def test_likelihood_table_must_cover_vocab_exactly(self):
        model = _toy_model()
        short = {c: dict(t) for c, t in model.log_likelihoods.items()}
        del short["fr"]["a"]
        with pytest.raises(ValidationError, match="disagree on gram 'a'"):
            dataclasses.replace(model, log_likelihoods=short)
        with pytest.raises(ValidationError, match="disagree on gram 'a'"):
            dataclasses.replace(model, vocab=model.vocab - {"a"})

    @pytest.mark.parametrize("field", ["log_priors", "log_likelihoods", "unseen_log_likelihood"])
    def test_every_class_needs_an_entry(self, field):
        model = _toy_model()
        partial = {c: v for c, v in getattr(model, field).items() if c != "fr"}
        with pytest.raises(ValidationError, match=f"{field} has no entry for class 'fr'"):
            dataclasses.replace(model, **{field: partial})

    @pytest.mark.parametrize("classes", [("en", "en"), ("en", 5), ()])
    def test_classes_must_be_distinct_names(self, classes):
        with pytest.raises(ValidationError, match="classes must be distinct names"):
            dataclasses.replace(_toy_model(), classes=classes)

    def test_bool_is_not_a_number(self):
        model = _toy_model()
        with pytest.raises(ValidationError, match="log_priors"):
            dataclasses.replace(model, log_priors={"en": True, "fr": -1.0})
        table = dict(model.log_likelihoods, en=dict(model.log_likelihoods["en"], a=False))
        with pytest.raises(ValidationError, match="log_likelihoods"):
            dataclasses.replace(model, log_likelihoods=table)

    def test_table_must_be_an_object(self):
        model = _toy_model()
        with pytest.raises(ValidationError, match=r"log_likelihoods\['en'\] must be an object"):
            dataclasses.replace(model, log_likelihoods=dict(model.log_likelihoods, en=[["a", -1.0]]))

    def test_json_sequences_stored_as_field_types(self):
        model = _toy_model()
        loaded = dataclasses.replace(model, classes=list(model.classes), vocab=sorted(model.vocab),
                                     ngram_range=list(model.ngram_range))
        assert (loaded.classes, loaded.vocab, loaded.ngram_range) == (model.classes, model.vocab, model.ngram_range)
        assert (type(loaded.classes), type(loaded.vocab), type(loaded.ngram_range)) == (tuple, frozenset, tuple)

    def test_non_numbers_rejected(self):
        model = _toy_model()
        with pytest.raises(ValidationError, match="log_priors"):
            dataclasses.replace(model, log_priors={"en": "x", "fr": -1.0})
        with pytest.raises(ValidationError, match="log_likelihoods"):
            dataclasses.replace(model, unseen_log_likelihood={"en": float("nan"), "fr": -1.0})


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = _toy_model()
        path = tmp_path / "langid.json"
        save_langid(model, path)
        loaded = load_langid(path)
        assert loaded.classes == model.classes
        assert loaded.vocab == model.vocab
        assert loaded.log_priors == model.log_priors
        assert loaded.log_likelihoods == model.log_likelihoods
        for text in ("aaa", "bb", "ab"):
            assert predict_lang(loaded, text) == predict_lang(model, text)


class TestNgramExtraction:
    def test_counts(self):
        grams = extract_ngrams("aab", (1, 2))
        assert grams == Counter({"a": 2, "b": 1, "aa": 1, "ab": 1})

    @pytest.mark.parametrize("ngram_range", [(1, 1), (1, 3), (2, 4), (3, 3), (1, 5)])
    def test_matches_slice_reference_in_value_and_order(self, ngram_range):
        rng = random.Random(f"extract{ngram_range}")
        texts = [_random_text(rng, QUERY_ALPHABET, 50) for _ in range(100)] + ["a", "ab", "AbC"]
        for text in texts:
            expected = _reference_extract(text, ngram_range)
            got = extract_ngrams(text, ngram_range)
            assert list(got.items()) == list(expected.items()), text

    def test_orders_beyond_the_text_are_not_walked(self, monkeypatch):
        # levels longer than the text are empty, so a model file's huge hi
        # must not make extraction walk them
        real = mtforge.langid.char_ngram_levels

        def levels(text, max_n):
            assert max_n <= max(len(text), 1), max_n
            return real(text, max_n)

        expected = extract_ngrams("abc", (1, 3))
        monkeypatch.setattr(mtforge.langid, "char_ngram_levels", levels)
        assert extract_ngrams("abc", (1, 10**15)) == expected
        assert extract_ngrams("abc", (4, 10**15)) == Counter()
        assert extract_ngrams("", (1, 10**15)) == Counter()

    def test_case_folding_alphabetic_only(self):
        assert extract_ngrams("AbA", (1, 1)) == Counter({"a": 2, "b": 1})
        assert extract_ngrams("你好", (1, 1)) == Counter({"你": 1, "好": 1})
