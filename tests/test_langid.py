import json
import math
import random
from collections import Counter

import pytest

import mtforge.langid
from mtforge.corpus import Document
from mtforge.errors import ValidationError
from mtforge.filters import LangIdStage
from mtforge.langid import (
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


def _reference_posteriors(payload, text):
    """The per-class dict loop the matrix scorer replaced, kept as the
    reference; it reads the tables of a model file's JSON object."""
    grams = _reference_extract(text, payload["ngram_range"])
    log_posts = []
    for c in payload["classes"]:
        table = payload["log_likelihoods"][c]
        fallback = payload["unseen_log_likelihood"][c]
        lp = payload["log_priors"][c]
        for gram, count in grams.items():
            lp += count * table.get(gram, fallback)
        log_posts.append(lp)
    peak = max(log_posts)
    exps = [math.exp(lp - peak) for lp in log_posts]
    norm = sum(exps)
    return {c: e / norm for c, e in zip(payload["classes"], exps)}


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
        assert model.classes == ("en", "fr")
        en, fr = model.log_likelihood_matrix[model.grams["aaa"]]
        assert en > fr

    def test_priors_normalized(self):
        model = train_langid(
            [_doc(0, "en", "hello"), _doc(1, "en", "world"), _doc(0, "de", "hallo")]
        )
        assert math.isclose(sum(map(math.exp, model.log_prior_row.tolist())), 1.0, abs_tol=1e-9)

    def test_likelihoods_proper_distribution(self):
        # each class column, the unseen slot in its last row included
        model = _toy_model()
        assert model.log_likelihood_matrix.shape == (len(model.grams) + 1, len(model.classes))
        for column in model.log_likelihood_matrix.T.tolist():
            assert math.isclose(sum(map(math.exp, column)), 1.0, abs_tol=1e-9)

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
        assert list(a.grams.items()) == list(b.grams.items())
        assert a.log_likelihood_matrix.tolist() == b.log_likelihood_matrix.tolist()
        assert a.log_prior_row.tolist() == b.log_prior_row.tolist()


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
        payload = json.loads((tmp_path / "langid.json").read_bytes())
        loaded = load_langid(tmp_path / "langid.json")
        hi = ngram_range[1]
        texts = [_random_text(rng, QUERY_ALPHABET, 60) for _ in range(150)]
        texts += ["".join(rng.choice(QUERY_ALPHABET) for _ in range(n)) for n in range(1, hi)]  # shorter than hi
        for text in texts:
            expected = _reference_posteriors(payload, text)
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


def _saved(model, tmp_path):
    """The path of `model` saved under `tmp_path`."""
    path = tmp_path / "saved.json"
    save_langid(model, path)
    return path


def _toy_payload(tmp_path):
    """The toy model's file as a JSON object."""
    return json.loads(_saved(_toy_model(), tmp_path).read_bytes())


def _load_edited(tmp_path, payload, **changes):
    """load_langid on a model file holding `payload` with `changes` applied."""
    path = tmp_path / "langid.json"
    path.write_text(json.dumps(dict(payload, **changes)))
    return load_langid(path)


class TestModelChecks:
    """A model file's tables are checked when it is loaded; every fault
    names the file."""

    @pytest.mark.parametrize("ngram_range", [[2, 1], [0, 1], [1], [1, 2, 3], [1, "x"], [True, 2], [1.0, 2]])
    def test_bad_ngram_range_rejected(self, ngram_range, tmp_path):
        with pytest.raises(ValidationError, match=r"langid\.json: ngram_range must be two integers"):
            _load_edited(tmp_path, _toy_payload(tmp_path), ngram_range=ngram_range)

    def test_likelihood_table_must_cover_vocab_exactly(self, tmp_path):
        payload = _toy_payload(tmp_path)
        del payload["log_likelihoods"]["fr"]["a"]
        with pytest.raises(ValidationError, match="log_likelihoods\\['fr'\\] and vocab disagree on gram 'a'"):
            _load_edited(tmp_path, payload)
        payload = _toy_payload(tmp_path)
        with pytest.raises(ValidationError, match="log_likelihoods\\['en'\\] and vocab disagree on gram 'a'"):
            _load_edited(tmp_path, payload, vocab=[g for g in payload["vocab"] if g != "a"])

    @pytest.mark.parametrize("field", ["log_priors", "log_likelihoods", "unseen_log_likelihood"])
    def test_every_class_needs_an_entry(self, field, tmp_path):
        payload = _toy_payload(tmp_path)
        del payload[field]["fr"]
        with pytest.raises(ValidationError, match=f"{field} has no entry for class 'fr'"):
            _load_edited(tmp_path, payload)

    @pytest.mark.parametrize("classes", [["en", "en"], ["en", 5], []])
    def test_classes_must_be_distinct_names(self, classes, tmp_path):
        with pytest.raises(ValidationError, match="classes must be distinct names"):
            _load_edited(tmp_path, _toy_payload(tmp_path), classes=classes)

    def test_vocab_must_hold_strings(self, tmp_path):
        with pytest.raises(ValidationError, match="vocab must hold strings"):
            _load_edited(tmp_path, _toy_payload(tmp_path), vocab=["a", 1])

    def test_classes_must_be_in_registry_order(self, tmp_path):
        # the first class wins a tie, so a file listing fr first would flip ties toward it
        message = r"langid\.json: classes must be in registry order, got \['fr', 'en'\]"
        with pytest.raises(ValidationError, match=message):
            _load_edited(tmp_path, _toy_payload(tmp_path), classes=["fr", "en"])

    def test_classes_must_be_registry_tags(self, tmp_path):
        payload = _toy_payload(tmp_path)
        for name in ("log_priors", "log_likelihoods", "unseen_log_likelihood"):
            payload[name]["xx"] = payload[name]["fr"]
        with pytest.raises(ValidationError, match=r"langid\.json: unknown language tag: 'xx'"):
            _load_edited(tmp_path, payload, classes=["en", "xx"])

    @pytest.mark.parametrize("alpha", [0, -0.5, 10**400])
    def test_smoothing_alpha_must_be_finite_and_positive(self, alpha, tmp_path):
        with pytest.raises(ValidationError, match=r"langid\.json: smoothing_alpha must be a finite number > 0"):
            _load_edited(tmp_path, _toy_payload(tmp_path), smoothing_alpha=alpha)

    def test_bool_is_not_a_number(self, tmp_path):
        payload = _toy_payload(tmp_path)
        with pytest.raises(ValidationError, match="log_priors must hold finite numbers"):
            _load_edited(tmp_path, payload, log_priors={"en": True, "fr": -1.0})
        payload["log_likelihoods"]["en"]["a"] = False
        with pytest.raises(ValidationError, match="log_likelihoods must hold finite numbers"):
            _load_edited(tmp_path, payload)

    def test_table_must_be_an_object(self, tmp_path):
        payload = _toy_payload(tmp_path)
        payload["log_likelihoods"]["en"] = [["a", -1.0]]
        with pytest.raises(ValidationError, match=r"log_likelihoods\['en'\] must be an object"):
            _load_edited(tmp_path, payload)

    def test_json_lists_stored_as_tuples(self, tmp_path):
        model = load_langid(_saved(_toy_model(), tmp_path))
        assert (model.classes, model.ngram_range) == (("en", "fr"), (1, 3))
        assert list(model.grams) == sorted(model.grams)

    def test_non_numbers_rejected(self, tmp_path):
        payload = _toy_payload(tmp_path)
        with pytest.raises(ValidationError, match="log_priors must hold finite numbers"):
            _load_edited(tmp_path, payload, log_priors={"en": "x", "fr": -1.0})
        with pytest.raises(ValidationError, match="log_likelihoods must hold finite numbers"):
            _load_edited(tmp_path, payload, unseen_log_likelihood={"en": float("nan"), "fr": -1.0})


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = _toy_model()
        loaded = load_langid(_saved(model, tmp_path))
        assert loaded.classes == model.classes
        assert list(loaded.grams.items()) == list(model.grams.items())
        assert loaded.log_prior_row.tolist() == model.log_prior_row.tolist()
        assert loaded.log_likelihood_matrix.tolist() == model.log_likelihood_matrix.tolist()
        for text in ("aaa", "bb", "ab"):
            assert predict_lang(loaded, text) == predict_lang(model, text)

    @pytest.mark.parametrize("ngram_range, alpha", [((1, 3), 0.5), ((2, 4), 0.3), ((1, 1), 2.0)])
    def test_save_of_load_rewrites_the_file_byte_for_byte(self, ngram_range, alpha, tmp_path):
        rng = random.Random(f"bytes{ngram_range}")
        docs = [_doc(i, lang, _random_text(rng, TRAIN_ALPHABET, 40)) for i in range(4) for lang in ("zh", "en", "fr")]
        path = _saved(train_langid(docs, ngram_range=ngram_range, alpha=alpha), tmp_path)
        again = tmp_path / "again.json"
        save_langid(load_langid(path), again)
        assert again.read_bytes() == path.read_bytes()


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
