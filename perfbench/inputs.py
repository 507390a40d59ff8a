"""Seeded input generators for the benchmark workloads.

Every text, term table and corpus is drawn from `random.Random` instances
derived from the workload seed, so one seed always yields the same files.
Languages are synthetic: each has its own syllable inventory (or, for
scripts written without spaces, its own character range) and a Zipfian
vocabulary, which is enough for the character-n-gram language identifier
and the n-gram LM to tell them apart.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

# (onsets, nuclei, codas) per spaced language; codas may be empty strings.
_SYLLABLES = {
    "en": (["b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t", "w", "th", "sh", "st"],
           ["a", "e", "i", "o", "u", "ea", "oo"], ["", "", "n", "ng", "r", "t", "ck", "s"]),
    "fr": (["b", "c", "d", "f", "g", "j", "l", "m", "n", "p", "qu", "r", "s", "t", "v"],
           ["a", "e", "i", "o", "ou", "eau", "é", "è", "ai"], ["", "", "", "s", "x", "nt", "r"]),
    "de": (["b", "d", "f", "g", "h", "k", "l", "m", "n", "r", "s", "t", "w", "z", "sch", "ch"],
           ["a", "e", "i", "o", "u", "ei", "ie", "ä", "ö", "ü"], ["", "n", "r", "t", "ch", "ng", "st"]),
    "es": (["b", "c", "d", "g", "l", "m", "n", "p", "r", "s", "t", "v", "ll", "ñ"],
           ["a", "e", "i", "o", "u", "ia", "ue", "á", "ó"], ["", "", "", "n", "s", "r", "l"]),
    "ru": (["б", "в", "г", "д", "ж", "к", "л", "м", "н", "п", "р", "с", "т", "ш"],
           ["а", "е", "и", "о", "у", "ы", "я"], ["", "", "й", "н", "т", "л"]),
}

# First codepoint and width of the character range for unspaced scripts.
_CHAR_RANGES = {"zh": (0x4E00, 900), "ja": (0x3041, 86)}


@dataclass
class Lexicon:
    lang: str
    words: list[str]
    cum_weights: list[float]
    joiner: str

    def draw(self, rng: random.Random, count: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum_weights, k=count)

    def text(self, rng: random.Random, count: int) -> str:
        return self.joiner.join(self.draw(rng, count))


def _zipf(words: list[str]) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 2.7) for rank in range(len(words))))


# Words per language, the same for every workload: large enough that
# unrelated docs share few shingles, so LSH candidates are planted duplicates.
LEXICON_SIZE = 3000


def make_lexicon(seed: int, lang: str) -> Lexicon:
    """Zipfian vocabulary whose word lengths (in syllables, or characters for
    unspaced scripts) are fixed by rank, so text length per token does not
    depend on the seed; only the spellings do."""
    rng = random.Random(f"{seed}:lexicon:{lang}")
    words: list[str] = []
    seen: set[str] = set()
    if lang in _SYLLABLES:
        onsets, nuclei, codas = _SYLLABLES[lang]

        def unit() -> str:
            return rng.choice(onsets) + rng.choice(nuclei) + rng.choice(codas)
    else:
        first, width = _CHAR_RANGES[lang]

        def unit() -> str:
            return chr(first + rng.randrange(width))
    while len(words) < LEXICON_SIZE:
        # short frequent words; the rarer ranks avoid exhausting one-unit spellings
        lengths = (1, 2, 2, 3) if len(words) < 200 else (2, 2, 3, 3)
        word = "".join(unit() for _ in range(lengths[len(words) % 4]))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return Lexicon(lang, words, _zipf(words), " " if lang in _SYLLABLES else "")


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False, sort_keys=True))
            handle.write("\n")


def edit_tokens(rng: random.Random, tokens: list[str], lex: Lexicon, share: float) -> list[str]:
    """Copy of tokens with max(1, share * len) positions replaced by fresh draws."""
    out = list(tokens)
    for pos in rng.sample(range(len(out)), max(1, round(share * len(out)))):
        replacement = out[pos]
        while replacement == out[pos]:
            replacement = lex.draw(rng, 1)[0]
        out[pos] = replacement
    return out


# -- clean-mono -----------------------------------------------------------------

TARGET_LANG = "en"
FOREIGN_LANGS = ("fr", "de", "es", "ru")


@dataclass
class MonoCorpus:
    """Generated mono corpus plus what the benchmark planted in it."""

    ids: list[str]
    kind: dict[str, str]  # id -> "unique" | "foreign" | "near" | "boiler"
    group: dict[str, str]  # near-dup and boilerplate id -> id of its group's base
    text: dict[str, str]  # id -> document text


def mono_corpus(
    seed: int,
    path: Path,
    n_docs: int,
    tokens: int,
    foreign_share: float,
    near_share: float,
    cluster_sizes: tuple[int, ...],
    edit_share: float,
    stream: str = "corpus",
) -> MonoCorpus:
    """Write a shuffled mono corpus with planted foreign docs, near-duplicates
    (edit_share of tokens replaced) and identical boilerplate clusters."""
    rng = random.Random(f"{seed}:{stream}")
    lexicons = {lang: make_lexicon(seed, lang) for lang in (TARGET_LANG,) + FOREIGN_LANGS}
    target = lexicons[TARGET_LANG]
    n_foreign = round(foreign_share * n_docs)
    n_near = round(near_share * n_docs)
    n_boiler = sum(cluster_sizes)
    n_unique = n_docs - n_foreign - n_near - n_boiler
    if n_unique < n_near:
        raise ValueError("corpus too small for the planted shares")

    # (kind, group base key, lang, tokens); group keys are replaced by ids after shuffling
    items: list[tuple[str, int | None, str, list[str]]] = []
    for _ in range(n_unique):
        items.append(("unique", None, TARGET_LANG, target.draw(rng, tokens)))
    for i in range(n_foreign):
        lang = FOREIGN_LANGS[i % len(FOREIGN_LANGS)]
        items.append(("foreign", None, lang, lexicons[lang].draw(rng, tokens)))
    for base in rng.sample(range(n_unique), n_near):
        items.append(("near", base, TARGET_LANG, edit_tokens(rng, items[base][3], target, edit_share)))
    for size in cluster_sizes:
        key = len(items)
        text = target.draw(rng, tokens)
        items.extend(("boiler", key, TARGET_LANG, text) for _ in range(size))

    order = list(range(len(items)))
    rng.shuffle(order)
    ids = [""] * len(items)
    for position, item_index in enumerate(order):
        ids[item_index] = f"d{position:06d}"
    kind: dict[str, str] = {}
    group: dict[str, str] = {}
    for index, (item_kind, key, _lang, _tokens) in enumerate(items):
        kind[ids[index]] = item_kind
        if item_kind == "near":
            group[ids[index]] = group[ids[key]] = ids[key]
        elif item_kind == "boiler":
            group[ids[index]] = ids[key]
    provenances = ("general_web", "professional_web", "book", "academic", "other")
    rows = []
    for item_index in order:
        item_kind, _key, lang, toks = items[item_index]
        rows.append({
            "id": ids[item_index],
            "lang": lang,
            "text": " ".join(toks),
            "provenance": provenances[item_index % len(provenances)],
        })
    write_jsonl(path, rows)
    return MonoCorpus([row["id"] for row in rows], kind, group, {row["id"]: row["text"] for row in rows})


def langid_training(seed: int, path: Path, per_lang: int, tokens: int) -> None:
    rng = random.Random(f"{seed}:langid-train")
    rows = []
    for lang in (TARGET_LANG,) + FOREIGN_LANGS:
        lex = make_lexicon(seed, lang)
        rows.extend(
            {"id": f"{lang}{i:05d}", "lang": lang, "text": lex.text(rng, tokens)}
            for i in range(per_lang)
        )
    write_jsonl(path, rows)


def lm_training(seed: int, path: Path, n_docs: int, tokens: int) -> None:
    rng = random.Random(f"{seed}:lm-train")
    lex = make_lexicon(seed, TARGET_LANG)
    write_jsonl(path, ({"id": f"t{i:05d}", "lang": TARGET_LANG, "text": lex.text(rng, tokens)}
                       for i in range(n_docs)))


# -- fuse-loopback ----------------------------------------------------------------

# Mixed directions: a Sinitic source and target (Chinese template), a
# script without spaces on the source side, and plain spaced pairs.
DIRECTIONS = (("en", "de"), ("fr", "en"), ("zh", "en"), ("en", "zh"), ("ja", "en"), ("de", "fr"))


def sources(seed: int, path: Path, n_segments: int, tokens: int) -> list[dict]:
    rng = random.Random(f"{seed}:sources")
    lexicons = {lang: make_lexicon(seed, lang) for lang in {s for s, _ in DIRECTIONS}}
    rows = []
    for i in range(n_segments):
        src, tgt = DIRECTIONS[i % len(DIRECTIONS)]
        rows.append({"id": f"s{i:05d}", "src_lang": src, "tgt_lang": tgt,
                     "text": lexicons[src].text(rng, tokens)})
    write_jsonl(path, rows)
    return rows


# -- score-parallel ----------------------------------------------------------------


@dataclass
class ParallelSet:
    pairs: list[dict]
    hyps: dict[str, str]
    reward_rows: list[dict]


def parallel_set(seed: int, dirpath: Path, n_pairs: int, tokens: int,
                 missing_quality_share: float) -> ParallelSet:
    """Parallel pairs, hypotheses (edited references, some degenerate), reward
    records (a fixed share without `quality`) and a term table."""
    rng = random.Random(f"{seed}:parallel")
    directions = (("zh", "en"), ("en", "zh"), ("en", "de"), ("de", "en"), ("fr", "es"))
    lexicons = {lang: make_lexicon(seed, lang) for lang in {x for d in directions for x in d}}
    terms: dict[str, list[str]] = {}
    for src, tgt in directions:
        src_words = lexicons[src].words[40:60]
        for word in src_words:
            terms.setdefault(word, [lexicons[tgt].words[200 + len(terms)]])
    pairs, hyps, reward_rows = [], {}, []
    n_missing = round(missing_quality_share * n_pairs)
    missing = set(rng.sample(range(n_pairs), n_missing))
    for i in range(n_pairs):
        src, tgt = directions[i % len(directions)]
        source_tokens = lexicons[src].draw(rng, tokens)
        ref_tokens = lexicons[tgt].draw(rng, tokens)
        joiner = lexicons[tgt].joiner
        if i % 10 == 0:  # degenerate output: one bigram repeated
            hyp_tokens = ref_tokens[:2] * (tokens // 2)
        else:
            hyp_tokens = edit_tokens(rng, ref_tokens, lexicons[tgt], 0.2)
        if i % 3 == 0:  # mention a term, rendered correctly every other time
            term = rng.choice(list(terms))
            source_tokens[rng.randrange(tokens)] = term
            if i % 2 == 0:
                hyp_tokens[rng.randrange(len(hyp_tokens))] = terms[term][0]
        pair_id = f"p{i:05d}"
        source = lexicons[src].joiner.join(source_tokens)
        hypothesis = joiner.join(hyp_tokens)
        pairs.append({"id": pair_id, "src_lang": src, "tgt_lang": tgt,
                      "src_text": source, "tgt_text": joiner.join(ref_tokens)})
        hyps[pair_id] = hypothesis
        row = {"id": pair_id, "source": source, "hypothesis": " ".join(hyp_tokens)}
        if i not in missing:
            row["quality"] = round(rng.random(), 4)
        reward_rows.append(row)
    write_jsonl(dirpath / "pairs.jsonl", pairs)
    write_jsonl(dirpath / "hyps.jsonl", ({"id": k, "hypothesis": v} for k, v in hyps.items()))
    write_jsonl(dirpath / "rewards.jsonl", reward_rows)
    (dirpath / "terms.json").write_text(json.dumps(terms, ensure_ascii=False, sort_keys=True), "utf-8")
    return ParallelSet(pairs, hyps, reward_rows)
