"""Single-word probabilities of an `ngram_lm.NGramLm`, for tests that check
the Kneser-Ney smoothing against hand-derived values, normalization and a
reference model. The package itself only scores whole texts (`log_prob`,
`perplexity`).
"""

from mtforge.ngram_lm import BOS, UNK


def prob(lm, word, context=()):
    """P(word | context), with unknown tokens mapped to UNK and the context
    truncated on the left to order-1 tokens."""
    word = word if word in lm.vocab else UNK
    ctx = tuple(t if t in lm.vocab or t == BOS else UNK for t in context)
    return lm._prob(word, ((BOS,) * (lm.order - 1) + ctx)[len(ctx):])  # the last order-1 tokens


def seen_contexts(lm, k=None):
    """The sorted contexts of the model's k-grams, by default at its order."""
    return sorted({gram[:-1] for gram in lm.counts[k if k is not None else lm.order]})
