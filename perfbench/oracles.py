"""Output checks that do not reuse the program's code.

A `Verdict` collects failures; a failure either names records (they count
as failed) or, when it concerns a whole output, fails every record of the
pass. `chrf_reference` is a from-the-definition chrF written independently
of `mtforge.evalkit`, and `shingle_jaccard` an exact Jaccard written
independently of `mtforge.minlsh`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


class Verdict:
    def __init__(self):
        self.failed_ids: set[str] = set()
        self.whole = False
        self.messages: list[str] = []

    def fail(self, message: str, record_id: str | None = None) -> None:
        if len(self.messages) < 20:
            self.messages.append(message)
        if record_id is None:
            self.whole = True
        else:
            self.failed_ids.add(record_id)

    def check(self, condition: bool, message: str, record_id: str | None = None) -> bool:
        if not condition:
            self.fail(message, record_id)
        return condition

    def failed(self, records: int) -> int:
        return records if self.whole else min(records, len(self.failed_ids))


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def is_subsequence(kept: list[str], full: list[str]) -> bool:
    """Whether kept appears in full in the same relative order."""
    it = iter(full)
    return all(any(x == y for y in it) for x in kept)


def shingle_jaccard(a: str, b: str, n: int) -> float:
    """Exact Jaccard of the two texts' sets of n consecutive whitespace tokens."""
    def grams(text: str) -> set[tuple[str, ...]]:
        tokens = text.split()
        return {tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)}

    left, right = grams(a), grams(b)
    return len(left & right) / len(left | right)


# chrF as `mtforge eval --metric chrf` defines it: character orders 1..6, beta 2.
CHRF_ORDER = 6
CHRF_BETA = 2.0
# Relative tolerance for floats the program computes in another order.
REL_TOL = 1e-9


def chrf_reference(hypothesis: str, reference: str) -> float:
    """chrF from its definition: whitespace removed, character n-gram
    precision and recall per order (orders empty on both sides skipped),
    F-beta per order, averaged and scaled to 0..100."""
    hyp = "".join(ch for ch in hypothesis if not ch.isspace())
    ref = "".join(ch for ch in reference if not ch.isspace())
    scores = []
    for n in range(1, CHRF_ORDER + 1):
        hyp_grams: dict[str, int] = {}
        for i in range(len(hyp) - n + 1):
            gram = hyp[i:i + n]
            hyp_grams[gram] = hyp_grams.get(gram, 0) + 1
        ref_grams: dict[str, int] = {}
        for i in range(len(ref) - n + 1):
            gram = ref[i:i + n]
            ref_grams[gram] = ref_grams.get(gram, 0) + 1
        hyp_total = max(0, len(hyp) - n + 1)
        ref_total = max(0, len(ref) - n + 1)
        if hyp_total == 0 and ref_total == 0:
            continue
        matched = 0
        for gram, count in hyp_grams.items():
            matched += min(count, ref_grams.get(gram, 0))
        precision = matched / hyp_total if hyp_total else 0.0
        recall = matched / ref_total if ref_total else 0.0
        if precision == 0 and recall == 0:
            scores.append(0.0)
        else:
            b2 = CHRF_BETA * CHRF_BETA
            scores.append((1 + b2) * precision * recall / (b2 * precision + recall))
    return 100.0 * sum(scores) / len(scores) if scores else 0.0


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))
