"""Pluggable scoring endpoints.

External quality-estimation and judge models are reached only through this
interface: a scorer is either a named local function or a remote HTTP
endpoint. Scores are clamped into the endpoint's declared range. A score of
None means unscored, and callers route the record to an "unscored" bucket
instead of dropping it. A local function says so only by returning None;
an exception it raises propagates. A remote request gets one attempt: when
it fails (as backends.post_json decides) or its reply is not a `scores`
list with one entry per item, every item is unscored.

Wire format for remote_http scorers:
    POST <url>  {"name": <scorer name>, "items": [<item>, ...]}
    -> 200      {"scores": [<number or null>, ...]}
Items are JSON objects, typically {"source", "hypothesis", "reference"}.
An Authorization header is sent when MTFORGE_SCORER_TOKEN is set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping, Sequence

from .backends import MAX_TIMEOUT_MS, BackendFailure, is_http_url, post_json, require_sendable_token
from .errors import ValidationError
from .ioutils import dataclass_from_obj, is_finite_number

# The environment variable holding the bearer token sent to remote scorers.
SCORER_TOKEN_ENV = "MTFORGE_SCORER_TOKEN"

Item = dict
ScoreFn = Callable[[Item], float | None]  # None: the item is unscored

# name -> (function, the scale its scores are on, the item fields it reads)
_LOCAL_SCORERS: dict[str, tuple[ScoreFn, tuple[float, float], tuple[str, ...]]] = {}


def register_scorer(name: str, fn: ScoreFn, score_range: tuple[float, float] = (0.0, 1.0),
                    fields: tuple[str, ...] = ("source", "hypothesis")) -> None:
    """Register a local scoring function, its score scale and the item
    fields it reads (for tests and extensions)."""
    _LOCAL_SCORERS[name] = (fn, score_range, fields)


def _length_ratio(item: Item) -> float:
    source = item.get("source") or ""
    hypothesis = item.get("hypothesis") or ""
    if not source or not hypothesis:
        return 0.0
    a, b = len(source), len(hypothesis)
    return min(a, b) / max(a, b)


def _chrf_item(item: Item) -> float:
    from .evalkit import chrf  # local import: evalkit depends on this module

    return chrf(item.get("hypothesis") or "", item["reference"])


register_scorer("length_ratio", _length_ratio)
register_scorer("chrf", _chrf_item, (0.0, 100.0), ("hypothesis", "reference"))


def is_local_scorer(config: str) -> bool:
    """True for a registered scorer name or a `constant:` scorer."""
    return config in _LOCAL_SCORERS or config.startswith("constant:")


@dataclass(frozen=True)
class ScorerEndpoint:
    """A named scorer: local function id or remote HTTP URL, plus its scale.

    A local function is a registered name or `constant:<number>`, resolved
    once when the endpoint is built; a remote config is an http(s) URL. The
    scale defaults to a registered function's own and to (0, 1) otherwise.
    `extra` rides along in every remote request (under "config"), which is
    how judge-style scorers receive their prompt template; no judging logic
    lives in this package.
    """

    name: str
    kind: str  # "local_function" | "remote_http"
    config: str  # function id for local, URL for remote
    score_range: tuple[float, float] | None = None
    timeout_ms: int = 30000
    extra: Mapping[str, object] | None = None
    # the resolved local function and the item fields it reads; defaults, so
    # dataclass_from_obj does not require them
    _fn: ScoreFn | None = field(default=None, init=False, repr=False, compare=False)
    _reads: tuple[str, ...] = field(default=(), init=False, repr=False, compare=False)

    FIELDS: ClassVar[dict] = {"name": "string", "kind": "string", "config": "string", "score_range": "array",
                              "timeout_ms": "integer", "extra": "object"}

    def __post_init__(self):
        if self.kind not in ("local_function", "remote_http"):
            raise ValidationError(f"scorer kind must be local_function or remote_http, got {self.kind!r}")
        lo_hi = self.score_range if self.score_range is not None else (0.0, 1.0)
        if self.kind == "local_function" and self.config.startswith("constant:"):
            text = self.config.split(":", 1)[1]
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValidationError(f"constant scorer value must be a finite number, got {text!r}")
            object.__setattr__(self, "_fn", lambda item: value)
        elif self.kind == "local_function":
            if self.config not in _LOCAL_SCORERS:
                raise ValidationError(f"unknown local scorer {self.config!r} (not registered or constant:<number>)")
            fn, registered_range, reads = _LOCAL_SCORERS[self.config]
            object.__setattr__(self, "_fn", fn)
            object.__setattr__(self, "_reads", reads)
            if self.score_range is None:
                lo_hi = registered_range
        elif not is_http_url(self.config):
            raise ValidationError(f"remote scorer config must be an http(s) URL, got {self.config!r}")
        if (not isinstance(lo_hi, (list, tuple)) or len(lo_hi) != 2
                or not all(is_finite_number(v) for v in lo_hi) or not lo_hi[0] < lo_hi[1]):
            raise ValidationError(f"score_range must be two finite numbers lo < hi, got {lo_hi!r}")
        object.__setattr__(self, "score_range", tuple(lo_hi))
        if self.timeout_ms <= 0:
            raise ValidationError(f"scorer timeout_ms must be > 0, got {self.timeout_ms}")
        if self.timeout_ms > MAX_TIMEOUT_MS:
            raise ValidationError(f"scorer timeout_ms must be <= {MAX_TIMEOUT_MS} (one day), got {self.timeout_ms}")
        try:
            json.dumps(self.extra, allow_nan=False)  # it rides in every remote request
        except ValueError:
            raise ValidationError("scorer extra must hold only finite numbers") from None

    def check_item_fields(self, sent: Sequence[str]) -> None:
        """Raise ValidationError naming the first item field this scorer
        reads that a caller sending only the fields `sent` leaves out. A
        remote scorer declares none."""
        missing = [name for name in self._reads if name not in sent]
        if missing:
            raise ValidationError(f"scorer {self.name!r} reads the item field {missing[0]!r}, "
                                  f"but items here carry only {', '.join(sent)}")

    def _clamp(self, value: float) -> float:
        lo, hi = self.score_range
        return min(max(float(value), lo), hi)

    def score_many(self, items: Sequence[Item]) -> list[float | None]:
        """One score per item, None where it is unscored."""
        fn = self._fn
        if fn is None:
            return self._score_remote(items)
        return [None if s is None else self._clamp(s) for s in map(fn, items)]

    def _score_remote(self, items: Sequence[Item]) -> list[float | None]:
        payload: dict = {"name": self.name, "items": list(items)}
        if self.extra:
            payload["config"] = dict(self.extra)
        try:
            reply = post_json(self.config, payload, SCORER_TOKEN_ENV, self.timeout_ms / 1000.0)
        except BackendFailure:
            return [None] * len(items)
        scores = reply.get("scores") if isinstance(reply, dict) else None
        if not isinstance(scores, list) or len(scores) != len(items):
            return [None] * len(items)
        return [self._clamp(s) if is_finite_number(s) else None for s in scores]

    def score_one(self, item: Item) -> float | None:
        return self.score_many([item])[0]


def scorer_from_obj(obj: dict, where: object = "scorer config") -> ScorerEndpoint:
    """Build an endpoint from its JSON form, checked against its FIELDS; a
    remote one also checks the token it will send."""
    scorer = dataclass_from_obj(ScorerEndpoint, obj, where)
    if scorer.kind == "remote_http":
        require_sendable_token(SCORER_TOKEN_ENV, where)
    return scorer
