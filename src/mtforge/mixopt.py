"""Data-mixture optimization and the pre-training learning-rate schedule.

Mixtures live on the probability simplex. The ratio-to-loss surface is fit
with a degree-2 polynomial (linear terms plus pairwise products; that basis
spans every quadratic restricted to the simplex, intercept included) and
minimized by scoring a large sample of fresh Dirichlet candidates plus the
simplex vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .errors import SchemaError, ValidationError
from .ioutils import is_finite_number, read_records

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class MixtureSpec:
    domains: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.domains) != len(self.weights):
            raise ValidationError("domains and weights differ in length")
        if not self.domains:
            raise ValidationError("mixture needs at least one domain")
        if not all(type(d) is str for d in self.domains):
            raise ValidationError("domain names must be strings")
        if len(set(self.domains)) != len(self.domains):
            raise ValidationError("duplicate domain names")
        if not all(is_finite_number(w) for w in self.weights):
            raise ValidationError("mixture weights must be finite numbers")
        if any(w < 0 for w in self.weights):
            raise ValidationError("mixture weights must be >= 0")
        if abs(sum(self.weights) - 1.0) > SIMPLEX_TOL:
            raise ValidationError(f"mixture weights sum to {sum(self.weights)!r}, not 1")


@dataclass(frozen=True)
class ProxyRun:
    mixture: MixtureSpec
    observed_loss: float

    def __post_init__(self):
        if not is_finite_number(self.observed_loss):
            raise ValidationError("proxy-run loss must be finite")
        object.__setattr__(self, "observed_loss", float(self.observed_loss))


def sample_mixtures(
    domains: Sequence[str], n: int, dirichlet_alpha: float = 1.0, seed: int = 0
) -> list[MixtureSpec]:
    """n i.i.d. symmetric-Dirichlet draws over the given domains."""
    if n < 1:
        raise ValidationError(f"need n >= 1 samples, got {n}")
    if dirichlet_alpha <= 0:
        raise ValidationError(f"dirichlet alpha must be > 0, got {dirichlet_alpha}")
    domains = tuple(domains)
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet(np.full(len(domains), dirichlet_alpha), size=n)
    return [MixtureSpec(domains, tuple(float(w) for w in row)) for row in draws]


def _features(weights: np.ndarray) -> np.ndarray:
    """Degree-2 feature map: [w_1..w_d, w_i*w_j for i<j]; no intercept
    (constants are already in the span on the simplex)."""
    w = np.asarray(weights, dtype=float)
    single = w
    d = w.shape[-1]
    pairs = [w[..., i] * w[..., j] for i in range(d) for j in range(i + 1, d)]
    if pairs:
        return np.concatenate([single, np.stack(pairs, axis=-1)], axis=-1)
    return single


def n_features(d: int) -> int:
    return d + d * (d - 1) // 2


@dataclass(frozen=True)
class RegressionModel:
    domains: tuple[str, ...]
    coefficients: tuple[float, ...]
    ridge_lambda: float

    # JSON type of each field, for dataclass_from_obj
    FIELDS: ClassVar[dict] = {"domains": "array", "coefficients": "array", "ridge_lambda": "number"}

    def __post_init__(self):
        domains = tuple(self.domains)
        if not domains or not all(type(d) is str for d in domains) or len(set(domains)) != len(domains):
            raise ValidationError("domains must be a non-empty list of distinct names")
        if len(self.coefficients) != n_features(len(domains)):
            raise ValidationError(f"{len(self.coefficients)} coefficients for {len(domains)} domains, "
                                  f"expected {n_features(len(domains))}")
        # the magnitudes' sum bounds every prediction, so none can overflow
        if (not all(is_finite_number(c) for c in (*self.coefficients, self.ridge_lambda))
                or not math.isfinite(sum(abs(float(c)) for c in self.coefficients))):
            raise ValidationError("coefficients and ridge_lambda must be finite numbers")
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "coefficients", tuple(map(float, self.coefficients)))

    def predict(self, mixture: MixtureSpec) -> float:
        if mixture.domains != self.domains:
            raise ValidationError("mixture domains do not match the fitted model")
        return float(self.predict_many(np.array(mixture.weights)))

    def predict_many(self, weight_rows: np.ndarray) -> np.ndarray:
        return _features(weight_rows) @ np.array(self.coefficients)


def fit_regression(runs: Sequence[ProxyRun], ridge_lambda: float = 0.0) -> RegressionModel:
    """Closed-form (ridge) least squares from proxy runs to observed loss."""
    if ridge_lambda < 0:
        raise ValidationError(f"ridge lambda must be >= 0, got {ridge_lambda}")
    if not runs:
        raise ValidationError("no proxy runs to fit")
    domains = runs[0].mixture.domains
    if any(run.mixture.domains != domains for run in runs):
        raise ValidationError("proxy runs disagree on domain list")
    X = _features(np.array([run.mixture.weights for run in runs]))
    y = np.array([run.observed_loss for run in runs])
    f = X.shape[1]
    if ridge_lambda == 0.0:
        if len(runs) < f:
            raise ValidationError(f"need >= {f} runs to fit {f} features with lambda=0")
        coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        if rank < f:
            raise ValidationError("degenerate design matrix; use ridge_lambda > 0")
    else:
        coef = np.linalg.solve(X.T @ X + ridge_lambda * np.eye(f), X.T @ y)
    return RegressionModel(domains, tuple(float(c) for c in coef), ridge_lambda)


def optimize_mixture(model: RegressionModel, n_candidates: int, seed: int = 0) -> MixtureSpec:
    """Mixture minimizing predicted loss over fresh Dirichlet(1) candidates
    plus the simplex vertices; ties go to the lowest candidate index."""
    if n_candidates < 1:
        raise ValidationError(f"need n_candidates >= 1, got {n_candidates}")
    d = len(model.domains)
    rng = np.random.default_rng(seed)
    candidates = rng.dirichlet(np.ones(d), size=n_candidates)
    pool = np.vstack([candidates, np.eye(d)])
    preds = model.predict_many(pool)
    best = int(np.argmin(preds))
    weights = pool[best]
    weights = weights / weights.sum()
    return MixtureSpec(model.domains, tuple(float(w) for w in weights))


def blend_replay(
    mt_mixture: MixtureSpec, replay_fraction: float, replay_domain: str
) -> MixtureSpec:
    """Reserve a fraction of the mixture for a replay domain, rescaling the rest."""
    if not 0 <= replay_fraction < 1:
        raise ValidationError(f"replay fraction must be in [0, 1), got {replay_fraction}")
    if replay_domain in mt_mixture.domains:
        raise ValidationError(f"replay domain {replay_domain!r} already in mixture")
    domains = (replay_domain,) + mt_mixture.domains
    scale = 1.0 - replay_fraction
    weights = (replay_fraction,) + tuple(scale * w for w in mt_mixture.weights)
    total = sum(weights)
    if abs(total - 1.0) > SIMPLEX_TOL:  # guard against accumulated rounding
        weights = tuple(w / total for w in weights)
    return MixtureSpec(domains, weights)


@dataclass(frozen=True)
class LrSchedule:
    warmup_steps: int
    total_steps: int
    peak_lr: float
    min_lr: float
    decay_shape: str = "cosine"

    def __post_init__(self):
        if self.warmup_steps < 0:
            raise ValidationError("warmup_steps must be >= 0")
        if self.total_steps <= self.warmup_steps:
            raise ValidationError("total_steps must exceed warmup_steps")
        if self.peak_lr <= 0:
            raise ValidationError("peak_lr must be > 0")
        if not 0 <= self.min_lr <= self.peak_lr:
            raise ValidationError("min_lr must be in [0, peak_lr]")
        if self.decay_shape not in ("cosine", "linear"):
            raise ValidationError(f"decay shape must be cosine or linear, not {self.decay_shape!r}")


def lr_at(schedule: LrSchedule, step: int) -> float:
    """Learning rate at a step: linear 0->peak ramp over the warmup, then
    cosine (default) or linear decay to min_lr. Boundary values are exact."""
    if not 0 <= step <= schedule.total_steps:
        raise ValidationError(f"step {step} outside [0, {schedule.total_steps}]")
    if step < schedule.warmup_steps:
        return schedule.peak_lr * step / schedule.warmup_steps
    if step == schedule.warmup_steps:
        return schedule.peak_lr
    if step == schedule.total_steps:
        return schedule.min_lr
    progress = (step - schedule.warmup_steps) / (schedule.total_steps - schedule.warmup_steps)
    span = schedule.peak_lr - schedule.min_lr
    if schedule.decay_shape == "cosine":
        return schedule.min_lr + span * 0.5 * (1.0 + math.cos(math.pi * progress))
    return schedule.peak_lr - span * progress


# -- proxy-run IO ------------------------------------------------------------


def _proxy_run(obj: dict) -> ProxyRun:
    return ProxyRun(MixtureSpec(tuple(obj["domains"]), tuple(obj["weights"])), obj["loss"])


def read_proxy_runs(path: str | Path) -> list[ProxyRun]:
    """The proxy runs of a JSON Lines file, at least one, all over the
    first run's domain list; a fault raises SchemaError naming the file
    and, for a line, the line."""
    fields = {"domains": "array", "weights": "array", "loss": "number"}
    runs: list[ProxyRun] = []
    for lineno, run in read_records(path, fields, required=fields, build=_proxy_run):
        if runs and run.mixture.domains != runs[0].mixture.domains:
            raise SchemaError(f"{path}: line {lineno}: domains {list(run.mixture.domains)} differ from "
                              f"the first run's {list(runs[0].mixture.domains)}")
        runs.append(run)
    if not runs:
        raise SchemaError(f"{path}: no proxy runs to fit")
    return runs
