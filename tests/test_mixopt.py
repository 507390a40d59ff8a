import math

import numpy as np
import pytest

from mtforge.errors import ValidationError
from mtforge.ioutils import write_jsonl
from mtforge.mixopt import (
    LrSchedule,
    MixtureSpec,
    ProxyRun,
    RegressionModel,
    _features,
    blend_replay,
    fit_regression,
    lr_at,
    n_features,
    optimize_mixture,
    read_proxy_runs,
    sample_mixtures,
)

DOMAINS3 = ("web", "books", "parallel")


def _runs_from(loss_fn, n, seed, noise=0.0, domains=DOMAINS3):
    mixtures = sample_mixtures(domains, n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    out = []
    for m in mixtures:
        loss = loss_fn(np.array(m.weights)) + (noise and rng.normal(0, noise))
        out.append(ProxyRun(m, float(loss)))
    return out


class TestSampling:
    def test_single_domain_is_degenerate(self):
        for m in sample_mixtures(["only"], 5, seed=1):
            assert m.weights == (1.0,)

    def test_simplex_membership(self):
        for m in sample_mixtures(DOMAINS3, 500, seed=2):
            assert all(w >= 0 for w in m.weights)
            assert abs(sum(m.weights) - 1) <= 1e-9

    def test_dirichlet_moments(self):
        draws = sample_mixtures(DOMAINS3, 10_000, dirichlet_alpha=1.0, seed=3)
        means = np.array([m.weights for m in draws]).mean(axis=0)
        assert np.all(np.abs(means - 1 / 3) <= 0.02)

    def test_deterministic_under_seed(self):
        assert sample_mixtures(DOMAINS3, 10, seed=9) == sample_mixtures(DOMAINS3, 10, seed=9)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            sample_mixtures(DOMAINS3, 0)
        with pytest.raises(ValidationError):
            sample_mixtures(DOMAINS3, 1, dirichlet_alpha=0)

    def test_mixture_validation(self):
        with pytest.raises(ValidationError):
            MixtureSpec(("a", "b"), (0.7, 0.7))
        with pytest.raises(ValidationError):
            MixtureSpec(("a", "a"), (0.5, 0.5))


class TestRegression:
    def test_exact_quadratic_recovered(self):
        target = np.array([0.2, 0.3, 0.5])
        loss = lambda w: float(np.sum((w - target) ** 2))
        runs = _runs_from(loss, 64, seed=4)
        model = fit_regression(runs, ridge_lambda=0.0)
        for run in runs:
            assert abs(model.predict(run.mixture) - run.observed_loss) <= 1e-6

    def test_constant_loss_predicted_everywhere(self):
        runs = _runs_from(lambda w: 2.5, 32, seed=5)
        model = fit_regression(runs, ridge_lambda=0.0)
        for m in sample_mixtures(DOMAINS3, 50, seed=6):
            assert abs(model.predict(m) - 2.5) <= 1e-9

    def test_noisy_quadratic_heldout_rmse(self):
        target = np.array([0.4, 0.4, 0.2])
        loss = lambda w: float(np.sum((w - target) ** 2))
        runs = _runs_from(loss, 512, seed=7, noise=0.01)
        model = fit_regression(runs, ridge_lambda=0.0)
        held = sample_mixtures(DOMAINS3, 256, seed=100)
        errs = [model.predict(m) - loss(np.array(m.weights)) for m in held]
        rmse = math.sqrt(sum(e * e for e in errs) / len(errs))
        assert rmse <= 0.02

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_features_are_the_weights_then_each_product_i_before_j(self, d):
        weights = np.random.default_rng(d).random((5, d))
        products = [weights[:, i] * weights[:, j] for i in range(d) for j in range(i + 1, d)]
        assert np.array_equal(_features(weights), np.column_stack([weights, *products]))
        assert _features(weights).shape == (5, n_features(d))

    def test_too_few_runs_rejected_at_lambda_zero(self):
        runs = _runs_from(lambda w: 1.0, n_features(3) - 1, seed=8)
        with pytest.raises(ValidationError):
            fit_regression(runs, ridge_lambda=0.0)

    def test_degenerate_design_rejected_at_lambda_zero(self):
        fixed = MixtureSpec(DOMAINS3, (0.2, 0.3, 0.5))
        runs = [ProxyRun(fixed, 1.0)] * 10
        with pytest.raises(ValidationError):
            fit_regression(runs, ridge_lambda=0.0)

    def test_ridge_handles_degenerate_design(self):
        fixed = MixtureSpec(DOMAINS3, (0.2, 0.3, 0.5))
        runs = [ProxyRun(fixed, 1.0)] * 10
        model = fit_regression(runs, ridge_lambda=1e-3)
        assert math.isfinite(model.predict(fixed))


class TestOptimize:
    def test_recovers_synthetic_optimum(self):
        target = np.array([0.2, 0.3, 0.5])
        loss = lambda w: float(np.sum((w - target) ** 2))
        runs = _runs_from(loss, 512, seed=11, noise=0.01)
        model = fit_regression(runs, ridge_lambda=0.0)
        best = optimize_mixture(model, 65536, seed=12)
        l1 = float(np.abs(np.array(best.weights) - target).sum())
        assert l1 <= 0.05

    def test_single_domain(self):
        runs = [ProxyRun(MixtureSpec(("one",), (1.0,)), 0.5)]
        model = fit_regression(runs, ridge_lambda=0.0)
        assert optimize_mixture(model, 10, seed=0).weights == (1.0,)

    def test_never_worse_than_any_vertex(self):
        rng = np.random.default_rng(13)
        coef = tuple(float(c) for c in rng.normal(size=n_features(3)))
        model = RegressionModel(DOMAINS3, coef, 0.0)
        best = optimize_mixture(model, 100, seed=14)
        for vertex in np.eye(3):
            assert model.predict(best) <= model.predict(MixtureSpec(DOMAINS3, tuple(vertex))) + 1e-12

    def test_monotone_loss_prefers_heavy_domain(self):
        # loss strictly decreasing in the first domain's weight
        runs = _runs_from(lambda w: 1.0 - w[0], 64, seed=15)
        model = fit_regression(runs, ridge_lambda=0.0)
        best = optimize_mixture(model, 2048, seed=16)
        samples = np.random.default_rng(16).dirichlet(np.ones(3), size=2048)
        assert best.weights[0] >= samples[:, 0].max() - 1e-12


class TestRegressionModel:
    def test_stores_tuples_of_floats(self):
        model = RegressionModel(["a", "b"], [1, 2, 3.5], 0)
        assert model == RegressionModel(("a", "b"), (1.0, 2.0, 3.5), 0)
        assert all(type(c) is float for c in model.coefficients)

    @pytest.mark.parametrize("domains, coefficients, ridge_lambda, message", [
        ((), (), 0.0, "non-empty list of distinct names"),
        (("a", 5), (1.0, 2.0, 3.0), 0.0, "non-empty list of distinct names"),
        (("a", "a"), (1.0, 2.0, 3.0), 0.0, "non-empty list of distinct names"),
        (("a", "b"), (1.0, 2.0), 0.0, "2 coefficients for 2 domains, expected 3"),
        (("a", "b"), (1.0, "3", 3.0), 0.0, "finite numbers"),
        (("a", "b"), (1.0, True, 3.0), 0.0, "finite numbers"),
        (("a", "b"), (1.0, math.inf, 3.0), 0.0, "finite numbers"),
        (("a", "b"), (1.0, 2.0, 3.0), math.nan, "finite numbers"),
        # finite, but a prediction could overflow
        (("a", "b"), (1e308, 1e308, 0.0), 0.0, "finite numbers"),
    ])
    def test_bad_surface_rejected(self, domains, coefficients, ridge_lambda, message):
        with pytest.raises(ValidationError, match=message):
            RegressionModel(domains, coefficients, ridge_lambda)


class TestBlendReplay:
    def test_twenty_percent_replay(self):
        mixture = MixtureSpec(("a", "b"), (0.5, 0.5))
        blended = blend_replay(mixture, 0.2, "replay")
        assert blended.domains == ("replay", "a", "b")
        assert blended.weights == (0.2, 0.4, 0.4)

    def test_zero_fraction_identity(self):
        mixture = MixtureSpec(("a", "b"), (0.25, 0.75))
        blended = blend_replay(mixture, 0.0, "replay")
        assert blended.weights == (0.0, 0.25, 0.75)

    def test_half_on_single_domain(self):
        blended = blend_replay(MixtureSpec(("a",), (1.0,)), 0.5, "replay")
        assert blended.weights == (0.5, 0.5)

    def test_fraction_bounds(self):
        mixture = MixtureSpec(("a",), (1.0,))
        with pytest.raises(ValidationError):
            blend_replay(mixture, 1.0, "r")
        with pytest.raises(ValidationError):
            blend_replay(mixture, -0.1, "r")

    def test_existing_domain_rejected(self):
        with pytest.raises(ValidationError):
            blend_replay(MixtureSpec(("a",), (1.0,)), 0.2, "a")


class TestLrSchedule:
    def _schedule(self, shape="cosine"):
        return LrSchedule(warmup_steps=100, total_steps=1100, peak_lr=3e-4, min_lr=3e-5, decay_shape=shape)

    def test_boundaries_exact(self):
        s = self._schedule()
        assert lr_at(s, 100) == 3e-4
        assert lr_at(s, 1100) == 3e-5
        assert lr_at(s, 0) == 0.0

    def test_cosine_midpoint(self):
        s = self._schedule()
        mid = 100 + (1100 - 100) // 2
        assert math.isclose(lr_at(s, mid), (3e-4 + 3e-5) / 2, abs_tol=1e-9)

    def test_linear_midpoint(self):
        s = self._schedule("linear")
        mid = 100 + (1100 - 100) // 2
        assert math.isclose(lr_at(s, mid), (3e-4 + 3e-5) / 2, abs_tol=1e-12)

    def test_continuity(self):
        s = self._schedule()
        bound = 2 * s.peak_lr / min(s.warmup_steps, s.total_steps - s.warmup_steps)
        for step in range(s.total_steps):
            assert abs(lr_at(s, step + 1) - lr_at(s, step)) <= bound

    def test_out_of_range_rejected(self):
        s = self._schedule()
        with pytest.raises(ValidationError):
            lr_at(s, -1)
        with pytest.raises(ValidationError):
            lr_at(s, 1101)

    def test_zero_warmup(self):
        s = LrSchedule(0, 10, 1.0, 0.1)
        assert lr_at(s, 0) == 1.0
        assert lr_at(s, 10) == 0.1

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValidationError):
            LrSchedule(10, 10, 1.0, 0.1)
        with pytest.raises(ValidationError):
            LrSchedule(0, 10, 1.0, 2.0)


def _write_runs(runs, path):
    """Proxy runs as the JSON Lines that read_proxy_runs reads."""
    return write_jsonl(path, ({"domains": run.mixture.domains, "weights": run.mixture.weights,
                               "loss": run.observed_loss} for run in runs))


class TestProxyRunIo:
    def test_round_trip(self, tmp_path):
        runs = _runs_from(lambda w: float(w[0]), 8, seed=20)
        path = tmp_path / "runs.jsonl"
        assert _write_runs(runs, path) == 8
        assert read_proxy_runs(path) == runs

    def test_non_ascii_domains_written_as_utf8(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        runs = [ProxyRun(MixtureSpec(("网页", "books"), (0.5, 0.5)), 1.0)]
        _write_runs(runs, path)
        assert "网页" in path.read_text("utf-8")
        assert read_proxy_runs(path) == runs

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"domains": ["a"], "weights": [1.0], "loss": 1.0}\n{"weights": [1.0]}\n')
        with pytest.raises(ValidationError, match="line 2"):
            read_proxy_runs(path)
