"""Tests for held-out scoring, residual diagnostics, and comparison tables."""

import math

import numpy as np
import pytest
import scipy.stats

from hawkeskit import (
    SimConfig,
    Corpus,
    EventSequence,
    ExponentialKernel,
    FormatError,
    HawkesModel,
    LearnConfig,
    RankDeficiencyError,
    ValidationError,
    compare_learners,
    fit_ls,
    fit_mle,
    heldout_loglik,
    ks_bound,
    log_likelihood,
    read_compare_csv,
    rescaling_test,
    simulate_ogata,
    write_compare_csv,
)
from hawkeskit.evaluate import _ks_exp1


def two_dim_model(mu=(0.3, 0.6), a=((0.4, 0.1), (0.2, 0.3)), decay=1.0):
    return HawkesModel(
        mu=np.array(mu),
        kernel=ExponentialKernel(decay=decay),
        A=np.array(a, dtype=float),
    )


def simulate_corpus(model, n, t_end, seed):
    return simulate_ogata(SimConfig(model, t_end=t_end, n_sequences=n, rng_seed=seed))


def one_sequence(model, t_end, seed):
    return simulate_ogata(SimConfig(model, t_end=t_end, rng_seed=seed)).sequences[0]


class TestHeldout:
    def test_total_is_stable_sum_of_per_sequence_values(self):
        model = two_dim_model()
        corpus = simulate_corpus(model, 6, 30.0, seed=0)
        out = heldout_loglik(model, corpus)
        expected = tuple(log_likelihood(model, seq) for seq in corpus)
        assert out["per_sequence"] == expected
        assert out["total"] == math.fsum(expected)
        assert out["per_event"] == out["total"] / corpus.n_events
        assert out["undefined"] is False

    def test_empty_corpus_scores_zero(self):
        model = two_dim_model()
        out = heldout_loglik(model, Corpus(sequences=(), dim=2))
        assert out == {
            "total": 0.0,
            "per_event": 0.0,
            "per_sequence": (),
            "undefined": False,
        }

    def test_zero_rate_model_is_flagged_undefined(self):
        silent = HawkesModel(
            mu=np.zeros(1), kernel=ExponentialKernel(decay=1.0), A=np.zeros((1, 1))
        )
        seq = EventSequence(
            times=np.array([1.0]), marks=np.array([0]), t_start=0.0, t_end=2.0, dim=1
        )
        out = heldout_loglik(silent, Corpus(sequences=(seq,), dim=1))
        assert out["total"] == -math.inf
        assert out["undefined"] is True

    def test_eventless_corpus_has_finite_score_and_zero_per_event(self):
        model = two_dim_model()
        seq = EventSequence(
            times=np.array([]), marks=np.array([], dtype=int),
            t_start=0.0, t_end=5.0, dim=2,
        )
        out = heldout_loglik(model, Corpus(sequences=(seq,), dim=2))
        # only the compensator survives: -(0.3 + 0.6) * 5
        assert out["total"] == pytest.approx(-4.5, rel=1e-12)
        assert out["per_event"] == 0.0


class TestKsStatistic:
    def test_matches_scipy_on_random_draws(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 50, 400):
            x = rng.exponential(size=n)
            ours = _ks_exp1(x)
            ref = scipy.stats.kstest(x, "expon").statistic
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_matches_scipy_on_badly_fitted_draws(self):
        rng = np.random.default_rng(4)
        x = rng.exponential(scale=3.0, size=200)
        assert _ks_exp1(x) == pytest.approx(
            scipy.stats.kstest(x, "expon").statistic, abs=1e-12
        )

    def test_bound_values(self):
        assert ks_bound(100) == pytest.approx(1.36 / 10.0 + 0.01)
        assert ks_bound(0) == math.inf
        assert ks_bound(-3) == math.inf


class TestRescaling:
    def test_true_model_passes_its_own_residual_test(self):
        model = two_dim_model()
        seq = one_sequence(model, 400.0, seed=11)
        out = rescaling_test(model, seq)
        assert out["n_transformed"] == len(seq)
        assert out["ks_statistic"] < ks_bound(out["n_transformed"])

    def test_wrong_model_fails_clearly(self):
        model = two_dim_model()
        seq = one_sequence(model, 400.0, seed=12)
        wrong = two_dim_model(mu=(1.5, 3.0))
        out = rescaling_test(wrong, seq)
        assert out["ks_statistic"] > ks_bound(out["n_transformed"])

    def test_empty_sequence_reports_zero(self):
        seq = EventSequence(
            times=np.array([]), marks=np.array([], dtype=int),
            t_start=0.0, t_end=10.0, dim=2,
        )
        assert rescaling_test(two_dim_model(), seq) == {
            "ks_statistic": 0.0,
            "n_transformed": 0,
        }

    def test_dimension_mismatch_rejected(self):
        seq = EventSequence(
            times=np.array([1.0]), marks=np.array([0]), t_start=0.0, t_end=2.0, dim=1
        )
        with pytest.raises(ValidationError):
            rescaling_test(two_dim_model(), seq)

    def test_poisson_increments_reduce_to_scaled_gaps(self):
        # With no excitation the per-dimension increments are mu[u] times the
        # waiting times of that dimension, so we can rebuild the pooled sample
        # directly and match the statistic.
        model = HawkesModel(
            mu=np.array([0.7, 0.4]),
            kernel=ExponentialKernel(decay=1.0),
            A=np.zeros((2, 2)),
        )
        seq = one_sequence(model, 200.0, seed=13)
        expected = []
        for u in range(2):
            t_u = seq.times[seq.marks == u]
            gaps = np.diff(np.concatenate(([seq.t_start], t_u)))
            expected.extend(model.mu[u] * gaps)
        out = rescaling_test(model, seq)
        assert out["n_transformed"] == len(expected)
        assert out["ks_statistic"] == pytest.approx(
            _ks_exp1(np.asarray(expected)), abs=1e-9
        )


@pytest.fixture(scope="module")
def _split_corpora():
    model = two_dim_model()
    train = simulate_corpus(model, 20, 60.0, seed=21)
    test = simulate_corpus(model, 8, 60.0, seed=22)
    return model, train, test


class TestCompare:
    @pytest.fixture
    def split_corpora(self, _split_corpora):
        return _split_corpora

    def test_rows_cover_specs_in_order_with_scores(self, split_corpora):
        truth, train, test = split_corpora
        cfg = LearnConfig(max_iters=80, tol=1e-8)
        specs = [
            ("em", lambda c: fit_mle(c, ExponentialKernel(decay=1.0), cfg)),
            ("ls", lambda c: fit_ls(c, bin_width=0.5, lags=16, ridge=1e-3)),
        ]
        rows = compare_learners(train, test, specs, truth=truth)
        assert [r["name"] for r in rows] == ["em", "ls"]
        for row in rows:
            assert row["error"] == ""
            assert row["wall_time_s"] == 0.0
            assert row["iterations"] >= 1
            assert math.isfinite(row["per_event_ll"])
            assert 0.0 <= row["mu_relerr"] < 1.0
            assert 0.0 <= row["kernel_relerr"] < 1.0

    def test_without_truth_the_error_columns_stay_empty(self, split_corpora):
        _, train, test = split_corpora
        specs = [
            ("em", lambda c: fit_mle(
                c, ExponentialKernel(decay=1.0),
                LearnConfig(max_iters=30),
            )),
        ]
        (row,) = compare_learners(train, test, specs)
        assert row["mu_relerr"] is None
        assert row["kernel_relerr"] is None

    def test_failing_learner_is_recorded_and_the_run_continues(self, split_corpora):
        truth, train, test = split_corpora

        def broken(corpus):
            raise RankDeficiencyError("design matrix is singular")

        specs = [
            ("bad-ls", broken),
            ("em", lambda c: fit_mle(
                c, ExponentialKernel(decay=1.0),
                LearnConfig(max_iters=30),
            )),
        ]
        rows = compare_learners(train, test, specs, truth=truth)
        assert rows[0]["error"] == "RankDeficiencyError"
        assert rows[0]["per_event_ll"] is None
        assert rows[0]["iterations"] is None
        assert rows[1]["error"] == ""
        assert math.isfinite(rows[1]["per_event_ll"])

    def test_non_package_exceptions_propagate(self, split_corpora):
        _, train, test = split_corpora

        def explode(corpus):
            raise RuntimeError("not a package error")

        with pytest.raises(RuntimeError):
            compare_learners(train, test, [("boom", explode)])

    def test_csv_round_trip(self, split_corpora, tmp_path):
        truth, train, test = split_corpora

        def broken(corpus):
            raise RankDeficiencyError("no")

        specs = [
            ("em", lambda c: fit_mle(
                c, ExponentialKernel(decay=1.0),
                LearnConfig(max_iters=40),
            )),
            ("bad", broken),
        ]
        rows = compare_learners(train, test, specs, truth=truth)
        path = str(tmp_path / "compare.csv")
        write_compare_csv(rows, path)
        back = read_compare_csv(path)
        assert len(back) == 2
        assert back[0]["name"] == "em"
        assert back[0]["per_event_ll"] == pytest.approx(
            rows[0]["per_event_ll"], rel=1e-11
        )
        assert back[0]["mu_relerr"] == pytest.approx(rows[0]["mu_relerr"], rel=1e-11)
        assert back[0]["error"] == ""
        assert back[1] == {
            "name": "bad",
            "per_event_ll": None,
            "mu_relerr": None,
            "kernel_relerr": None,
            "wall_time_s": 0.0,
            "iterations": None,
            "error": "RankDeficiencyError",
        }

    def test_reader_rejects_foreign_headers(self, tmp_path):
        path = tmp_path / "not_compare.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(FormatError, match="unexpected comparison header"):
            read_compare_csv(str(path))

    @pytest.mark.parametrize("cells", ["em,x,0.1,0.2,0,5,", "em,-1.0,0.1,0.2,0,2.5,"])
    def test_reader_rejects_a_cell_that_is_not_a_number(self, tmp_path, cells):
        path = tmp_path / "compare.csv"
        path.write_text(
            "name,per_event_ll,mu_relerr,kernel_relerr,wall_time_s,iterations,error\n"
            + cells + "\n"
        )
        with pytest.raises(FormatError, match="malformed comparison row"):
            read_compare_csv(str(path))
