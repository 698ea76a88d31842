"""Estimators: EM with penalties, the lag-grid learner, least squares."""

import dataclasses
import math

import numpy as np
import pytest

from hawkeskit.core import (
    DiscretizedKernel,
    EventSequence,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesModel,
    branching_matrix,
    kernel_lag_averages,
)
from hawkeskit.core import ValidationError
from hawkeskit.data import Corpus
from hawkeskit.learn import (
    LearnConfig,
    Penalty,
    RankDeficiencyError,
    _bin_counts,
    estimation_error,
    exp_nll_and_grad,
    fit_ls,
    fit_mle,
    fit_mle_ode,
)
from hawkeskit.simulate import SimConfig, simulate_branch


def sim_corpus(model, t_end, n, seed):
    return simulate_branch(SimConfig(model, t_end=t_end, n_sequences=n, rng_seed=seed))


def truth_1d(a=0.5, mu=0.5, decay=1.0):
    return HawkesModel(
        mu=np.array([mu]), kernel=ExponentialKernel(decay=decay), A=np.array([[a]])
    )


def truth_2d():
    return HawkesModel(
        mu=np.array([0.3, 0.6]),
        kernel=ExponentialKernel(decay=1.0),
        A=np.array([[0.4, 0.1], [0.2, 0.3]]),
    )


def monotone(trace, tol=1e-10):
    t = np.asarray(trace)
    return bool(np.all(np.diff(t) <= tol))


class TestMleExponential:
    def test_poisson_data_drives_excitation_down(self):
        flat = HawkesModel(
            mu=np.array([1.2]), kernel=ExponentialKernel(decay=1.0), A=np.array([[0.0]])
        )
        corpus = sim_corpus(flat, 80.0, 30, seed=0)
        rep = fit_mle(corpus, ExponentialKernel(decay=1.0), LearnConfig(max_iters=250))
        events_per_time = corpus.n_events / (30 * 80.0)
        # total predicted rate mu/(1-a) must track the empirical rate, with
        # the excitation share small on memoryless data
        assert float(branching_matrix(rep.model)[0, 0]) < 0.12
        implied = float(rep.model.mu[0]) / (1.0 - float(rep.model.A[0, 0]))
        assert implied == pytest.approx(events_per_time, rel=0.05)

    def test_recovers_planted_parameters(self):
        corpus = sim_corpus(truth_1d(), 100.0, 80, seed=1)
        rep = fit_mle(corpus, ExponentialKernel(decay=1.0), LearnConfig(max_iters=300))
        err = estimation_error(rep.model, truth_1d())
        assert err["mu_relerr"] < 0.1
        assert err["kernel_relerr"] < 0.1
        assert rep.converged

    def test_trace_never_increases(self):
        corpus = sim_corpus(truth_2d(), 60.0, 10, seed=2)
        rep = fit_mle(corpus, ExponentialKernel(decay=1.0), LearnConfig(max_iters=120))
        assert monotone(rep.objective_trace)
        assert rep.iterations == len(rep.objective_trace) - 1

    def test_integer_weights_equal_duplication(self):
        corpus = sim_corpus(truth_2d(), 40.0, 6, seed=3)
        doubled = Corpus(
            tuple(
                dataclasses.replace(s, id=f"{s.id}-{k}")
                for k in range(2)
                for s in corpus
            ),
            corpus.dim,
            None,
        )
        cfg = LearnConfig(max_iters=60)
        a = fit_mle(corpus, ExponentialKernel(decay=1.0), cfg, weights=np.full(6, 2.0))
        b = fit_mle(doubled, ExponentialKernel(decay=1.0), cfg)
        assert np.allclose(a.model.mu, b.model.mu, atol=1e-10)
        assert np.allclose(a.model.A, b.model.A, atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_are_refused_up_front(self, bad):
        corpus = sim_corpus(truth_2d(), 20.0, 3, seed=3)
        with pytest.raises(ValidationError, match="weights must be finite"):
            fit_mle(corpus, ExponentialKernel(decay=1.0), LearnConfig(max_iters=5),
                    weights=[bad, 1.0, 1.0])

    def test_basis_kernel_fit_runs_and_descends(self):
        truth = HawkesModel(
            mu=np.array([0.4]),
            kernel=GaussianBasisKernel(centers=np.array([0.5, 1.5]), bandwidth=0.5, support=4.0),
            A=np.array([[[0.3]], [[0.2]]]),
        )
        corpus = sim_corpus(truth, 60.0, 20, seed=4)
        rep = fit_mle(corpus, truth.kernel, LearnConfig(max_iters=150))
        assert monotone(rep.objective_trace)
        err = estimation_error(rep.model, truth)
        assert err["kernel_relerr"] < 0.35

    @pytest.mark.parametrize(
        "template",
        [
            ExponentialKernel(decay=1.0),
            GaussianBasisKernel(centers=np.array([0.5, 1.5]), bandwidth=0.5, support=4.0),
        ],
        ids=["exp", "basis"],
    )
    def test_warm_start_from_fitted_model_continues_the_trace(self, template):
        corpus = sim_corpus(truth_2d(), 40.0, 6, seed=3)
        # a tolerance no relative change meets, so every run takes all its steps
        cfg = LearnConfig(max_iters=8, tol=1e-300)
        first = fit_mle(corpus, template, cfg)
        warm = fit_mle(corpus, template, cfg, init=(first.model.mu, first.model.A))
        whole = fit_mle(corpus, template, dataclasses.replace(cfg, max_iters=16))
        assert warm.objective_trace[0] == first.objective_trace[-1]
        assert first.objective_trace + warm.objective_trace[1:] == whole.objective_trace
        assert np.array_equal(warm.model.A, whole.model.A)
        assert np.array_equal(warm.model.mu, whole.model.mu)

    @pytest.mark.parametrize(
        "init",
        [
            (np.full(2, 0.3), np.full((1, 2, 2), 0.1)),
            (np.full(1, 0.3), np.full((2, 2), 0.1)),
            (np.full(2, 0.3), np.full((3, 3), 0.1)),
            (np.full(2, 0.3), np.full((2, 2), np.nan)),
            (np.full(2, -0.3), np.full((2, 2), 0.1)),
            (np.full(2, 0.3),),
        ],
        ids=["internal_layout", "short_mu", "wrong_dim", "nan_A", "negative_mu", "not_a_pair"],
    )
    def test_warm_start_rejects_bad_init(self, init):
        corpus = sim_corpus(truth_2d(), 20.0, 2, seed=3)
        with pytest.raises(ValidationError):
            fit_mle(corpus, ExponentialKernel(decay=1.0), LearnConfig(max_iters=2), init=init)


@pytest.fixture(scope="module")
def penalty_corpus():
    return sim_corpus(truth_2d(), 50.0, 12, seed=5)


class TestPenalties:
    @pytest.fixture
    def corpus(self, penalty_corpus):
        return penalty_corpus

    @pytest.mark.parametrize(
        "kind,weight",
        [("none", 0.0), ("sparse", 2.0), ("group_sparse", 2.0), ("low_rank", 2.0)],
    )
    def test_each_penalty_descends(self, corpus, kind, weight):
        cfg = LearnConfig(max_iters=80, penalty=Penalty(kind, weight))
        rep = fit_mle(corpus, ExponentialKernel(decay=1.0), cfg)
        assert monotone(rep.objective_trace)

    def test_sparse_weight_shrinks_branching(self, corpus):
        norms = []
        for w in (0.0, 5.0, 50.0):
            cfg = LearnConfig(max_iters=120, penalty=Penalty("sparse", w))
            rep = fit_mle(corpus, ExponentialKernel(decay=1.0), cfg)
            norms.append(float(np.abs(branching_matrix(rep.model)).sum()))
        assert norms[0] > norms[1] > norms[2]

    def test_huge_sparse_weight_zeroes_kernel(self, corpus):
        cfg = LearnConfig(max_iters=200, penalty=Penalty("sparse", 1e6))
        rep = fit_mle(corpus, ExponentialKernel(decay=1.0), cfg)
        assert float(np.abs(rep.model.A).max()) < 1e-4

    def test_group_reduces_to_scalar_penalty_in_one_dimension(self):
        # with a single source row the row norm is |a|, so the group update's
        # fixed point must coincide with the entrywise penalty's closed form
        t1 = truth_1d()
        c1 = sim_corpus(t1, 80.0, 20, seed=6)
        for w in (5.0, 50.0):
            cfg_s = LearnConfig(max_iters=500, tol=1e-12, penalty=Penalty("sparse", w))
            cfg_g = LearnConfig(
                max_iters=500, tol=1e-12, penalty=Penalty("group_sparse", w)
            )
            a_s = fit_mle(c1, ExponentialKernel(decay=1.0), cfg_s).model.A[0, 0]
            a_g = fit_mle(c1, ExponentialKernel(decay=1.0), cfg_g).model.A[0, 0]
            assert a_g == pytest.approx(a_s, abs=1e-6)

    def test_group_prunes_a_silent_source_row_jointly(self):
        truth = HawkesModel(
            mu=np.array([0.5, 0.5]),
            kernel=ExponentialKernel(decay=1.0),
            A=np.array([[0.35, 0.25], [0.0, 0.0]]),  # dimension 1 excites nothing
        )
        corpus = sim_corpus(truth, 80.0, 40, seed=7)
        cfg = LearnConfig(max_iters=400, tol=1e-12, penalty=Penalty("group_sparse", 100.0))
        rep = fit_mle(corpus, ExponentialKernel(decay=1.0), cfg)
        row_norms = np.linalg.norm(rep.model.A, axis=1)
        assert row_norms[1] < 1e-6  # whole silent row driven to zero together
        assert row_norms[0] > 0.3  # live row survives

    def test_low_rank_weight_compresses_spectrum(self, corpus):
        def tail_ratio(weight):
            cfg = LearnConfig(max_iters=150, penalty=Penalty("low_rank", weight))
            rep = fit_mle(corpus, ExponentialKernel(decay=1.0), cfg)
            s = np.linalg.svd(branching_matrix(rep.model), compute_uv=False)
            return s[1] / max(s[0], 1e-12)

        assert tail_ratio(6.0) < tail_ratio(0.0)


class TestGradient:
    @pytest.mark.parametrize("kernel", [
        ExponentialKernel(decay=1.0),
        GaussianBasisKernel(centers=np.array([0.3, 1.2]), bandwidth=0.5, support=3.0),
        DiscretizedKernel(dt=0.5, n_lags=4),
    ], ids=["exp", "basis", "grid"])
    def test_matches_central_differences(self, kernel):
        corpus = sim_corpus(truth_2d(), 40.0, 4, seed=7)
        rng = np.random.default_rng(8)
        shape = (2, 2) if isinstance(kernel, ExponentialKernel) else (kernel.n_components, 2, 2)
        h = 1e-5
        for _ in range(5):
            mu = rng.uniform(0.2, 1.0, size=2)
            A = rng.uniform(0.05, 0.4, size=shape)
            nll, gmu, gA = exp_nll_and_grad(HawkesModel(mu=mu, kernel=kernel, A=A), corpus)
            assert gA.shape == shape

            def nll_at(mu_, A_):
                return exp_nll_and_grad(HawkesModel(mu=mu_, kernel=kernel, A=A_), corpus)[0]

            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (nll_at(mu + e, A) - nll_at(mu - e, A)) / (2 * h)
                assert gmu[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            for idx in np.ndindex(*shape):
                E = np.zeros(shape)
                E[idx] = h
                fd = (nll_at(mu, A + E) - nll_at(mu, A - E)) / (2 * h)
                assert gA[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_small_gradient_at_unpenalized_optimum(self):
        corpus = sim_corpus(truth_1d(), 100.0, 40, seed=9)
        rep = fit_mle(
            corpus, ExponentialKernel(decay=1.0), LearnConfig(max_iters=4000, tol=1e-13)
        )
        _, gmu, gA = exp_nll_and_grad(rep.model, corpus)
        scale = max(corpus.n_events, 1)
        norm = np.sqrt(float(np.sum(gmu**2) + np.sum(gA**2))) / scale
        assert norm < 1e-6

    def test_rejects_corpus_of_another_dimension(self):
        corpus = sim_corpus(truth_2d(), 20.0, 2, seed=7)
        with pytest.raises(ValidationError, match="dimension"):
            exp_nll_and_grad(truth_1d(), corpus)


class TestGridLearner:
    def test_trace_monotone_and_recovers_shape(self):
        corpus = sim_corpus(truth_1d(a=0.6), 100.0, 60, seed=10)
        rep = fit_mle_ode(corpus, 0.25, 16, LearnConfig(max_iters=120, tol=1e-8), alpha=5.0)
        assert monotone(rep.objective_trace)
        assert isinstance(rep.model.kernel, DiscretizedKernel)
        err = estimation_error(rep.model, truth_1d(a=0.6))
        assert err["kernel_relerr"] < 0.15
        assert err["kernel_grid_l2"] < 0.5

    def test_rejects_structural_penalties(self):
        corpus = sim_corpus(truth_1d(), 30.0, 4, seed=11)
        with pytest.raises(ValidationError):
            fit_mle_ode(
                corpus, 0.5, 4, LearnConfig(penalty=Penalty("sparse", 1.0))
            )

    def test_huge_alpha_flattens_curvature(self):
        corpus = sim_corpus(truth_1d(a=0.6), 80.0, 30, seed=12)
        lo = fit_mle_ode(corpus, 0.25, 12, LearnConfig(max_iters=100), alpha=1e-3)
        hi = fit_mle_ode(corpus, 0.25, 12, LearnConfig(max_iters=100), alpha=1e7)

        def curvature(phi):
            return float(np.abs(np.diff(phi[:, 0, 0], n=2)).sum())

        assert curvature(hi.model.A) < 0.05 * max(curvature(lo.model.A), 1e-12)

    def test_clamp_count_reported(self):
        corpus = sim_corpus(truth_1d(), 60.0, 10, seed=13)
        rep = fit_mle_ode(corpus, 0.5, 8, LearnConfig(max_iters=40))
        assert "clamp_count" in rep.details
        assert rep.details["clamp_count"] >= 0

    def test_direct_em_on_grid_kernel_matches_unsmoothed_grid_learner(self):
        kernel = DiscretizedKernel(dt=0.5, n_lags=6)
        steps = np.array([0.4, 0.3, 0.2, 0.1, 0.05, 0.0])
        truth = HawkesModel(
            mu=np.array([0.3, 0.2]), kernel=kernel,
            A=steps[:, None, None] * np.array([[0.8, 0.3], [0.2, 0.6]]),
        )
        corpus = sim_corpus(truth, 200.0, 3, seed=5)
        # with tol=1e-300 only an exactly repeated objective stops a run early
        direct = fit_mle(corpus, kernel, LearnConfig(max_iters=3000, tol=1e-300))
        smooth = fit_mle_ode(corpus, 0.5, 6, LearnConfig(max_iters=300, tol=1e-300), alpha=0.0)
        assert monotone(direct.objective_trace)
        assert direct.model.kernel == kernel and direct.model.A.shape == (6, 2, 2)
        # both maximize the same likelihood over the same step values
        assert direct.objective_trace[-1] == pytest.approx(smooth.objective_trace[-1], rel=1e-10)
        scale = float(np.abs(smooth.model.A).max())
        assert np.allclose(direct.model.A, smooth.model.A, rtol=0.0, atol=1e-4 * scale)
        assert np.allclose(direct.model.mu, smooth.model.mu, rtol=1e-4)


def ref_ls_coefficients(corpus, dt, L, ridge):
    """fit_ls's (mu, phi), with the design matrix and phi filled by loops."""
    D = corpus.dim
    p = 1 + D * L
    gram, rhs, rows = np.zeros((p, p)), np.zeros((p, D)), 0
    for seq in corpus:
        K = int(seq.duration / dt)
        edges = seq.t_start + np.arange(K + 1) * dt
        X = np.stack(
            [np.histogram(seq.times[seq.marks == v], bins=edges)[0] for v in range(D)]
        ).astype(np.float64)
        Z = np.empty((K - L, p))
        Z[:, 0] = dt
        for v in range(D):
            for l in range(1, L + 1):
                Z[:, 1 + v * L + (l - 1)] = dt * X[v, L - l : K - l]
        gram += Z.T @ Z
        rhs += Z.T @ X[:, L:].T
        rows += K - L
    reg = np.ones(p)
    reg[0] = 0.0
    theta = np.linalg.solve(gram / rows + ridge * np.diag(reg), rhs / rows)
    theta = np.clip(theta, 0.0, None)
    phi = np.zeros((L, D, D))
    for v in range(D):
        for l in range(1, L + 1):
            phi[l - 1, v, :] = theta[1 + v * L + (l - 1)]
    return theta[0], phi


class TestLeastSquares:
    @pytest.mark.parametrize("L", [1, 5, 12])
    @pytest.mark.parametrize("truth", [truth_1d, truth_2d])
    def test_matches_loop_reference_bit_for_bit(self, truth, L):
        corpus = sim_corpus(truth(), 40.0, 3, seed=17)
        rep = fit_ls(corpus, 0.25, L, ridge=1e-3)
        mu, phi = ref_ls_coefficients(corpus, 0.25, L, 1e-3)
        assert np.array_equal(rep.model.mu, mu)
        assert np.array_equal(rep.model.A, phi)

    def test_bin_counts_match_histogram_on_every_edge(self):
        # events on each bin edge and on the last edge t_start + K * dt, which
        # np.histogram puts in the last bin, plus events past it
        rng = np.random.default_rng(23)
        for _ in range(300):
            D, dt, K = int(rng.integers(1, 4)), rng.uniform(0.05, 2.0), int(rng.integers(1, 30))
            t0 = rng.choice([0.0, rng.uniform(0.0, 50.0)])
            t1 = t0 + K * dt + rng.choice([0.0, rng.uniform(0.0, dt)])
            edges = t0 + np.arange(int((t1 - t0) / dt) + 1) * dt
            times = np.concatenate([edges[edges <= t1], rng.uniform(t0, t1, int(rng.integers(0, 40)))])
            times = np.sort(np.repeat(times, rng.integers(1, 3, times.size)))
            seq = EventSequence(times, rng.integers(0, D, times.size), t0, t1, D, "s")
            want = [np.histogram(seq.times[seq.marks == v], bins=edges)[0] for v in range(D)]
            assert np.array_equal(_bin_counts(seq, edges), want)

    def test_duplicating_corpus_changes_nothing(self):
        corpus = sim_corpus(truth_2d(), 60.0, 8, seed=14)
        doubled = Corpus(
            tuple(
                dataclasses.replace(s, id=f"{s.id}-{k}")
                for k in range(2)
                for s in corpus
            ),
            corpus.dim,
            None,
        )
        a = fit_ls(corpus, 0.25, 12, ridge=1e-3)
        b = fit_ls(doubled, 0.25, 12, ridge=1e-3)
        assert np.allclose(a.model.mu, b.model.mu, atol=1e-12)
        assert np.allclose(a.model.A, b.model.A, atol=1e-12)

    def test_recovers_branching_with_ridge(self):
        corpus = sim_corpus(truth_2d(), 100.0, 60, seed=15)
        rep = fit_ls(corpus, 0.25, 20, ridge=1e-3)
        gap = float(
            np.linalg.norm(branching_matrix(rep.model) - branching_matrix(truth_2d()))
        )
        assert gap < 0.15

    def test_empty_data_is_rank_deficient_without_ridge(self):
        quiet = EventSequence(np.array([]), np.array([]), 0.0, 20.0, 1, "q")
        corpus = Corpus((quiet,), 1, None)
        with pytest.raises(RankDeficiencyError):
            fit_ls(corpus, 0.5, 4, ridge=0.0)
        rep = fit_ls(corpus, 0.5, 4, ridge=1e-3)  # ridge rescues it
        assert rep.converged

    def test_window_must_cover_lags(self):
        short = EventSequence(np.array([0.5]), np.array([0]), 0.0, 2.0, 1, "s")
        with pytest.raises(ValidationError):
            fit_ls(Corpus((short,), 1, None), 0.5, 4)

    @pytest.mark.parametrize("t_end", [1e300, 1e308])
    def test_window_with_too_many_bins_is_refused_by_name(self, t_end):
        # 1e308 / 0.5 is infinite and 1e300 / 0.5 far past any index: both
        # must be refused before a bin edge is allocated
        long = EventSequence(np.array([0.5]), np.array([0]), 0.0, t_end, 1, "long")
        with pytest.raises(ValidationError, match="'long'"):
            fit_ls(Corpus((long,), 1, None), 0.5, 4)

    @pytest.mark.parametrize("ridge", [-1e-3, math.nan, math.inf])
    def test_ridge_must_be_finite_and_nonnegative(self, ridge):
        seq = EventSequence(np.array([0.5]), np.array([0]), 0.0, 20.0, 1, "s")
        with pytest.raises(ValidationError, match="ridge must be finite and >= 0"):
            fit_ls(Corpus((seq,), 1, None), 0.5, 4, ridge=ridge)

    def test_nonnegative_clamp_recorded(self):
        corpus = sim_corpus(truth_1d(), 60.0, 10, seed=16)
        rep = fit_ls(corpus, 0.5, 8, ridge=1e-4)
        assert rep.details["clamp_count"] >= 0
        assert np.all(rep.model.A >= 0.0)


class TestLearnConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("rng_seed", -1),
            ("rng_seed", 1.5),
            ("rng_seed", True),
            ("max_iters", 0),
            ("max_iters", 2.5),
            ("max_iters", 3.0),
            ("max_iters", True),
        ],
    )
    def test_seed_or_iteration_cap_that_is_not_an_integer_at_its_minimum_is_refused(
        self, field, value
    ):
        with pytest.raises(ValidationError, match=f"{field} must be an integer >= "):
            LearnConfig(**{field: value})

    @pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValidationError, match="tol must be finite and > 0"):
            LearnConfig(tol=tol)

    def test_numpy_integers_are_accepted(self):
        corpus = sim_corpus(truth_1d(), 30.0, 2, 0)
        cfg = LearnConfig(max_iters=np.int64(3), rng_seed=np.int64(2))
        assert fit_mle(corpus, ExponentialKernel(decay=1.0), cfg).iterations <= 3


class TestEstimationError:
    def test_identical_models_are_zero_error(self):
        m = truth_2d()
        err = estimation_error(m, m)
        assert err["mu_relerr"] == 0.0
        assert err["kernel_relerr"] == 0.0
        assert not err["mu_absolute"] and not err["kernel_absolute"]

    def test_zero_truth_switches_to_absolute(self):
        z = HawkesModel(
            mu=np.array([0.0]), kernel=ExponentialKernel(decay=1.0), A=np.array([[0.0]])
        )
        f = HawkesModel(
            mu=np.array([0.3]), kernel=ExponentialKernel(decay=1.0), A=np.array([[0.2]])
        )
        err = estimation_error(f, z)
        assert err["mu_absolute"] and err["kernel_absolute"]
        assert err["mu_relerr"] == pytest.approx(0.3)
        assert err["kernel_relerr"] == pytest.approx(0.2)

    def test_grid_fit_is_scored_against_a_grid_truth_on_another_grid(self):
        rng = np.random.default_rng(7)
        truth = HawkesModel(mu=np.array([0.3, 0.2]), kernel=DiscretizedKernel(dt=0.25, n_lags=8),
                            A=rng.uniform(0.0, 0.2, (8, 2, 2)))
        fitted = HawkesModel(mu=np.array([0.3, 0.2]), kernel=DiscretizedKernel(dt=0.4, n_lags=6),
                             A=rng.uniform(0.0, 0.2, (6, 2, 2)))
        ref = kernel_lag_averages(truth, 0.4, 6)
        want = np.linalg.norm(fitted.A - ref) / np.linalg.norm(ref)
        err = estimation_error(fitted, truth)
        assert err["kernel_grid_l2"] == pytest.approx(want, rel=1e-12)
        assert not err["kernel_grid_absolute"]


@pytest.mark.parametrize("weight", [np.inf, np.nan])
@pytest.mark.parametrize("kind", ["sparse", "group_sparse", "low_rank"])
def test_non_finite_penalty_weight_is_refused(kind, weight):
    with pytest.raises(ValidationError, match="penalty weight must be finite"):
        Penalty(kind, weight)


@pytest.mark.parametrize("alpha", [np.inf, np.nan])
def test_non_finite_curvature_weight_is_refused(alpha):
    corpus = sim_corpus(truth_2d(), 20.0, 2, seed=3)
    with pytest.raises(ValidationError, match="alpha must be finite"):
        fit_mle_ode(corpus, 0.5, 6, LearnConfig(max_iters=2), alpha=alpha)
