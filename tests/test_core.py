"""Model primitives: intensities, compensators, likelihoods, kernels."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hawkeskit.core import (
    _EXP_BLOCK_SPAN,
    DiscretizedKernel,
    Event,
    EventSequence,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesModel,
    StabilityWarning,
    ValidationError,
    branching_matrix,
    compensator,
    event_intensities,
    exp_weighted_excitation,
    intensity,
    intensity_profile,
    kernel_lag_averages,
    log_likelihood,
    spectral_radius,
    window_compensator,
)
from hawkeskit.analyze import DistanceParams
from hawkeskit.data import Corpus, load_corpus
from hawkeskit.learn import LearnConfig, Penalty, exp_nll_and_grad
from hawkeskit.simulate import SimConfig


def _seq(times=(1.0, 2.0), marks=(0, 1), t_end=3.0):
    return EventSequence(np.array(times), np.array(marks), 0.0, t_end, 2)


def _model(mu=(0.1, 0.2), A=((0.1, 0.0), (0.0, 0.1))):
    return HawkesModel(np.array(mu), ExponentialKernel(1.0), np.array(A))


def _corpus_json(tmp, events):
    path = tmp / "corpus.json"
    path.write_text(json.dumps({"dim": 2, "label_map": None, "sequences": [
        {"id": "s0", "t_start": 0.0, "t_end": 5.0, "events": events}]}))
    return str(path)


@pytest.mark.parametrize(
    "build",
    [
        lambda tmp: _seq(times=(1.0, math.nan)),
        lambda tmp: _seq(t_end=math.inf),
        lambda tmp: _seq(t_end=math.nan),
        lambda tmp: _seq(marks=(0, 0.7)),
        lambda tmp: _seq(marks=(0, math.nan)),
        lambda tmp: _model(mu=(0.1, math.nan)),
        lambda tmp: _model(mu=(0.1, math.inf)),
        lambda tmp: _model(A=((0.1, math.nan), (0.0, 0.1))),
        lambda tmp: ExponentialKernel(math.nan),
        lambda tmp: GaussianBasisKernel(np.array([0.5, math.nan]), 0.5),
        lambda tmp: GaussianBasisKernel(np.array([0.5]), math.nan),
        lambda tmp: GaussianBasisKernel(np.array([0.5]), 0.5, support=math.nan),
        lambda tmp: DiscretizedKernel(math.nan, 4),
        lambda tmp: load_corpus(_corpus_json(tmp, [[1.0, 0], [2.0, 0.7]])),
        lambda tmp: Penalty("sparse", math.nan),
        lambda tmp: LearnConfig(tol=math.nan),
        lambda tmp: SimConfig(_model(), t_end=math.nan),
        lambda tmp: intensity(_model(), _seq(), 0, math.nan),
        lambda tmp: intensity(_model(), _seq(), 0, math.inf),
        lambda tmp: compensator(_model(), _seq(), 0, math.nan, 1.0),
        lambda tmp: compensator(_model(), _seq(), 0, 0.0, math.nan),
        lambda tmp: compensator(_model(), _seq(), 0, -math.inf, 1.0),
        lambda tmp: compensator(_model(), _seq(), 0, 0.0, math.inf),
        lambda tmp: compensator(_model(), _seq(), 5, 0.0, 1.5),
        lambda tmp: compensator(_model(), _seq(), -1, 0.0, 1.5),
        lambda tmp: compensator(_model(), _seq(), 0.5, 0.0, 1.5),
        lambda tmp: intensity(_model(), _seq(), 0.5, 1.5),
        lambda tmp: intensity(_model(), _seq(), True, 1.5),
        lambda tmp: intensity_profile(_model(), _seq(), [1.5, math.nan]),
        lambda tmp: intensity_profile(_model(), _seq(), [math.inf]),
        lambda tmp: DistanceParams(time_cost=math.nan),
        lambda tmp: DistanceParams(mark_mismatch_cost=math.inf),
        lambda tmp: DistanceParams(indel_cost=math.nan),
    ],
    ids=[
        "nan_time", "inf_t_end", "nan_t_end", "fractional_mark", "nan_mark",
        "nan_mu", "inf_mu", "nan_A", "nan_decay", "nan_center", "nan_bandwidth",
        "nan_support", "nan_dt", "fractional_mark_in_json", "nan_penalty_weight",
        "nan_tol", "nan_horizon", "nan_intensity_time", "inf_intensity_time",
        "nan_t0", "nan_t1", "minus_inf_t0", "inf_t1", "dimension_too_high",
        "negative_dimension", "fractional_dimension_compensator",
        "fractional_dimension_intensity", "bool_dimension", "nan_profile_time",
        "inf_profile_time", "nan_time_cost", "inf_mismatch_cost", "nan_indel_cost",
    ],
)
def test_non_finite_and_fractional_inputs_raise_validation_error(build, tmp_path):
    with pytest.raises(ValidationError):
        build(tmp_path)


def one_event_model():
    model = HawkesModel(
        mu=np.array([0.1]), kernel=ExponentialKernel(decay=1.0), A=np.array([[0.5]])
    )
    seq = EventSequence(
        times=np.array([1.0]), marks=np.array([0]), t_start=0.0, t_end=2.0, dim=1
    )
    return model, seq


def two_dim_model():
    return HawkesModel(
        mu=np.array([0.3, 0.6]),
        kernel=ExponentialKernel(decay=1.3),
        A=np.array([[0.4, 0.1], [0.2, 0.3]]),
    )


def basis_model():
    return HawkesModel(
        mu=np.array([0.2, 0.4]),
        kernel=GaussianBasisKernel(
            centers=np.array([0.5, 1.5, 3.0]), bandwidth=0.6, support=6.0
        ),
        A=np.array(
            [
                [[0.15, 0.05], [0.1, 0.1]],
                [[0.05, 0.1], [0.02, 0.08]],
                [[0.1, 0.02], [0.05, 0.05]],
            ]
        ),
    )


def disc_model():
    # deliberately supercritical: likelihood math must not care, only warn
    rng = np.random.default_rng(5)
    A = rng.uniform(0.0, 0.4, size=(6, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        return HawkesModel(
            mu=np.array([0.25, 0.35]), kernel=DiscretizedKernel(dt=0.5, n_lags=6), A=A
        )


def crowded_sequence(dim=2, n=40, t_end=10.0, seed=2):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, t_end, size=n))
    marks = rng.integers(0, dim, size=n)
    return EventSequence(times=times, marks=marks, t_start=0.0, t_end=t_end, dim=dim)


class TestFrozenValues:
    # Single event at t=1 in [0,2] under mu=0.1, unit-decay kernel, mass 0.5.
    # Values below were computed by hand from the closed forms.

    def test_intensity_after_one_event(self):
        model, seq = one_event_model()
        assert intensity(model, seq, 0, 2.0) == pytest.approx(
            0.28393972058572115, abs=1e-15
        )

    def test_intensity_at_event_time_uses_strict_past(self):
        model, seq = one_event_model()
        assert intensity(model, seq, 0, 1.0) == pytest.approx(0.1, abs=1e-15)

    def test_window_compensator_value(self):
        model, seq = one_event_model()
        assert compensator(model, seq, 0, 0.0, 2.0) == pytest.approx(
            0.5160602794142788, abs=1e-15
        )

    def test_log_likelihood_value(self):
        model, seq = one_event_model()
        expect = math.log(0.1) - 0.5160602794142788
        assert log_likelihood(model, seq) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(-2.8186453724083246, abs=1e-12)

    def test_spectral_radius_of_known_matrix(self):
        # eigenvalues of [[.4,.1],[.2,.3]] solve x^2 - .7x + .1 -> {0.5, 0.2}
        assert spectral_radius(np.array([[0.4, 0.1], [0.2, 0.3]])) == pytest.approx(
            0.5, abs=1e-12
        )


@pytest.mark.parametrize("model_fn", [two_dim_model, basis_model, disc_model])
class TestAgainstQuadrature:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_compensator_matches_numeric_integral(self, model_fn):
        model = model_fn()
        seq = crowded_sequence()
        for u in range(model.dim):
            num, err = quad(
                lambda t: intensity(model, seq, u, t),
                0.0,
                seq.t_end,
                limit=400,
                points=list(seq.times),
            )
            assert compensator(model, seq, u, 0.0, seq.t_end) == pytest.approx(
                num, abs=max(1e-7, 10 * err)
            )

    def test_compensator_additive_over_splits(self, model_fn):
        model = model_fn()
        seq = crowded_sequence()
        cuts = [0.0, 1.7, 4.3, 8.9, 10.0]
        for u in range(model.dim):
            whole = compensator(model, seq, u, 0.0, 10.0)
            parts = sum(
                compensator(model, seq, u, a, b) for a, b in zip(cuts, cuts[1:])
            )
            assert parts == pytest.approx(whole, abs=1e-9)

    def test_compensator_derivative_is_intensity(self, model_fn):
        model = model_fn()
        seq = crowded_sequence()
        h = 1e-6
        for t in [0.9, 3.14, 6.5, 9.7]:
            for u in range(model.dim):
                fd = (
                    compensator(model, seq, u, 0.0, t + h)
                    - compensator(model, seq, u, 0.0, t - h)
                ) / (2 * h)
                lam = intensity(model, seq, u, t)
                assert fd == pytest.approx(lam, rel=1e-5, abs=1e-8)

    def test_loglik_decomposes_per_dimension(self, model_fn):
        model = model_fn()
        seq = crowded_sequence()
        total = log_likelihood(model, seq)
        by_dim = 0.0
        for u in range(model.dim):
            t_u = seq.times[seq.marks == u]
            by_dim += sum(
                math.log(intensity(model, seq, u, float(t))) for t in t_u
            )
            by_dim -= compensator(model, seq, u, seq.t_start, seq.t_end)
        assert total == pytest.approx(by_dim, abs=1e-9)

    def test_event_intensities_match_pointwise(self, model_fn):
        model = model_fn()
        seq = crowded_sequence()
        lam = event_intensities(model, seq)
        for j in range(len(seq)):
            expect = intensity(model, seq, int(seq.marks[j]), float(seq.times[j]))
            assert lam[j] == pytest.approx(expect, rel=1e-10, abs=1e-12)

    def test_profile_matches_scalar_queries(self, model_fn):
        model = model_fn()
        seq = crowded_sequence()
        ts = np.array([0.0, 0.5, 2.25, 5.0, 9.99])
        prof = intensity_profile(model, seq, ts)
        for i, t in enumerate(ts):
            for u in range(model.dim):
                assert prof[i, u] == pytest.approx(
                    intensity(model, seq, u, float(t)), rel=1e-10, abs=1e-12
                )


class TestKernels:
    def test_basis_density_integrates_to_one(self):
        kern = GaussianBasisKernel(
            centers=np.array([0.5, 2.0]), bandwidth=0.7, support=5.0
        )
        for m in range(2):
            val, _ = quad(lambda s: kern.density(np.array([s]))[m, 0], 0.0, 5.0, limit=200)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_basis_density_zero_outside_support(self):
        kern = GaussianBasisKernel(centers=np.array([1.0]), bandwidth=0.5, support=3.0)
        assert np.all(kern.density(np.array([-0.2, 3.0, 4.5])) == 0.0)
        assert kern.density(np.array([2.999]))[0, 0] > 0.0

    def test_branching_matrix_each_kernel(self):
        exp_m = two_dim_model()
        assert np.allclose(branching_matrix(exp_m), exp_m.A)
        bas = basis_model()
        assert np.allclose(branching_matrix(bas), bas.A.sum(axis=0))
        dis = disc_model()
        assert np.allclose(branching_matrix(dis), 0.5 * dis.A.sum(axis=0))

    @pytest.mark.parametrize("model_fn", [two_dim_model, basis_model, disc_model])
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_lag_averages_match_numeric_bin_means(self, model_fn):
        model = model_fn()
        dt, L = 0.4, 8
        avg = kernel_lag_averages(model, dt, L)
        probe = EventSequence(
            times=np.array([0.0]),
            marks=np.array([0]),
            t_start=0.0,
            t_end=L * dt + 1.0,
            dim=model.dim,
        )
        # After a single source event of mark 0, intensity minus baseline is
        # exactly the kernel row from that source.
        for k in range(L):
            for u in range(model.dim):
                val, _ = quad(
                    lambda t: intensity(model, probe, u, t) - model.mu[u],
                    k * dt,
                    (k + 1) * dt,
                    limit=200,
                )
                assert avg[k, 0, u] == pytest.approx(val / dt, abs=1e-8)

    def test_kernel_validation(self):
        with pytest.raises(ValidationError):
            ExponentialKernel(decay=0.0)
        with pytest.raises(ValidationError):
            GaussianBasisKernel(centers=np.array([]), bandwidth=0.5)
        with pytest.raises(ValidationError):
            GaussianBasisKernel(centers=np.array([1.0]), bandwidth=-1.0)
        with pytest.raises(ValidationError):
            DiscretizedKernel(dt=0.0, n_lags=3)
        with pytest.raises(ValidationError):
            DiscretizedKernel(dt=0.5, n_lags=0)

    @pytest.mark.parametrize("n_lags", [2.0, 2.5, 0.5, True, "3"])
    def test_grid_needs_an_integer_lag_count(self, n_lags):
        with pytest.raises(ValidationError, match="n_lags must be an integer"):
            DiscretizedKernel(dt=0.5, n_lags=n_lags)

    def test_numpy_integer_lag_count_is_accepted(self):
        assert DiscretizedKernel(dt=0.5, n_lags=np.int64(3)).n_components == 3


class TestDecayedPrefixSums:
    def brute(self, times, weights, decay):
        # contract includes the density normalization: w * decay * e^(-decay dt)
        n = len(times)
        out = np.zeros_like(weights)
        for j in range(n):
            for i in range(n):
                if times[i] < times[j]:
                    out[j] += (
                        weights[i] * decay * math.exp(-decay * (times[j] - times[i]))
                    )
        return out

    def dense(self, times, weights, decay):
        # every event carries a weight on every channel
        n, C = weights.shape
        cols = np.broadcast_to(np.arange(C), (n, C))
        return exp_weighted_excitation(times, cols, weights, C, decay)

    def test_matches_brute_force_with_ties(self):
        times = np.array([0.0, 0.5, 0.5, 0.5, 1.2, 3.0, 3.0, 7.7])
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.1, 2.0, size=(8, 3))
        got = self.dense(times, weights, 0.9)
        assert np.allclose(got, self.brute(times, weights, 0.9), atol=1e-12)

    def test_matches_brute_force_across_blocks(self):
        # decay span/2 keeps each internal block 2 time units wide, so this
        # span forces many block transitions including tied boundaries
        decay = _EXP_BLOCK_SPAN / 2.0
        rng = np.random.default_rng(1)
        times = np.sort(np.round(rng.uniform(0.0, 10.0, size=300), 1))
        weights = rng.uniform(0.0, 1.0, size=(300, 2))
        got = self.dense(times, weights, decay)
        assert np.allclose(got, self.brute(times, weights, decay), atol=1e-10)

    def test_sparse_weights_scatter_to_their_channels(self):
        # two entries per event on distinct channels, as the drift features use
        times = np.array([0.0, 0.4, 0.4, 1.0, 2.5])
        cols = np.array([[0, 3], [1, 2], [0, 1], [2, 3], [3, 0]])
        vals = np.array([[0.7, 0.3], [1.0, 0.0], [0.25, 0.75], [0.5, 0.5], [0.1, 0.9]])
        weights = np.zeros((5, 4))
        np.put_along_axis(weights, cols, vals, axis=1)
        got = exp_weighted_excitation(times, cols, vals, 4, 1.7)
        assert np.allclose(got, self.brute(times, weights, 1.7), atol=1e-12)

    def test_no_overflow_on_long_spans(self):
        times = np.array([0.0, 5000.0, 10000.0])
        got = exp_weighted_excitation(times, np.zeros(3, dtype=np.int64), np.ones(3), 1, 2.0)
        assert np.all(np.isfinite(got))
        assert got[0, 0] == 0.0
        assert got[1, 0] == pytest.approx(0.0, abs=1e-300)

    def test_empty(self):
        got = exp_weighted_excitation(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0), 4, 1.0)
        assert got.shape == (0, 4)


class TestExpIntensityProfile:
    """The merged-timeline recursion against a direct sum over (query, past event) pairs."""

    DECAY = 1.5

    def model(self):
        return HawkesModel(
            np.array([0.01, 0.02, 0.005]),
            ExponentialKernel(self.DECAY),
            np.array([[0.3, 0.1, 0.0], [0.2, 0.25, 0.05], [0.0, 0.4, 0.1]]),
        )

    def reference(self, model, seq, ts):
        out = np.tile(model.mu, (len(ts), 1))
        for i, t in enumerate(ts):
            past = seq.times < t
            dens = self.DECAY * np.exp(-self.DECAY * (t - seq.times[past]))
            out[i] += dens @ model.A[seq.marks[past]]
        return out

    def sequence(self):
        # a burst, a gap longer than the recursion's 200/decay block span, a tie
        times = np.array([0.5, 1.0, 1.0, 1.75, 3.0, 400.0, 400.0, 400.25])
        marks = np.array([0, 2, 1, 0, 1, 2, 0, 1])
        return EventSequence(times, marks, 0.0, 700.0, 3)

    @pytest.mark.parametrize(
        "ts",
        [
            [3.5, 0.75, 400.5, 2.0, 1.25],  # unsorted
            [1.0, 400.0, 0.5, 3.0, 400.25],  # tied with events
            [0.0, 0.1, 0.49],  # before the first event
            # more than one block span after an event, inside the gap and after the last
            [3.0 + 201.0 / DECAY, 3.0 + 260.0 / DECAY, 399.9, 420.0, 400.25 + 201.0 / DECAY, 700.0],
            [2.0, 2.0, 1.0, 1.0],  # repeated queries
            [],
        ],
    )
    def test_matches_pair_sum(self, ts):
        model, seq = self.model(), self.sequence()
        ts = np.array(ts, dtype=np.float64)
        got = intensity_profile(model, seq, ts)
        assert got.shape == (len(ts), 3)
        np.testing.assert_allclose(got, self.reference(model, seq, ts), rtol=1e-13, atol=0)

    def test_empty_sequence_gives_baseline(self):
        model = self.model()
        seq = EventSequence(np.empty(0), np.empty(0, dtype=np.int64), 0.0, 5.0, 3)
        got = intensity_profile(model, seq, np.array([4.0, 0.0, 2.5]))
        assert np.array_equal(got, np.tile(model.mu, (3, 1)))


class TestValidation:
    def test_event_requires_nonnegative_fields(self):
        with pytest.raises(ValidationError):
            Event(time=-0.1, mark=0)
        with pytest.raises(ValidationError):
            Event(time=0.5, mark=-1)

    def test_sequence_rejects_unsorted_times(self):
        with pytest.raises(ValidationError):
            EventSequence(
                times=np.array([1.0, 0.5]),
                marks=np.array([0, 0]),
                t_start=0.0,
                t_end=2.0,
                dim=1,
            )

    def test_sequence_rejects_events_outside_window(self):
        with pytest.raises(ValidationError):
            EventSequence(
                times=np.array([3.0]),
                marks=np.array([0]),
                t_start=0.0,
                t_end=2.0,
                dim=1,
            )

    def test_sequence_rejects_marks_out_of_range(self):
        with pytest.raises(ValidationError):
            EventSequence(
                times=np.array([1.0]),
                marks=np.array([2]),
                t_start=0.0,
                t_end=2.0,
                dim=2,
            )

    def test_model_rejects_wrong_coefficient_shape(self):
        with pytest.raises(ValidationError):
            HawkesModel(
                mu=np.array([0.1, 0.2]),
                kernel=ExponentialKernel(decay=1.0),
                A=np.zeros((3, 3)),
            )
        with pytest.raises(ValidationError):
            HawkesModel(
                mu=np.array([0.1]),
                kernel=GaussianBasisKernel(centers=np.array([1.0, 2.0]), bandwidth=0.5),
                A=np.zeros((3, 1, 1)),
            )

    def test_model_rejects_negative_parameters(self):
        with pytest.raises(ValidationError):
            HawkesModel(
                mu=np.array([-0.1]),
                kernel=ExponentialKernel(decay=1.0),
                A=np.array([[0.1]]),
            )
        with pytest.raises(ValidationError):
            HawkesModel(
                mu=np.array([0.1]),
                kernel=ExponentialKernel(decay=1.0),
                A=np.array([[-0.2]]),
            )

    def test_unstable_model_warns_but_constructs(self):
        with pytest.warns(StabilityWarning):
            m = HawkesModel(
                mu=np.array([0.1]),
                kernel=ExponentialKernel(decay=1.0),
                A=np.array([[1.2]]),
            )
        assert m.dim == 1

    def test_stable_model_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", StabilityWarning)
            HawkesModel(
                mu=np.array([0.1]),
                kernel=ExponentialKernel(decay=1.0),
                A=np.array([[0.9]]),
            )

    def test_zero_intensity_event_gives_minus_inf(self):
        model = HawkesModel(
            mu=np.array([0.0]), kernel=ExponentialKernel(decay=1.0), A=np.array([[0.5]])
        )
        seq = EventSequence(
            times=np.array([1.0]), marks=np.array([0]), t_start=0.0, t_end=2.0, dim=1
        )
        assert log_likelihood(model, seq) == float("-inf")
        # the learners' objective floors the intensity at 1e-300 instead
        with np.errstate(divide="ignore", invalid="ignore"):  # the gradient is undefined
            nll, _, _ = exp_nll_and_grad(model, Corpus((seq,), 1))
        expected = -math.log(1e-300) + float(window_compensator(model, seq).sum())
        assert nll == pytest.approx(expected, rel=1e-12)


@st.composite
def small_case(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 12))
    t_end = draw(st.floats(1.0, 20.0))
    times = sorted(
        draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False, width=32),
                min_size=n,
                max_size=n,
            )
        )
    )
    times = np.asarray([t * t_end for t in times])
    marks = np.asarray(
        draw(st.lists(st.integers(0, dim - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    mu = np.asarray(
        draw(
            st.lists(
                st.floats(0.05, 2.0, allow_nan=False), min_size=dim, max_size=dim
            )
        )
    )
    decay = draw(st.floats(0.2, 4.0, allow_nan=False))
    a_scale = draw(st.floats(0.0, 0.8 / dim, allow_nan=False))
    A = np.full((dim, dim), a_scale)
    model = HawkesModel(mu=mu, kernel=ExponentialKernel(decay=decay), A=A)
    seq = EventSequence(
        times=times, marks=marks, t_start=0.0, t_end=float(t_end), dim=dim
    )
    return model, seq


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_case())
    def test_intensity_at_least_baseline(self, case):
        model, seq = case
        for t in np.linspace(0.0, seq.t_end, 7):
            for u in range(model.dim):
                assert intensity(model, seq, u, float(t)) >= model.mu[u] - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(small_case(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_compensator_split_is_additive(self, case, f1, f2):
        model, seq = case
        lo, hi = sorted((f1 * seq.t_end, f2 * seq.t_end))
        for u in range(model.dim):
            whole = compensator(model, seq, u, 0.0, seq.t_end)
            parts = (
                compensator(model, seq, u, 0.0, lo)
                + compensator(model, seq, u, lo, hi)
                + compensator(model, seq, u, hi, seq.t_end)
            )
            assert parts == pytest.approx(whole, rel=1e-9, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(small_case())
    def test_window_compensator_agrees_with_scalar_form(self, case):
        model, seq = case
        full = window_compensator(model, seq)
        for u in range(model.dim):
            assert full[u] == pytest.approx(
                compensator(model, seq, u, seq.t_start, seq.t_end), rel=1e-10, abs=1e-10
            )

    @settings(max_examples=40, deadline=None)
    @given(small_case())
    def test_loglik_is_finite_for_positive_baseline(self, case):
        model, seq = case
        assert math.isfinite(log_likelihood(model, seq))
