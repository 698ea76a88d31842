"""Samplers: determinism, degenerate reductions, mutual agreement."""

import dataclasses
import warnings

import numpy as np
import pytest

from hawkeskit.core import (
    DiscretizedKernel,
    EventSequence,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesModel,
    StabilityWarning,
    UnsupportedKernelError,
    ValidationError,
)
from hawkeskit.data import FormatError
from hawkeskit.simulate import (
    SimConfig,
    SimulationOverflowError,
    benchmark_simulators,
    read_benchmark_csv,
    simulate_branch,
    simulate_exact_exp,
    simulate_ogata,
    write_benchmark_csv,
)

ALL_METHODS = [simulate_branch, simulate_ogata, simulate_exact_exp]


def exp2():
    return HawkesModel(
        mu=np.array([0.3, 0.6]),
        kernel=ExponentialKernel(decay=1.0),
        A=np.array([[0.4, 0.1], [0.2, 0.3]]),
    )


def basis1():
    return HawkesModel(
        mu=np.array([0.5]),
        kernel=GaussianBasisKernel(centers=np.array([0.5, 1.5]), bandwidth=0.5, support=4.0),
        A=np.array([[[0.25]], [[0.2]]]),
    )


def disc1():
    return HawkesModel(
        mu=np.array([0.5]),
        kernel=DiscretizedKernel(dt=0.5, n_lags=4),
        A=np.full((4, 1, 1), 0.25),  # mass 0.5 * 4 * 0.25 = 0.5
    )


@pytest.mark.parametrize("simulate", ALL_METHODS)
class TestContract:
    def test_same_seed_identical(self, simulate):
        cfg = SimConfig(exp2(), t_end=30.0, n_sequences=3, rng_seed=11)
        c1, c2 = simulate(cfg), simulate(cfg)
        assert c1 == c2
        for a, b in zip(c1, c2):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.marks, b.marks)

    def test_different_seeds_differ(self, simulate):
        a = simulate(SimConfig(exp2(), t_end=30.0, rng_seed=0))
        b = simulate(SimConfig(exp2(), t_end=30.0, rng_seed=1))
        assert not np.array_equal(a[0].times, b[0].times)

    def test_windows_and_ids(self, simulate):
        corpus = simulate(SimConfig(exp2(), t_end=25.0, n_sequences=4, rng_seed=2))
        assert [s.id for s in corpus] == ["s0", "s1", "s2", "s3"]
        for seq in corpus:
            assert seq.t_start == 0.0 and seq.t_end == 25.0
            assert np.all(np.diff(seq.times) >= 0)
            if len(seq):
                assert seq.times[0] >= 0.0 and seq.times[-1] <= 25.0
            assert seq.dim == 2

    def test_poisson_reduction_mean(self, simulate):
        # With no excitation the count on [0, 40] is Poisson(mu T) = 60.
        # Total over 200 paths is Poisson(12000): 5 sigma is [11452, 12548].
        model = HawkesModel(
            mu=np.array([1.5]), kernel=ExponentialKernel(decay=1.0), A=np.array([[0.0]])
        )
        corpus = simulate(SimConfig(model, t_end=40.0, n_sequences=200, rng_seed=5))
        assert 11452 <= corpus.n_events <= 12548


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("rng_seed", -1),
            ("rng_seed", 1.5),
            ("rng_seed", True),
            ("n_sequences", -1),
            ("n_sequences", 2.5),
            ("n_sequences", True),
            ("n_sequences", 2.0),
            ("max_events", 0),
            ("max_events", 2.5),
            ("max_events", False),
        ],
    )
    def test_count_or_seed_that_is_not_an_integer_at_its_minimum_is_refused(
        self, field, value
    ):
        with pytest.raises(ValidationError, match=f"{field} must be an integer >= "):
            SimConfig(exp2(), t_end=5.0, **{field: value})

    def test_numpy_integers_are_accepted(self):
        cfg = SimConfig(
            exp2(), t_end=5.0, n_sequences=np.int64(2), rng_seed=np.int32(0),
            max_events=np.int64(1000),
        )
        assert len(simulate_ogata(cfg)) == 2


class TestBranchSpecific:
    def test_unstable_model_is_a_precondition_failure(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            bad = HawkesModel(
                mu=np.array([0.5]), kernel=ExponentialKernel(decay=1.0), A=np.array([[1.1]])
            )
        with pytest.raises(ValidationError):
            simulate_branch(SimConfig(bad, t_end=10.0))

    def test_total_count_mean_matches_branching_series(self):
        # Immigrants are Poisson(mu T); each event's expected brood is bounded
        # by the branching ratio, with boundary truncation pulling it down.
        # For mu=1, a=0.5, w=1, T=60 the stationary count is T/(1-a) = 120;
        # accept the band [110, 120] for the mean over 300 paths (5 sigma
        # of the empirical mean is well under 5 here).
        model = HawkesModel(
            mu=np.array([1.0]), kernel=ExponentialKernel(decay=1.0), A=np.array([[0.5]])
        )
        corpus = simulate_branch(SimConfig(model, t_end=60.0, n_sequences=300, rng_seed=7))
        mean = corpus.n_events / 300
        assert 110.0 <= mean <= 120.0


class TestOverflowAndUnsupported:
    def test_cap_raises_with_truncated_partial(self):
        model = HawkesModel(
            mu=np.array([5.0]), kernel=ExponentialKernel(decay=1.0), A=np.array([[0.0]])
        )
        with pytest.raises(SimulationOverflowError) as info:
            simulate_ogata(SimConfig(model, t_end=1000.0, max_events=50, rng_seed=0))
        partial = info.value.partial
        assert partial is not None and len(partial) == 50

    def test_exact_cap_raises_with_truncated_partial(self):
        model = HawkesModel(
            mu=np.array([5.0, 1.0]), kernel=ExponentialKernel(decay=1.0), A=np.zeros((2, 2))
        )
        with pytest.raises(SimulationOverflowError) as info:
            simulate_exact_exp(SimConfig(model, t_end=1000.0, max_events=50, rng_seed=0))
        partial = info.value.partial
        assert partial is not None and len(partial) == 50
        assert partial.dim == 2 and np.all(np.diff(partial.times) > 0)

    @pytest.mark.parametrize("make_model", [basis1, disc1], ids=["basis", "grid"])
    def test_finite_support_cap_keeps_the_uncapped_prefix(self, make_model):
        # the thinning loop draws the same randoms up to the cap, so the
        # partial is exactly the first max_events events of an uncapped run
        cfg = SimConfig(make_model(), t_end=200.0, rng_seed=4)
        full = simulate_ogata(cfg)[0]
        assert len(full) > 60
        with pytest.raises(SimulationOverflowError) as info:
            simulate_ogata(dataclasses.replace(cfg, max_events=60))
        partial = info.value.partial
        assert partial is not None and len(partial) == 60
        assert np.array_equal(partial.times, full.times[:60])
        assert np.array_equal(partial.marks, full.marks[:60])
        assert (partial.t_end, partial.dim, partial.id) == (200.0, 1, "s0")

    def test_branch_cap_raises_too(self):
        model = HawkesModel(
            mu=np.array([5.0]), kernel=ExponentialKernel(decay=1.0), A=np.array([[0.0]])
        )
        with pytest.raises(SimulationOverflowError):
            simulate_branch(SimConfig(model, t_end=1000.0, max_events=50, rng_seed=0))

    def test_exact_sampler_rejects_other_kernels(self):
        with pytest.raises(UnsupportedKernelError):
            simulate_exact_exp(SimConfig(basis1(), t_end=10.0))
        with pytest.raises(UnsupportedKernelError):
            simulate_exact_exp(SimConfig(disc1(), t_end=10.0))


class TestSamplingDriver:
    @pytest.mark.parametrize("simulate", [simulate_ogata, simulate_exact_exp])
    def test_exponential_cap_keeps_the_uncapped_prefix(self, simulate):
        cfg = SimConfig(exp2(), t_end=200.0, rng_seed=4)
        full = simulate(cfg)[0]
        assert len(full) > 60
        with pytest.raises(SimulationOverflowError) as info:
            simulate(dataclasses.replace(cfg, max_events=60))
        partial = info.value.partial
        assert partial is not None and len(partial) == 60
        assert np.array_equal(partial.times, full.times[:60])
        assert np.array_equal(partial.marks, full.marks[:60])
        assert (partial.t_end, partial.dim, partial.id) == (200.0, 2, "s0")

    def test_branch_partial_is_a_time_ordered_subset_of_the_uncapped_run(self):
        cfg = SimConfig(exp2(), t_end=200.0, rng_seed=4)
        full = simulate_branch(cfg)[0]
        assert len(full) > 60
        with pytest.raises(SimulationOverflowError) as info:
            simulate_branch(dataclasses.replace(cfg, max_events=60))
        partial = info.value.partial
        assert partial is not None and len(partial) == 60
        assert np.all(np.diff(partial.times) >= 0)
        drawn = set(zip(full.times.tolist(), full.marks.tolist()))
        assert set(zip(partial.times.tolist(), partial.marks.tolist())) <= drawn

    @pytest.mark.parametrize(
        "simulate, seed",
        [(simulate_branch, 1), (simulate_ogata, 4), (simulate_exact_exp, 0)],
        ids=["branch", "ogata", "exact"],
    )
    def test_overflow_in_the_second_sequence_names_s1(self, simulate, seed):
        cfg = SimConfig(exp2(), t_end=60.0, n_sequences=3, rng_seed=seed)
        n0, n1, _ = (len(s) for s in simulate(cfg))
        assert n1 > n0  # s0 fits under a cap of n0, s1 does not
        with pytest.raises(SimulationOverflowError, match="'s1'") as info:
            simulate(dataclasses.replace(cfg, max_events=n0))
        assert info.value.partial.id == "s1"
        assert len(info.value.partial) == n0


class TestCrossAgreement:
    def run_counts(self, model, methods, t_end=60.0, n=150, seed=21):
        out = {}
        for name, fn in methods:
            corpus = fn(SimConfig(model, t_end=t_end, n_sequences=n, rng_seed=seed))
            counts = np.array([len(s) for s in corpus], dtype=np.float64)
            out[name] = (counts.mean(), counts.std(ddof=1) / np.sqrt(n))
        return out

    def assert_pairwise(self, stats, k=4.0):
        names = list(stats)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                m1, se1 = stats[names[i]]
                m2, se2 = stats[names[j]]
                gap = abs(m1 - m2)
                bound = k * np.hypot(se1, se2)
                assert gap <= bound, f"{names[i]} vs {names[j]}: {gap:.2f} > {bound:.2f}"

    def test_exponential_all_three_agree(self):
        stats = self.run_counts(
            exp2(),
            [("branch", simulate_branch), ("ogata", simulate_ogata), ("exact", simulate_exact_exp)],
        )
        self.assert_pairwise(stats)

    def test_exact_vs_branch_per_dimension_at_d5(self):
        # mu[1] = 0: dimension 1 fires only by excitation, so the exact
        # sampler's baseline wait there is infinite
        A = np.full((5, 5), 0.05) + np.diag([0.3, 0.2, 0.1, 0.25, 0.15])
        model = HawkesModel(
            mu=np.array([0.4, 0.0, 0.3, 0.2, 0.5]), kernel=ExponentialKernel(decay=1.5), A=A
        )
        stats = []
        for fn in (simulate_branch, simulate_exact_exp):
            corpus = fn(SimConfig(model, t_end=40.0, n_sequences=150, rng_seed=21))
            counts = np.array([np.bincount(s.marks, minlength=5) for s in corpus], float)
            stats.append((counts.mean(axis=0), counts.std(axis=0, ddof=1) / np.sqrt(150)))
        (m1, se1), (m2, se2) = stats
        assert np.all(np.abs(m1 - m2) <= 4.0 * np.hypot(se1, se2)), (m1, m2)
        assert m2[1] > 0

    def test_basis_branch_vs_ogata_agree(self):
        stats = self.run_counts(
            basis1(), [("branch", simulate_branch), ("ogata", simulate_ogata)]
        )
        self.assert_pairwise(stats)

    def test_discretized_branch_vs_ogata_agree(self):
        stats = self.run_counts(
            disc1(), [("branch", simulate_branch), ("ogata", simulate_ogata)]
        )
        self.assert_pairwise(stats)


class TestBenchmark:
    def test_rows_and_na_for_unsupported(self, tmp_path):
        rows = benchmark_simulators(
            basis1(), [10.0, 20.0], rng_seed=0, real_timing=False
        )
        assert len(rows) == 6
        by_method = {}
        for r in rows:
            by_method.setdefault(r["method"], []).append(r)
        assert all(r["event_count"] == "n/a" for r in by_method["exact-exp"])
        assert all(isinstance(r["event_count"], int) for r in by_method["branch"])
        assert all(r["wall_time_s"] == 0.0 for r in rows)
        path = str(tmp_path / "bench.csv")
        write_benchmark_csv(rows, path)
        back = read_benchmark_csv(path)
        assert back == rows

    def test_deterministic_file_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "b1.csv"), str(tmp_path / "b2.csv")
        for p in (p1, p2):
            rows = benchmark_simulators(exp2(), [15.0], rng_seed=3, real_timing=False)
            write_benchmark_csv(rows, p)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    @pytest.mark.parametrize(
        "text,named",
        [
            ("method,t_end,seed,wall_time_s,event_count\nbranch,abc,0,0.0,12\n",
             "malformed benchmark row"),
            ("method,t_end,seed,wall_time_s,event_count\nbranch,10,0,0.0,1.5\n",
             "malformed benchmark row"),
            ("method,horizon,seed,wall_time_s,event_count\nbranch,10,0,0.0,12\n",
             "unexpected benchmark header"),
        ],
    )
    def test_reader_raises_format_error(self, tmp_path, text, named):
        path = tmp_path / "bench.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=named):
            read_benchmark_csv(str(path))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            benchmark_simulators(exp2(), [10.0], methods=("warp",))

    def test_failing_simulator_gets_an_error_row_and_real_times_are_measured(self):
        with pytest.warns(StabilityWarning):
            explosive = HawkesModel(
                mu=np.array([0.5, 0.5]),
                kernel=ExponentialKernel(decay=1.0),
                A=np.array([[0.9, 0.5], [0.5, 0.9]]),
            )
        rows = benchmark_simulators(explosive, [50.0], max_events=50)
        assert {r["method"]: r["event_count"] for r in rows} == {
            "branch": "error:ValidationError",
            "ogata": "error:SimulationOverflowError",
            "exact-exp": "error:SimulationOverflowError",
        }
        assert all(np.isfinite(r["wall_time_s"]) and r["wall_time_s"] >= 0 for r in rows)
