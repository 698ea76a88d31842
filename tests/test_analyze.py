"""Structure graphs, clustering, alignment distance, drifting infectivity."""

import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkeskit import analyze
from hawkeskit.analyze import (
    ClusterResult,
    DistanceParams,
    GrangerGraph,
    TvhpModel,
    cluster_distance,
    cluster_mixture,
    cluster_purity,
    distance_matrix,
    fit_tvhp,
    granger_graph,
    granger_to_dot,
    load_distance_csv,
    load_granger,
    load_granger_dot,
    load_tvhp,
    load_tvhp_csv,
    save_distance_csv,
    save_granger,
    save_granger_dot,
    save_tvhp,
    save_tvhp_csv,
    sequence_distance,
    tvhp_log_likelihood,
    tvhp_variation,
)
from hawkeskit.core import (
    DiscretizedKernel,
    EventSequence,
    ExponentialKernel,
    HawkesModel,
    ValidationError,
    log_likelihood,
)
from hawkeskit._util import read_csv_rows
from hawkeskit.data import Corpus, FormatError
from hawkeskit.learn import FitReport, LearnConfig, Penalty, fit_mle
from hawkeskit.simulate import SimConfig, simulate_branch


def seq_of(times, marks, t_end=None, dim=None, sid="s"):
    times = np.asarray(times, dtype=np.float64)
    marks = np.asarray(marks, dtype=np.int64)
    if t_end is None:
        t_end = float(times[-1]) + 1.0 if times.size else 1.0
    if dim is None:
        dim = int(marks.max()) + 1 if marks.size else 1
    return EventSequence(times, marks, 0.0, t_end, dim, sid)


def brute_distance(ta, ma, tb, mb, p):
    """Enumerate every monotone matching between index sets (small n only)."""
    n, m = len(ta), len(tb)
    best = math.inf
    for k in range(min(n, m) + 1):
        for ia in itertools.combinations(range(n), k):
            for ib in itertools.combinations(range(m), k):
                cost = (n - k + m - k) * p.indel_cost
                for i, j in zip(ia, ib):
                    cost += p.time_cost * abs(ta[i] - tb[j])
                    cost += p.mark_mismatch_cost * (ma[i] != mb[j])
                best = min(best, cost)
    return best


class TestSequenceDistance:
    def test_single_event_match_beats_double_indel(self):
        a = seq_of([1.0], [0], t_end=5.0)
        b = seq_of([3.0], [0], t_end=5.0, sid="t")
        params = DistanceParams(time_cost=1.0, mark_mismatch_cost=1.0, indel_cost=5.0)
        assert sequence_distance(a, b, params) == 2.0

    def test_indel_wins_when_cheap(self):
        a = seq_of([1.0], [0], t_end=5.0)
        b = seq_of([3.0], [0], t_end=5.0, sid="t")
        params = DistanceParams(time_cost=1.0, mark_mismatch_cost=1.0, indel_cost=0.5)
        assert sequence_distance(a, b, params) == 1.0

    def test_empty_vs_n_events_costs_n_indels(self):
        a = seq_of([], [], t_end=4.0, dim=2)
        b = seq_of([0.5, 1.0, 2.5], [0, 1, 1], t_end=4.0, dim=2, sid="t")
        params = DistanceParams(indel_cost=1.7)
        assert sequence_distance(a, b, params) == pytest.approx(3 * 1.7)

    def test_identity(self):
        a = seq_of([0.3, 1.1, 2.2], [0, 1, 0], t_end=3.0)
        assert sequence_distance(a, a) == 0.0

    def test_mark_mismatch_charged(self):
        a = seq_of([1.0], [0], t_end=2.0, dim=2)
        b = seq_of([1.0], [1], t_end=2.0, dim=2, sid="t")
        params = DistanceParams(time_cost=1.0, mark_mismatch_cost=0.3, indel_cost=9.0)
        assert sequence_distance(a, b, params) == pytest.approx(0.3)

    def test_dimension_mismatch_rejected(self):
        a = seq_of([1.0], [0], dim=1)
        b = seq_of([1.0], [0], dim=2, sid="t")
        with pytest.raises(ValidationError):
            sequence_distance(a, b)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(3)
        params = DistanceParams(time_cost=0.8, mark_mismatch_cost=0.6, indel_cost=1.1)
        for trial in range(25):
            n, m = rng.integers(0, 5, size=2)
            ta = np.sort(rng.uniform(0, 4, size=n))
            tb = np.sort(rng.uniform(0, 4, size=m))
            ma = rng.integers(0, 2, size=n)
            mb = rng.integers(0, 2, size=m)
            a = seq_of(ta, ma, t_end=5.0, dim=2, sid=f"a{trial}")
            b = seq_of(tb, mb, t_end=5.0, dim=2, sid=f"b{trial}")
            got = sequence_distance(a, b, params)
            want = brute_distance(ta, ma, tb, mb, params)
            assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0, 10, allow_nan=False, width=32), max_size=8),
        st.lists(st.floats(0, 10, allow_nan=False, width=32), max_size=8),
        st.floats(0.1, 3.0),
    )
    def test_symmetric_to_the_bit(self, ta, tb, shift):
        ta, tb = sorted(ta), sorted(tb)
        a = seq_of(ta, [0] * len(ta), t_end=11.0, dim=1)
        b = seq_of(tb, [0] * len(tb), t_end=11.0, dim=1, sid="t")
        assert sequence_distance(a, b) == sequence_distance(b, a)
        # shifting both windows by the same offset changes nothing
        a2 = seq_of([t + shift for t in ta], [0] * len(ta), t_end=15.0, dim=1)
        b2 = seq_of([t + shift for t in tb], [0] * len(tb), t_end=15.0, dim=1, sid="t")
        assert sequence_distance(a2, b2) == pytest.approx(
            sequence_distance(a, b), rel=1e-12, abs=1e-12
        )

    def test_matrix_is_symmetric_zero_diagonal(self, tmp_path):
        rng = np.random.default_rng(4)
        seqs = []
        for i in range(5):
            n = int(rng.integers(0, 12))
            times = np.sort(rng.uniform(0, 10, size=n))
            seqs.append(seq_of(times, rng.integers(0, 2, size=n), t_end=10.0, dim=2, sid=f"s{i}"))
        corpus = Corpus(tuple(seqs), 2, None)
        mat = distance_matrix(corpus)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0.0)
        path = str(tmp_path / "d.csv")
        save_distance_csv(mat, [s.id for s in corpus], path)
        ids, back = load_distance_csv(path)
        assert ids == [s.id for s in corpus]
        assert np.array_equal(back, mat)


def two_population_corpus(n_each=25, t_end=40.0, seed=0):
    slow = HawkesModel(
        mu=np.array([0.2]), kernel=ExponentialKernel(decay=1.0), A=np.array([[0.5]])
    )
    fast = HawkesModel(
        mu=np.array([2.0]), kernel=ExponentialKernel(decay=1.0), A=np.array([[0.5]])
    )
    ca = simulate_branch(SimConfig(slow, t_end=t_end, n_sequences=n_each, rng_seed=seed))
    cb = simulate_branch(SimConfig(fast, t_end=t_end, n_sequences=n_each, rng_seed=seed + 1))
    seqs = tuple(
        dataclasses.replace(s, id=f"p{i}")
        for i, s in enumerate(list(ca) + list(cb))
    )
    labels = np.array([0] * n_each + [1] * n_each)
    return Corpus(seqs, 1, None), labels


def uniform_corpus(*specs):
    """D=2 sequences on [0, 50], one per (n events, rng seed, mark) spec."""
    seqs = []
    for i, (n, s, mark) in enumerate(specs):
        times = np.sort(np.random.default_rng(s).uniform(0, 50, n))
        seqs.append(seq_of(times, [mark] * n, t_end=50.0, dim=2, sid=f"s{i}"))
    return Corpus(tuple(seqs), 2, None)


class TestClustering:
    def test_mixture_separates_rate_populations(self):
        corpus, labels = two_population_corpus()
        res = cluster_mixture(
            corpus, 2, ExponentialKernel(decay=1.0), LearnConfig(max_iters=60, rng_seed=1)
        )
        assert cluster_purity(res.assignments, labels) >= 0.9
        assert res.responsibilities.shape == (50, 2)
        assert len(res.models) == 2
        assert res.medoids is None
        tr = np.asarray(res.objective_trace)
        assert np.all(np.diff(tr) <= 1e-10)

    def test_single_cluster_matches_plain_fit(self):
        corpus, _ = two_population_corpus(n_each=10)
        cfg = LearnConfig(max_iters=200, tol=1e-10, rng_seed=0)
        res = cluster_mixture(corpus, 1, ExponentialKernel(decay=1.0), cfg)
        plain = fit_mle(corpus, ExponentialKernel(decay=1.0), cfg)
        assert np.allclose(res.models[0].mu, plain.model.mu, atol=1e-5)
        assert np.allclose(res.models[0].A, plain.model.A, atol=1e-5)
        assert np.allclose(res.mixing, [1.0])

    def test_distance_route_separates_rate_populations(self):
        corpus, labels = two_population_corpus()
        res = cluster_distance(corpus, 2, rng_seed=2)
        assert cluster_purity(res.assignments, labels) >= 0.9
        assert res.models == ()
        assert res.medoids is not None
        for k, m in enumerate(res.medoids):
            assert res.assignments[m] == k  # medoid belongs to its own cluster

    def test_distance_route_is_deterministic(self):
        corpus, _ = two_population_corpus(n_each=8)
        r1 = cluster_distance(corpus, 3, rng_seed=5)
        r2 = cluster_distance(corpus, 3, rng_seed=5)
        assert np.array_equal(r1.assignments, r2.assignments)
        assert r1.medoids == r2.medoids

    def test_k_bounds_validated(self):
        corpus, _ = two_population_corpus(n_each=2)
        with pytest.raises(ValidationError):
            cluster_mixture(corpus, 0, ExponentialKernel(decay=1.0))
        with pytest.raises(ValidationError):
            cluster_distance(corpus, 9)

    @pytest.mark.filterwarnings("ignore:branching matrix spectral radius")
    def test_collapsed_cluster_is_reseeded_from_the_worst_sequence(self):
        corpus = uniform_corpus((400, 0, 0), (0, 1, 0), (0, 2, 0))
        with pytest.warns(UserWarning, match="cluster 1 collapsed; reseeding from sequence 's1'"):
            res = cluster_mixture(
                corpus, 3, ExponentialKernel(1.0), LearnConfig(max_iters=40, rng_seed=0)
            )
        assert np.all(np.diff(res.objective_trace) <= 0)

    def test_trace_is_nonincreasing_between_reseeds(self, monkeypatch):
        corpus = uniform_corpus((2000, 1, 0), *((5, s, 1) for s in range(1, 5)))
        seen = []  # warnings caught before each round's objective
        real = analyze._round_objective
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            monkeypatch.setattr(
                analyze, "_round_objective", lambda *a: (seen.append(len(caught)), real(*a))[1]
            )
            res = cluster_mixture(
                corpus, 3, ExponentialKernel(1.0), LearnConfig(max_iters=40, rng_seed=0)
            )
        # a round reseeded when a collapse warning follows its objective
        ends = seen[1:] + [len(caught)]
        reseeds = {
            r for r, (lo, hi) in enumerate(zip(seen, ends))
            if any("collapsed" in str(w.message) for w in caught[lo:hi])
        }
        assert reseeds
        tr = res.objective_trace
        for r in range(len(tr) - 1):
            if r not in reseeds:
                assert tr[r + 1] <= tr[r], r

    def test_purity_formula(self):
        assert cluster_purity([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
        assert cluster_purity([0, 0, 0, 0], [0, 0, 1, 1]) == 0.5
        assert cluster_purity([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5


class TestGranger:
    def fit_graph(self, threshold, seed=0):
        truth = HawkesModel(
            mu=np.array([0.4, 0.4]),
            kernel=ExponentialKernel(decay=1.0),
            A=np.array([[0.45, 0.0], [0.0, 0.35]]),
        )
        corpus = simulate_branch(
            SimConfig(truth, t_end=100.0, n_sequences=60, rng_seed=seed)
        )
        cfg = LearnConfig(max_iters=200, penalty=Penalty("sparse", 2.0))
        return granger_graph(corpus, ExponentialKernel(decay=1.0), cfg, threshold)

    def test_diagonal_truth_recovered_at_default_threshold(self):
        graph = self.fit_graph(threshold=0.05)
        assert np.array_equal(graph.adjacency, np.eye(2, dtype=bool))

    def test_threshold_monotone(self):
        lo = self.fit_graph(threshold=0.001)
        hi = self.fit_graph(threshold=0.2)
        assert np.all(hi.adjacency <= lo.adjacency)
        assert np.allclose(hi.infectivity, lo.infectivity)

    def test_grid_template_rejects_a_penalty(self):
        corpus = simulate_branch(SimConfig(
            HawkesModel(mu=np.array([0.4, 0.4]), kernel=ExponentialKernel(decay=1.0),
                        A=np.array([[0.45, 0.0], [0.0, 0.35]])),
            t_end=50.0, n_sequences=4, rng_seed=1,
        ))
        grid = DiscretizedKernel(dt=0.5, n_lags=4)
        with pytest.raises(ValidationError, match="'sparse'"):
            granger_graph(corpus, grid, LearnConfig(penalty=Penalty("sparse", 50.0)))
        graph = granger_graph(corpus, grid, LearnConfig(max_iters=3))
        assert graph.dim == 2

    def test_graph_validation(self):
        inf = np.array([[0.2, 0.0], [0.1, 0.3]])
        with pytest.raises(ValidationError):
            GrangerGraph(inf, inf > 0.5, threshold=0.05)  # inconsistent mask
        g = GrangerGraph(inf, inf > 0.05, threshold=0.05)
        assert g.dim == 2

    def test_json_round_trip(self, tmp_path):
        g = GrangerGraph(
            np.array([[0.2, 0.0], [0.1, 0.3]]),
            np.array([[True, False], [True, True]]),
            threshold=0.05,
        )
        p = str(tmp_path / "g.json")
        save_granger(g, p)
        back = load_granger(p)
        assert np.allclose(back.infectivity, g.infectivity)
        assert np.array_equal(back.adjacency, g.adjacency)
        assert back.threshold == g.threshold

    def test_dot_output_and_parse(self, tmp_path):
        g = GrangerGraph(
            np.array([[0.25, 0.0], [0.125, 0.3]]),
            np.array([[True, False], [True, True]]),
            threshold=0.05,
        )
        text = granger_to_dot(g, labels=["buy", "sell"])
        assert '"buy" -> "buy" [label="0.250"];' in text
        assert '"sell" -> "buy" [label="0.125"];' in text
        assert '"buy" -> "sell"' not in text
        p = str(tmp_path / "g.dot")
        save_granger_dot(g, p, labels=["buy", "sell"])
        nodes, edges = load_granger_dot(p)
        assert nodes == ["buy", "sell"]
        assert edges[("buy", "buy")] == 0.250
        assert set(edges) == {("buy", "buy"), ("sell", "buy"), ("sell", "sell")}


class TestTvhp:
    def stationary_corpus(self, seed=0, n=30, t_end=60.0):
        truth = HawkesModel(
            mu=np.array([0.4]), kernel=ExponentialKernel(decay=1.0), A=np.array([[0.5]])
        )
        return truth, simulate_branch(
            SimConfig(truth, t_end=t_end, n_sequences=n, rng_seed=seed)
        )

    def test_trace_monotone_and_deterministic(self):
        _, corpus = self.stationary_corpus()
        grid = [0.0, 20.0, 40.0, 60.0]
        f1 = fit_tvhp(corpus, grid, 1.0, LearnConfig(max_iters=40, rng_seed=3), beta=1.0)
        f2 = fit_tvhp(corpus, grid, 1.0, LearnConfig(max_iters=40, rng_seed=3), beta=1.0)
        assert np.array_equal(f1.model.A, f2.model.A)
        tr = np.asarray(f1.objective_trace)
        assert np.all(np.diff(tr) <= 1e-10)

    def test_fit_is_a_fit_report_with_its_counters(self):
        _, corpus = self.stationary_corpus(n=6)
        fit = fit_tvhp(corpus, [0.0, 30.0, 60.0], 1.0, LearnConfig(max_iters=8), beta=2.0)
        assert isinstance(fit, FitReport) and isinstance(fit.model, TvhpModel)
        assert fit.iterations == len(fit.objective_trace) - 1 >= 1
        assert isinstance(fit.objective_trace, tuple)
        assert {"clamp_count", "newton_steps", "objective_evals", "beta"} <= set(fit.details)
        assert fit.details["beta"] == 2.0 and fit.details["objective_evals"] > 0

    def test_huge_drift_penalty_recovers_stationary_fit(self):
        _, corpus = self.stationary_corpus()
        grid = [0.0, 30.0, 60.0]
        tv = fit_tvhp(
            corpus, grid, 1.0, LearnConfig(max_iters=400, tol=1e-12), beta=1e8
        )
        assert tvhp_variation(tv.model) < 1e-4
        flat = fit_mle(corpus, ExponentialKernel(decay=1.0), LearnConfig(max_iters=400, tol=1e-12))
        for g in range(3):
            assert np.allclose(tv.model.A[g], flat.model.A, atol=5e-3)
        assert np.allclose(tv.model.mu, flat.model.mu, atol=5e-3)

    def test_constant_node_likelihood_equals_stationary_form(self):
        truth, corpus = self.stationary_corpus(n=4, t_end=30.0)
        grid = np.array([0.0, 15.0, 30.0])
        tv = TvhpModel(
            mu=truth.mu, grid=grid, A=np.stack([truth.A] * 3), decay=1.0
        )
        want = sum(log_likelihood(truth, s) for s in corpus)
        assert tvhp_log_likelihood(tv, corpus) == pytest.approx(want, rel=1e-12)

    def test_likelihood_rejects_corpus_of_another_dimension(self):
        tv = TvhpModel(
            mu=np.array([0.4]), grid=np.array([0.0, 30.0]), A=np.zeros((2, 1, 1)), decay=1.0
        )
        seq = seq_of([1.0, 2.0], [0, 1], t_end=30.0, dim=2)
        with pytest.raises(ValidationError, match="dimension"):
            tvhp_log_likelihood(tv, Corpus((seq,), 2, None))

    def test_events_outside_grid_rejected_by_name(self):
        _, corpus = self.stationary_corpus(n=2, t_end=60.0)
        with pytest.raises(ValidationError, match="s0"):
            fit_tvhp(corpus, [0.0, 30.0], 1.0, LearnConfig(max_iters=5))

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            TvhpModel(
                mu=np.array([0.1]), grid=np.array([0.0]), A=np.zeros((1, 1, 1)), decay=1.0
            )
        with pytest.raises(ValidationError):
            TvhpModel(
                mu=np.array([0.1]),
                grid=np.array([0.0, 0.0]),
                A=np.zeros((2, 1, 1)),
                decay=1.0,
            )

    def test_variation_statistic(self):
        A = np.zeros((3, 1, 1))
        A[2, 0, 0] = 0.75
        tv = TvhpModel(
            mu=np.array([0.1]), grid=np.array([0.0, 1.0, 2.0]), A=A, decay=1.0
        )
        assert tvhp_variation(tv) == pytest.approx(0.75)

    def test_json_and_csv_round_trips(self, tmp_path):
        rng = np.random.default_rng(6)
        tv = TvhpModel(
            mu=np.array([0.2, 0.3]),
            grid=np.array([0.0, 5.0, 12.0]),
            A=rng.uniform(0.0, 0.4, size=(3, 2, 2)),
            decay=1.4,
        )
        pj = str(tmp_path / "tv.json")
        save_tvhp(tv, pj)
        back = load_tvhp(pj)
        assert np.array_equal(back.A, tv.A)
        assert np.array_equal(back.grid, tv.grid)
        assert back.decay == tv.decay
        pc = str(tmp_path / "tv.csv")
        save_tvhp_csv(tv, pc)
        grid, A = load_tvhp_csv(pc)
        assert np.array_equal(grid, tv.grid)
        assert np.array_equal(A, tv.A)


class TestClusterResultValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            ClusterResult(
                K=2,
                responsibilities=np.array([[0.7, 0.7]]),
                assignments=np.array([0]),
                models=(),
                mixing=np.array([0.5, 0.5]),
            )

    def test_assignments_must_match_argmax(self):
        with pytest.raises(ValidationError):
            ClusterResult(
                K=2,
                responsibilities=np.array([[0.9, 0.1]]),
                assignments=np.array([1]),
                models=(),
                mixing=np.array([0.5, 0.5]),
            )


_TVHP = {"dim": 1, "decay": 1.0, "mu": [0.4], "grid": [0.0, 10.0], "A": [[[0.2]], [[0.3]]]}


@pytest.mark.parametrize(
    "doc",
    [
        {k: v for k, v in _TVHP.items() if k != "dim"},
        {**_TVHP, "dim": "x"},
        {**_TVHP, "dim": 1.5},
        {**_TVHP, "mu": ["a"]},
        {**_TVHP, "A": [[[0.2]], [[0.3, 0.1]]]},
        {**_TVHP, "decay": "fast"},
        {**_TVHP, "mu": [True]},
        {**_TVHP, "decay": True},
        {**_TVHP, "A": [[[0.2]], [[False]]]},
    ],
    ids=["no-dim", "string-dim", "float-dim", "string-mu", "ragged-A", "string-decay",
         "bool-mu", "bool-decay", "bool-A"],
)
def test_malformed_tvhp_document_is_a_format_error(doc, tmp_path):
    p = tmp_path / "tv.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_tvhp(str(p))


@pytest.mark.parametrize(
    "loader,text",
    [
        (load_distance_csv, ""),
        (load_distance_csv, ",a,b\na,0.0,x\nb,1.0,0.0\n"),
        (load_distance_csv, ",a,b\na,0.0\nb,1.0,0.0\n"),
        (load_tvhp_csv, ""),
        (load_tvhp_csv, "s,v,u,a\n"),
        (load_tvhp_csv, "s,v,u,a\n0.0,0,zero,0.1\n"),
        (load_tvhp_csv, "s,v,u,a\n0.0,-1,0,0.5\n1.0,0,0,0.1\n"),
        (read_csv_rows, ""),
        (read_csv_rows, "a,b\n1\n"),
    ],
    ids=["distance-empty", "distance-cell", "distance-short-row", "tvhp-empty",
         "tvhp-no-rows", "tvhp-cell", "tvhp-negative-index", "rows-empty", "rows-short"],
)
def test_malformed_csv_is_a_format_error(loader, text, tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(text)
    with pytest.raises(FormatError):
        loader(str(p))


@pytest.mark.parametrize(
    "kwargs,named",
    [
        ({"beta": math.inf}, "beta must be finite"),
        ({"beta": math.nan}, "beta must be finite"),
        ({"decay": math.inf}, "decay must be finite"),
        ({"grid": [0.0, math.nan, 100.0]}, "grid must be finite"),
        ({"grid": [0.0, 50.0, math.inf]}, "grid must be finite"),
    ],
)
def test_tvhp_refuses_non_finite_knobs(kwargs, named):
    corpus = Corpus((seq_of([1.0, 2.0, 40.0], [0, 1, 0], t_end=60.0, dim=2),), 2, None)
    args = {"grid": [0.0, 30.0, 60.0], "decay": 1.0, "beta": 1.0, **kwargs}
    with pytest.raises(ValidationError, match=named):
        fit_tvhp(corpus, args["grid"], args["decay"], LearnConfig(max_iters=2), beta=args["beta"])


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_granger_refuses_a_non_finite_threshold(threshold):
    corpus = Corpus((seq_of([1.0, 2.0, 40.0], [0, 1, 0], t_end=60.0, dim=2),), 2, None)
    with pytest.raises(ValidationError, match="threshold must be finite"):
        granger_graph(corpus, ExponentialKernel(decay=1.0), LearnConfig(max_iters=2), threshold)
