"""Error paths and degenerate branches that the rest of the suite never reaches."""

import numpy as np
import pytest

from hawkeskit.analyze import (
    ClusterResult,
    GrangerGraph,
    TvhpModel,
    cluster_distance,
    cluster_mixture,
    cluster_purity,
    fit_tvhp,
    granger_to_dot,
    load_distance_csv,
    load_granger_dot,
    load_tvhp_csv,
    save_distance_csv,
    tvhp_log_likelihood,
)
from hawkeskit.core import (
    EventSequence,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesModel,
    ValidationError,
    compensator,
)
from hawkeskit.data import Corpus, FormatError
from hawkeskit.learn import LearnConfig, Penalty, fit_ls, fit_mle, fit_mle_ode


def _seq(sid, times=(1.0, 2.5, 4.0), marks=(0, 1, 0)):
    return EventSequence(np.array(times), np.array(marks), 0.0, 10.0, 2, sid)


def test_mixture_with_fewer_sequences_than_clusters_is_refused():
    corpus = Corpus((_seq("a"), _seq("b")), 2)
    with pytest.raises(ValidationError, match="fewer than K=3"):
        cluster_mixture(corpus, 3, ExponentialKernel(decay=1.0), LearnConfig(max_iters=5))


def test_medoids_seed_uniformly_when_every_distance_is_zero():
    # four identical sequences: every remaining seeding weight is 0, so the
    # seeding draws among the sequences not yet chosen
    corpus = Corpus(tuple(_seq(f"s{i}") for i in range(4)), 2)
    res = cluster_distance(corpus, 3, rng_seed=0)
    assert len(set(res.medoids)) == 3
    assert res.objective_trace == (0.0,)


def test_every_medoid_sits_in_its_own_nonempty_cluster():
    # ties at distance 0 used to send every sequence, medoids included, to
    # the first medoid's cluster
    corpus = Corpus(tuple(_seq(f"s{i}") for i in range(4)), 2)
    res = cluster_distance(corpus, 3, rng_seed=0)
    assert [res.assignments[m] for m in res.medoids] == [0, 1, 2]
    assert np.all(np.bincount(res.assignments, minlength=3) > 0)
    assert res.assignments.tolist() == [0, 0, 1, 2]
    np.testing.assert_allclose(res.mixing, [0.5, 0.25, 0.25])


@pytest.mark.parametrize(
    "text,named",
    [
        ("graph G {\n}\n", "not a digraph file"),
        ('digraph granger {\n  rankdir=LR;\n}\n', "unrecognized line"),
    ],
    ids=["not-a-digraph", "unrecognized-line"],
)
def test_malformed_dot_is_a_format_error(text, named, tmp_path):
    p = tmp_path / "g.dot"
    p.write_text(text)
    with pytest.raises(FormatError, match=named):
        load_granger_dot(str(p))


def test_tvhp_csv_with_a_wrong_header_is_a_format_error(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("s,v,u,b\n0.0,0,0,0.1\n")
    with pytest.raises(FormatError, match="expected header s,v,u,a"):
        load_tvhp_csv(str(p))


def test_compensator_over_a_reversed_window_is_refused():
    model = HawkesModel(mu=np.array([0.5, 0.5]), kernel=ExponentialKernel(1.0),
                        A=np.full((2, 2), 0.1))
    with pytest.raises(ValidationError, match="need t0 <= t1"):
        compensator(model, _seq("a"), 0, 5.0, 4.0)


EXP = ExponentialKernel(decay=1.0)
PAIR = Corpus((_seq("a"), _seq("b")), 2)
EMPTY = Corpus((), 2)


@pytest.mark.parametrize(
    "build,named",
    [
        (lambda: EventSequence(np.ones((2, 2)), np.zeros((2, 2)), 0.0, 10.0, 2),
         "times and marks must be 1-d arrays of equal length"),
        (lambda: EventSequence(np.array([]), np.array([]), 0.0, 10.0, 0), "dim must be >= 1"),
        (lambda: EventSequence(np.array([]), np.array([]), 5.0, 4.0, 1),
         r"t_end \(4.0\) must be >= t_start \(5.0\)"),
        (lambda: GaussianBasisKernel(np.array([1.0, 0.5]), 0.5),
         "centers must be sorted nondecreasing"),
        (lambda: HawkesModel(np.array([]), EXP, np.zeros((0, 0))),
         "mu must be a nonempty 1-d array"),
        (lambda: HawkesModel(np.full((2, 2), 0.1), EXP, np.zeros((2, 2))),
         "mu must be a nonempty 1-d array"),
    ],
    ids=["seq-2d-times", "seq-dim-0", "seq-reversed-window", "basis-unsorted-centers",
         "model-empty-mu", "model-2d-mu"],
)
def test_malformed_core_objects_are_refused(build, named):
    with pytest.raises(ValidationError, match=named):
        build()


def test_an_unknown_penalty_kind_is_refused():
    with pytest.raises(ValidationError, match="penalty kind 'bogus' not one of"):
        Penalty("bogus")


@pytest.mark.parametrize(
    "fit,named",
    [
        (lambda: fit_mle(EMPTY, EXP), "corpus is empty"),
        (lambda: fit_ls(EMPTY, 0.5, 2), "corpus is empty"),
        (lambda: fit_mle(PAIR, EXP, weights=[1.0]), r"one entry per sequence \(2\)"),
        (lambda: fit_mle(PAIR, EXP, weights=[0.0, 0.0]),
         "total weighted observation time is zero"),
        (lambda: fit_mle_ode(PAIR, 0.5, 1), "need n_lags >= 2"),
        (lambda: fit_tvhp(PAIR, [0.0, 10.0], 1.0,
                          LearnConfig(penalty=Penalty("sparse", 0.5))),
         "structural penalties are not supported"),
        (lambda: fit_tvhp(PAIR, [0.0], 1.0), "grid must be strictly increasing with >= 2 nodes"),
    ],
    ids=["mle-empty", "ls-empty", "weights-length", "weights-zero", "ode-one-lag",
         "tvhp-penalty", "tvhp-one-node"],
)
def test_em_learner_arguments_it_cannot_use_are_refused(fit, named):
    with pytest.raises(ValidationError, match=named):
        fit()


def test_tvhp_log_likelihood_of_an_event_at_zero_intensity_is_minus_infinity():
    model = TvhpModel(np.zeros(2), [0.0, 10.0], np.zeros((2, 2, 2)), 1.0)
    assert tvhp_log_likelihood(model, PAIR) == -np.inf


# ---------------------------------------------------------------------------
# analyze: constructor and file-format refusals


@pytest.mark.parametrize(
    "infectivity, adjacency, message",
    [
        (np.zeros((2, 3)), np.zeros((2, 3), bool), "infectivity must be a square matrix"),
        (np.zeros(4), np.zeros(4, bool), "infectivity must be a square matrix"),
        (np.zeros((2, 2)), np.zeros((3, 3), bool), "adjacency shape must match infectivity"),
        (np.zeros((2, 2)), np.zeros(2, bool), "adjacency shape must match infectivity"),
    ],
)
def test_granger_graph_refuses_bad_shapes(infectivity, adjacency, message):
    with pytest.raises(ValidationError, match=message):
        GrangerGraph(infectivity, adjacency, 0.1)


def test_granger_dot_needs_one_label_per_dimension():
    graph = GrangerGraph(np.array([[0.0, 0.3], [0.0, 0.0]]), np.array([[0, 1], [0, 0]], bool), 0.1)
    assert "digraph" in granger_to_dot(graph, ["x", "y"])
    with pytest.raises(ValidationError, match="need 2 labels, got 1"):
        granger_to_dot(graph, ["x"])
    with pytest.raises(ValidationError, match="need 2 labels, got 3"):
        granger_to_dot(graph, ["x", "y", "z"])


@pytest.mark.parametrize(
    "K, resp, assign, mixing",
    [
        (3, [[1.0, 0.0]], [0], [0.5, 0.5]),  # K disagrees with the responsibilities
        (2, [[1.0, 0.0]], [0], [1.0]),  # mixing of the wrong length
        (2, [[1.0, 0.0]], [0, 0], [0.5, 0.5]),  # one assignment too many
    ],
)
def test_cluster_result_refuses_inconsistent_shapes(K, resp, assign, mixing):
    with pytest.raises(ValidationError, match="cluster result shapes are inconsistent"):
        ClusterResult(K=K, responsibilities=np.array(resp), assignments=np.array(assign),
                      models=(), mixing=np.array(mixing))


def test_cluster_result_refuses_mixing_that_does_not_sum_to_one():
    with pytest.raises(ValidationError, match="mixing must sum to 1"):
        ClusterResult(K=2, responsibilities=np.array([[1.0, 0.0]]), assignments=np.array([0]),
                      models=(), mixing=np.array([0.5, 0.4]))


@pytest.mark.parametrize("assignments, labels", [([0, 1], [0]), ([], []), ([[0, 1]], [0, 1])])
def test_purity_refuses_unequal_or_empty_inputs(assignments, labels):
    with pytest.raises(ValidationError, match="must be equal-length, nonempty"):
        cluster_purity(np.array(assignments, dtype=np.int64), np.array(labels, dtype=np.int64))


def test_distance_csv_needs_one_id_per_row_and_writes_nothing(tmp_path):
    path = tmp_path / "distance.csv"
    with pytest.raises(ValidationError, match="one id per matrix row required"):
        save_distance_csv(np.zeros((2, 2)), ["a"], str(path))
    assert not path.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("x,a,b\na,0.0,1.0\nb,1.0,0.0\n", "expected empty corner cell"),
        (",a,b\na,0.0,1.0\n", "matrix shape does not match id count"),
        (",a\na,0.0\nb,1.0\n", "matrix shape does not match id count"),
    ],
)
def test_distance_csv_refuses_a_bad_header_or_shape(tmp_path, text, message):
    path = tmp_path / "distance.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=message):
        load_distance_csv(str(path))


def test_distance_csv_round_trips(tmp_path):
    path = tmp_path / "distance.csv"
    mat = np.array([[0.0, 1.5], [1.5, 0.0]])
    save_distance_csv(mat, ["a", "b"], str(path))
    ids, got = load_distance_csv(str(path))
    assert ids == ["a", "b"] and np.array_equal(got, mat)


def test_tvhp_model_refuses_coefficients_off_the_grid():
    message = r"node coefficients must have shape \(2, 1, 1\), got \(3, 1, 1\)"
    with pytest.raises(ValidationError, match=message):
        TvhpModel(np.array([0.1]), np.array([0.0, 1.0]), np.zeros((3, 1, 1)), 1.0)
    message = r"node coefficients must have shape \(2, 2, 2\), got \(2, 1, 1\)"
    with pytest.raises(ValidationError, match=message):
        TvhpModel(np.array([0.1, 0.2]), np.array([0.0, 1.0]), np.zeros((2, 1, 1)), 1.0)
