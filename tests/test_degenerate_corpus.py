"""Every EM learner on a corpus with a silent dimension, a zero-length window
and tied timestamps.

Dimension 2 of the corpus below never fires, so its one-hot column in the
EM statistics is empty and its baseline and incoming coefficients get no
attribution; one sequence has ``t_start == t_end`` and no events; and the
other two repeat some of their event times.  Every learner must return a
finite fit with ``mu == 0`` on the silent dimension and without a numpy
RuntimeWarning (turned into an error here), while ``fit_ls``, which bins
each window, must refuse the zero-length one with a ValidationError.
"""

import numpy as np
import pytest

from hawkeskit import (
    Corpus,
    DiscretizedKernel,
    EventSequence,
    ExponentialKernel,
    GaussianBasisKernel,
    LearnConfig,
    Penalty,
    ValidationError,
    branching_matrix,
    cluster_mixture,
    fit_ls,
    fit_mle,
    fit_mle_ode,
    fit_tvhp,
    granger_graph,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

D = 3
SILENT = 2
T_END = 60.0
EXP = ExponentialKernel(decay=1.0)
BASIS = GaussianBasisKernel(centers=np.array([0.5, 1.5]), bandwidth=0.5, support=3.0)
GRID = DiscretizedKernel(dt=0.5, n_lags=6)
PENALTIES = ("none", "sparse", "group_sparse", "low_rank")


def _tied_sequence(seed: int, sid: str) -> EventSequence:
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, T_END, 50)
    times = np.sort(np.concatenate([times, times[:8], times[:3]]))  # pairs and triples
    marks = rng.integers(0, SILENT, times.size)
    return EventSequence(times, marks, 0.0, T_END, D, sid)


@pytest.fixture(scope="module")
def corpus():
    seqs = (
        _tied_sequence(1, "a"),
        EventSequence(np.empty(0), np.empty(0, dtype=np.int64), 30.0, 30.0, D, "empty-window"),
        _tied_sequence(2, "b"),
    )
    c = Corpus(seqs, D)
    assert c.n_events > 0 and all(np.all(s.marks != SILENT) for s in c)
    assert any(np.any(np.diff(s.times) == 0) for s in c)
    return c


def _check_fit(mu, A):
    assert np.all(np.isfinite(mu)) and np.all(np.isfinite(A))
    assert mu[SILENT] == 0.0
    assert np.all(mu[:SILENT] > 0)


@pytest.mark.parametrize("penalty", PENALTIES)
@pytest.mark.parametrize("kernel", [EXP, BASIS, GRID], ids=["exp", "basis", "grid"])
def test_fit_mle(corpus, kernel, penalty):
    cfg = LearnConfig(max_iters=30, penalty=Penalty(penalty, 0.5))
    rep = fit_mle(corpus, kernel, cfg)
    _check_fit(rep.model.mu, rep.model.A)
    assert np.all(np.isfinite(rep.objective_trace))


def test_fit_mle_ode(corpus):
    rep = fit_mle_ode(corpus, 0.5, 6, LearnConfig(max_iters=30), alpha=1.0)
    _check_fit(rep.model.mu, rep.model.A)


def test_fit_tvhp(corpus):
    rep = fit_tvhp(corpus, np.linspace(0.0, T_END, 4), 1.0, LearnConfig(max_iters=30))
    _check_fit(rep.model.mu, rep.model.A)


def test_cluster_mixture(corpus):
    res = cluster_mixture(corpus, 2, EXP, LearnConfig(max_iters=10))
    assert np.all(np.isfinite(res.responsibilities))
    for model in res.models:
        _check_fit(model.mu, model.A)


@pytest.mark.parametrize("kernel", [EXP, GRID], ids=["exp", "grid"])
def test_granger_graph(corpus, kernel):
    graph = granger_graph(corpus, kernel, LearnConfig(max_iters=30))
    assert np.all(np.isfinite(graph.infectivity))
    # no dimension that fires is drawn into the silent one
    assert not graph.adjacency[:SILENT, SILENT].any()


def test_fit_ls_refuses_the_zero_length_window(corpus):
    with pytest.raises(ValidationError, match="empty-window"):
        fit_ls(corpus, 0.5, 6)
