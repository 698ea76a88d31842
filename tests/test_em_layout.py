"""The mark-sorted EM statistics against the event-major layout they replaced.

``_EmStats`` stores its events sorted by mark (a stable argsort of the
corpus order), so the events of each target u fill one row block of R
(n, C·D), and ``rates`` and ``contract`` make one matrix-vector product per
block.  The reference is the former layout, ``GemmStats`` below: events in
corpus order, ``rates`` as one row gather of the coefficients
(``core._excited``) and ``contract`` as one matrix product with the marks'
one-hot matrix.  The feature references build the channel-major (C, n, D)
features from scratch.

- Features, exposures, marks and sequence indices are the same numbers in a
  new order: they must equal the reference permuted by the stable argsort of
  the corpus marks, to the bit.
- ``rates`` and ``contract`` add the same terms in another order, so they
  must agree with the reference within 1e-15 of the largest entry.
- Every EM learner on the new layout must agree with the same learner on
  the reference layout to 1e-12: equal iteration counts, traces elementwise
  and ``mu``/``A`` relative to their largest entry.  ``_projected_newton``
  makes the M-step a continuous function of its inputs, so statistics that
  differ by rounding give fits that differ by rounding.
"""

import json

import numpy as np
import pytest

import hawkeskit.analyze as analyze
import hawkeskit.learn as learn
from hawkeskit import (
    Corpus,
    DiscretizedKernel,
    EventSequence,
    HawkesModel,
    LearnConfig,
    Penalty,
    cluster_mixture,
    fit_mle,
    fit_mle_ode,
    fit_tvhp,
    granger_graph,
)
from hawkeskit.core import _excited, _pair_arrays, exp_weighted_excitation
from hawkeskit.learn import _EmStats, _kernel_stats, exp_nll_and_grad
from test_em_equivalence import BASIS, EXP, GOLDEN, _corpus_from_doc

GRID = DiscretizedKernel(dt=0.5, n_lags=6)
SCALED_RTOL = 1e-15
FIT_RTOL = 1e-12


# --- the references -------------------------------------------------------------


def onehot(marks, dim):
    return (marks[:, None] == np.arange(dim)[None, :]).astype(np.float64)


def ref_exp_features(times, W, decay):
    n, C, D = W.shape
    cols = np.broadcast_to(np.arange(C * D), (n, C * D))
    R = exp_weighted_excitation(times, cols, W.reshape(n, C * D), C * D, decay)
    return R.reshape(n, C, D).transpose(1, 0, 2)


def ref_exp_exposures(seq, W, decay):
    mass = 1.0 - np.exp(-decay * (seq.t_end - seq.times))
    return (W * mass[:, None, None]).sum(axis=0)


def ref_lag_features(seq, kernel, D):
    n = len(seq)
    src, tgt = _pair_arrays(seq.times, kernel.support)
    dens = kernel.density(seq.times[tgt] - seq.times[src])
    idx = tgt * D + seq.marks[src]
    sums = [np.bincount(idx, weights=w, minlength=n * D) for w in dens]
    return np.stack(sums).reshape(len(dens), n, D)


def ref_lag_exposures(seq, kernel, D):
    mass = kernel.mass(seq.t_end - seq.times)
    return np.stack([np.bincount(seq.marks, weights=m, minlength=D) for m in mass])


def mark_order(corpus):
    """The stored permutation: a stable argsort of the corpus-order marks."""
    return np.argsort(np.concatenate([s.marks for s in corpus]), kind="stable")


def gemm_rates(R, marks, mu, A):
    return mu[marks] + _excited(R, A, marks)


def gemm_contract(R, marks, w, C, D):
    return ((R * w[:, None]).T @ onehot(marks, D)).reshape(C, D, D)


class GemmStats(_EmStats):
    """The former layout: events in corpus order, one GEMM per contraction."""

    def __init__(self, corpus, features):
        super().__init__(corpus, features)
        rank = np.argsort(mark_order(corpus))
        self.R, self.marks, self.seq_idx = self.R[rank], self.marks[rank], self.seq_idx[rank]

    def rates(self, mu, A):
        return gemm_rates(self.R, self.marks, mu, A)

    def contract(self, w):
        return gemm_contract(self.R, self.marks, w, self.C, self.dim)


# --- corpora ------------------------------------------------------------------


def _random_corpus(D, n_seq, n_each, seed, t_end=200.0, marks=None):
    """Uniform times; marks uniform over ``marks`` (default: all D)."""
    rng = np.random.default_rng(seed)
    draw = (lambda: rng.integers(0, D, n_each)) if marks is None else (
        lambda: rng.choice(marks, n_each))
    seqs = tuple(
        EventSequence(np.sort(rng.uniform(0.0, t_end, n_each)), draw(), 0.0, t_end, D, f"s{i}")
        for i in range(n_seq)
    )
    return Corpus(seqs, D)


def _empty_corpus(D, n_seq, t_end=50.0):
    seqs = tuple(EventSequence(np.empty(0), np.empty(0, dtype=np.int64), 0.0, t_end, D, f"e{i}")
                 for i in range(n_seq))
    return Corpus(seqs, D)


def _with_empty_sequence(corpus):
    empty = EventSequence(np.empty(0), np.empty(0, dtype=np.int64), 0.0, 10.0, corpus.dim, "e")
    seqs = corpus.sequences
    return Corpus(seqs[:1] + (empty,) + seqs[1:], corpus.dim)


@pytest.fixture(scope="module")
def corpora():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["corpora"]
    return {
        "exp": _corpus_from_doc(golden["exp"]),
        "lag": _corpus_from_doc(golden["lag"]),
        "d20": _random_corpus(20, 4, 500, seed=5),
        # empty mark blocks: dimension 1 never fires, one sequence is empty
        "silent": _with_empty_sequence(_random_corpus(3, 3, 80, seed=6, marks=[0, 2])),
        # every event on the last mark
        "single": _random_corpus(3, 2, 60, seed=7, marks=[2]),
        # no events at all
        "empty": _empty_corpus(2, 3),
    }


def _random_params(stats, seed):
    rng = np.random.default_rng(seed)
    n = stats.R.shape[0]
    mu = rng.uniform(0.1, 1.0, stats.dim)
    A = rng.uniform(0.0, 0.1, (stats.C, stats.dim, stats.dim))
    w = rng.uniform(0.5, 2.0, n)
    return mu, A, w


# --- statistics ----------------------------------------------------------------


def check_stats(corpus, stats, R3, G):
    """Bit-equal stored statistics, and rates and contract near the GEMM form."""
    order = mark_order(corpus)
    n, C, D = R3.shape[1], R3.shape[0], corpus.dim
    assert stats.C == C
    R, marks = R3.transpose(1, 0, 2).reshape(n, C * D), np.concatenate([s.marks for s in corpus])
    assert np.array_equal(stats.R, R[order])
    assert np.array_equal(stats.G_s, G)
    assert np.array_equal(stats.marks, marks[order])
    seq_idx = np.repeat(np.arange(len(corpus)), [len(s) for s in corpus])
    assert np.array_equal(stats.seq_idx, seq_idx[order])
    counts = np.bincount(stats.marks, minlength=D)
    assert [u for u, _, _ in stats.blocks] == list(np.flatnonzero(counts))
    for u, a, b in stats.blocks:
        assert b - a == counts[u] and np.all(stats.marks[a:b] == u)

    # the former layout, on the corpus-order arrays
    mu, A, w = _random_params(stats, 2)
    rank = np.argsort(order)
    for got, want in [(stats.rates(mu, A), gemm_rates(R, marks, mu, A)[order]),
                      (stats.contract(w), gemm_contract(R, marks, w[rank], C, D))]:
        assert got.shape == want.shape
        scale = float(np.abs(want).max()) if want.size else 0.0
        np.testing.assert_allclose(got, want, rtol=0.0, atol=SCALED_RTOL * scale)


@pytest.mark.parametrize("name", ["exp", "d20", "silent", "single", "empty"])
def test_exponential_stats(corpora, name):
    corpus = corpora[name]
    D = corpus.dim
    W = [onehot(s.marks, D)[:, None, :] for s in corpus]
    R3 = np.concatenate([ref_exp_features(s.times, w, EXP.decay) for s, w in zip(corpus, W)],
                        axis=1)
    G = np.stack([ref_exp_exposures(s, w, EXP.decay) for s, w in zip(corpus, W)])
    check_stats(corpus, _kernel_stats(corpus, EXP), R3, G)


def _lag_stats(corpus, kernel):
    stats = _kernel_stats(corpus, kernel)
    R3 = np.concatenate([ref_lag_features(s, kernel, corpus.dim) for s in corpus], axis=1)
    G = np.stack([ref_lag_exposures(s, kernel, corpus.dim) for s in corpus])
    return stats, R3, G


def _tvhp_stats(corpus, monkeypatch):
    """The node statistics, and the reference features and exposures from
    the same per-event node weights W."""
    grid = np.linspace(0.0, max(s.t_end for s in corpus), 4)
    excitation = analyze.exp_weighted_excitation
    weights = []

    def capture(times, cols, vals, width, decay):
        # the dense per-event node weights of the sparse entries
        W = np.zeros((len(times), width))
        np.put_along_axis(W, cols, vals, axis=1)
        weights.append((W.reshape(len(times), grid.size, corpus.dim), decay))
        return excitation(times, cols, vals, width, decay)

    monkeypatch.setattr(analyze, "exp_weighted_excitation", capture)
    stats = analyze._tvhp_stats(corpus, grid, 1.0)
    R3 = np.concatenate([ref_exp_features(s.times, *args) for s, args in zip(corpus, weights)],
                        axis=1)
    G = np.stack([ref_exp_exposures(s, *args) for s, args in zip(corpus, weights)])
    return stats, R3, G


@pytest.mark.parametrize("name", ["lag", "silent", "single", "empty"])
@pytest.mark.parametrize("case", ["basis", "grid", "tvhp"])
def test_multichannel_stats(corpora, name, case, monkeypatch):
    corpus = corpora[name]
    if case == "tvhp":
        stats, R3, G = _tvhp_stats(corpus, monkeypatch)
    else:
        stats, R3, G = _lag_stats(corpus, BASIS if case == "basis" else GRID)
    assert stats.C > 1
    check_stats(corpus, stats, R3, G)


# --- every EM learner on both layouts ---------------------------------------------


def _report(rep):
    """(arrays compared relative to their largest entry, trace)."""
    return [rep.model.mu, rep.model.A], rep.objective_trace


def _structural(kind):
    def run(c):
        cfg = LearnConfig(max_iters=200, tol=1e-8, penalty=Penalty(kind, 0.5), rng_seed=3)
        return _report(fit_mle(c["exp"], EXP, cfg))

    return run


def _basis(c):
    return _report(fit_mle(c["lag"], BASIS, LearnConfig(max_iters=100, tol=1e-7)))


def _ode(c):
    return _report(fit_mle_ode(c["lag"], 0.5, 6, LearnConfig(max_iters=60, rng_seed=1), alpha=1.0))


def _tvhp(c):
    grid = np.linspace(0.0, max(s.t_end for s in c["lag"]), 4)
    return _report(fit_tvhp(c["lag"], grid, 1.0, LearnConfig(max_iters=60, rng_seed=2), beta=0.5))


def _granger(c):
    return [granger_graph(c["d20"], EXP, LearnConfig(max_iters=12)).infectivity], ()


def _cluster(c):
    res = cluster_mixture(c["exp"], 2, EXP, LearnConfig(max_iters=30, tol=1e-6))
    return [res.responsibilities] + [a for m in res.models for a in (m.mu, m.A)], \
        res.objective_trace


def _gradient(c):
    rng = np.random.default_rng(4)
    D = c["d20"].dim
    model = HawkesModel(mu=rng.uniform(0.1, 0.5, D), kernel=EXP,
                        A=rng.uniform(0.0, 0.04, (D, D)))
    nll, grad_mu, grad_A = exp_nll_and_grad(model, c["d20"])
    return [np.array([nll]), grad_mu, grad_A], ()


FITS = {
    "mle_none": _structural("none"),
    "mle_sparse": _structural("sparse"),
    "mle_group_sparse": _structural("group_sparse"),
    "mle_low_rank": _structural("low_rank"),
    "mle_basis": _basis,
    "mle_ode": _ode,
    "tvhp": _tvhp,
    "granger_graph": _granger,
    "cluster_mixture": _cluster,
    "exp_nll_and_grad": _gradient,
}


@pytest.mark.parametrize("case", list(FITS))
def test_results_agree_with_the_gemm_layout(corpora, case, monkeypatch):
    got, got_trace = FITS[case](corpora)
    with monkeypatch.context() as m:
        m.setattr(learn, "_EmStats", GemmStats)
        m.setattr(analyze, "_EmStats", GemmStats)
        want, want_trace = FITS[case](corpora)
    assert len(got_trace) == len(want_trace)
    np.testing.assert_allclose(got_trace, want_trace, rtol=FIT_RTOL, atol=0.0)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=0.0, atol=FIT_RTOL * float(np.abs(b).max()))
