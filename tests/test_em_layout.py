"""The event-major EM statistics against the channel-major layout they replaced.

``_EmStats.R`` holds the excitation features as (n, C·D), column c·D + v,
so ``rates`` gathers one contiguous coefficient row per event and
``contract`` is one matrix product over all events.  The references below
are the former implementations over R as (C, n, D): the feature functions,
``rates`` as one einsum over the gathered (C, D, n) coefficients, and
``contract`` as C batched matrix products.

- The features themselves are the same numbers in a new order, built by the
  same operations, so they must be equal to the bit.
- With C = 1 (the exponential kernel), ``contract`` is the same BLAS call
  as before and ``rates`` the same sum in the same order, so both must be
  equal to the bit, and so must every fit and gradient built on them.
- With C > 1 (basis and grid kernels, TVHP grid nodes), ``contract`` sums
  over all n events in one product where it made C, and ``rates`` sums the
  C·D terms in one pass, so both may round differently: results must agree
  within 1e-15 of the largest entry.
"""

import json

import numpy as np
import pytest

import hawkeskit.analyze as analyze
from hawkeskit import (
    Corpus,
    DiscretizedKernel,
    EventSequence,
    HawkesModel,
    LearnConfig,
    Penalty,
    cluster_mixture,
    fit_mle,
    granger_graph,
)
from hawkeskit.core import _pair_arrays, _pair_sums, exp_weighted_excitation
from hawkeskit.learn import _EmStats, _kernel_stats, _onehot, exp_nll_and_grad
from test_em_equivalence import BASIS, EXP, GOLDEN, _corpus_from_doc

GRID = DiscretizedKernel(dt=0.5, n_lags=6)
SCALED_RTOL = 1e-15


# --- the (C, n, D) reference ------------------------------------------------


def ref_exp_features(seq, W, decay):
    n, C, D = W.shape
    R = exp_weighted_excitation(seq.times, W.reshape(n, C * D), decay)
    return R.reshape(n, C, D).transpose(1, 0, 2)


def ref_lag_features(seq, kernel, D):
    src, tgt = _pair_arrays(seq.times, kernel.support)
    dens = kernel.density(seq.times[tgt] - seq.times[src])
    return _pair_sums(dens, tgt, seq.marks[src], len(seq), D)


def ref_rates_of(R3, marks, mu, A):
    return mu[marks] + np.einsum("cjv,cvj->j", R3, A[:, :, marks])


def ref_contract_of(R3, onehot, w):
    return np.matmul((R3 * w[:, None]).transpose(0, 2, 1), onehot)


def channel_major(stats):
    """stats.R as the former contiguous (C, n, D) array."""
    n = stats.R.shape[0]
    return np.ascontiguousarray(stats.R.reshape(n, stats.C, stats.dim).transpose(1, 0, 2))


def ref_rates(self, mu, A):
    return ref_rates_of(channel_major(self), self.marks, mu, A)


def ref_contract(self, w):
    return ref_contract_of(channel_major(self), self.onehot, w)


# --- corpora ------------------------------------------------------------------


def _random_corpus(D, n_seq, n_each, seed, t_end=200.0):
    rng = np.random.default_rng(seed)
    seqs = tuple(
        EventSequence(np.sort(rng.uniform(0.0, t_end, n_each)),
                      rng.integers(0, D, n_each), 0.0, t_end, D, f"s{i}")
        for i in range(n_seq)
    )
    return Corpus(seqs, D)


@pytest.fixture(scope="module")
def corpora():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["corpora"]
    return {
        "exp": _corpus_from_doc(golden["exp"]),
        "lag": _corpus_from_doc(golden["lag"]),
        "d20": _random_corpus(20, 4, 500, seed=5),
    }


def _random_params(stats, seed):
    rng = np.random.default_rng(seed)
    n = stats.R.shape[0]
    mu = rng.uniform(0.1, 1.0, stats.dim)
    A = rng.uniform(0.0, 0.1, (stats.C, stats.dim, stats.dim))
    w = rng.uniform(0.5, 2.0, n)
    return mu, A, w


# --- statistics ----------------------------------------------------------------


@pytest.mark.parametrize("name", ["exp", "d20"])
def test_exponential_stats_equal_the_reference_to_the_bit(corpora, name):
    corpus = corpora[name]
    D = corpus.dim
    stats = _kernel_stats(corpus, EXP)
    R3 = np.concatenate(
        [ref_exp_features(s, _onehot(s.marks, D)[:, None, :], EXP.decay) for s in corpus], axis=1
    )
    assert stats.C == 1
    assert np.array_equal(channel_major(stats), R3)
    mu, A, w = _random_params(stats, 1)
    assert np.array_equal(stats.rates(mu, A), ref_rates_of(R3, stats.marks, mu, A))
    assert np.array_equal(stats.contract(w), ref_contract_of(R3, stats.onehot, w))


def _lag_stats(corpus, kernel):
    stats = _kernel_stats(corpus, kernel)
    R3 = np.concatenate([ref_lag_features(s, kernel, corpus.dim) for s in corpus], axis=1)
    return stats, R3


def _tvhp_stats(corpus, monkeypatch):
    """The node statistics, and the reference features from the same
    per-event node weights W."""
    grid = np.linspace(0.0, max(s.t_end for s in corpus), 4)
    features = analyze._exp_features
    weights = []

    def capture(seq, W, decay):
        weights.append((seq, W, decay))
        return features(seq, W, decay)

    monkeypatch.setattr(analyze, "_exp_features", capture)
    stats = analyze._tvhp_stats(corpus, grid, 1.0)
    R3 = np.concatenate([ref_exp_features(*args) for args in weights], axis=1)
    return stats, R3


@pytest.mark.parametrize("case", ["basis", "grid", "tvhp"])
def test_multichannel_stats_agree_with_the_reference(corpora, case, monkeypatch):
    corpus = corpora["lag"]
    if case == "tvhp":
        stats, R3 = _tvhp_stats(corpus, monkeypatch)
    else:
        stats, R3 = _lag_stats(corpus, BASIS if case == "basis" else GRID)
    assert stats.C == R3.shape[0] > 1
    assert np.array_equal(channel_major(stats), R3)
    mu, A, w = _random_params(stats, 2)
    for got, want in [
        (stats.rates(mu, A), ref_rates_of(R3, stats.marks, mu, A)),
        (stats.contract(w), ref_contract_of(R3, stats.onehot, w)),
    ]:
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=SCALED_RTOL * float(np.abs(want).max()))


# --- exponential fits with the reference methods patched in ---------------------


def _arrays(rep):
    return [rep.model.mu, rep.model.A, np.asarray(rep.objective_trace)]


def _structural(kind):
    def run(c):
        cfg = LearnConfig(max_iters=200, tol=1e-8, penalty=Penalty(kind, 0.5), rng_seed=3)
        return _arrays(fit_mle(c["exp"], EXP, cfg))

    return run


def _granger(c):
    return [granger_graph(c["d20"], EXP, LearnConfig(max_iters=12)).infectivity]


def _cluster(c):
    res = cluster_mixture(c["exp"], 2, EXP, LearnConfig(max_iters=30, tol=1e-6))
    return [res.responsibilities, np.asarray(res.objective_trace)] + [
        a for m in res.models for a in (m.mu, m.A)
    ]


def _gradient(c):
    rng = np.random.default_rng(4)
    D = c["d20"].dim
    model = HawkesModel(mu=rng.uniform(0.1, 0.5, D), kernel=EXP,
                        A=rng.uniform(0.0, 0.04, (D, D)))
    nll, grad_mu, grad_A = exp_nll_and_grad(model, c["d20"])
    return [np.array([nll]), grad_mu, grad_A]


FITS = {
    "mle_none": _structural("none"),
    "mle_sparse": _structural("sparse"),
    "mle_group_sparse": _structural("group_sparse"),
    "mle_low_rank": _structural("low_rank"),
    "granger_graph": _granger,
    "cluster_mixture": _cluster,
    "exp_nll_and_grad": _gradient,
}


@pytest.mark.parametrize("case", list(FITS))
def test_exponential_results_are_bit_identical_to_the_reference(corpora, case, monkeypatch):
    got = FITS[case](corpora)
    with monkeypatch.context() as m:
        m.setattr(_EmStats, "rates", ref_rates)
        m.setattr(_EmStats, "contract", ref_contract)
        want = FITS[case](corpora)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
