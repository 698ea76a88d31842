"""The EM objective's numpy sum against the exact sum it replaced.

Every EM learner records its penalized objective once per iteration.  The
event term of that objective, sum_j w_j log(lambda_j), and the mixture's
round objective were summed by ``math.fsum``; they are now numpy's pairwise
sums.  The objective feeds only the recorded trace and the tolerance stop,
never ``mu`` or ``A``, so with the exact sums patched back in every learner
must take the same number of iterations to bit-identical parameters, and
its trace may move only by rounding.  The references below are the former
implementations.
"""

import math

import numpy as np
import pytest

import hawkeskit.analyze as analyze
from hawkeskit import (
    Corpus,
    EventSequence,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesModel,
    LearnConfig,
    Penalty,
    SimConfig,
    cluster_mixture,
    fit_mle,
    fit_mle_ode,
    fit_tvhp,
    simulate_branch,
)
from hawkeskit.learn import _EmStats, _kernel_stats

TRACE_RTOL = 1e-12

EXP = ExponentialKernel(decay=1.0)
BASIS = GaussianBasisKernel(centers=np.array([0.5, 1.5]), bandwidth=0.5, support=3.0)


def ref_nll(self, mu, A, lam, ev_w, G, T_w):
    logs = np.where(ev_w > 0, np.log(np.maximum(lam, 1e-300)), 0.0)
    comp = T_w * float(mu.sum()) + float(np.einsum("cvu,cv->", A, G))
    return -math.fsum((ev_w * logs).tolist()) + comp


def ref_round_objective(lse, penalties):
    return -math.fsum(lse.tolist()) + math.fsum(penalties)


@pytest.fixture(scope="module")
def corpora():
    exp_truth = HawkesModel(
        mu=np.array([0.3, 0.2, 0.4]),
        kernel=EXP,
        A=np.array([[0.3, 0.1, 0.0], [0.0, 0.2, 0.2], [0.1, 0.0, 0.3]]),
    )
    A = np.zeros((2, 2, 2))
    A[0] = [[0.3, 0.0], [0.1, 0.1]]
    A[1] = [[0.0, 0.2], [0.0, 0.2]]
    lag_truth = HawkesModel(mu=np.array([0.4, 0.3]), kernel=BASIS, A=A)
    return {
        "exp": simulate_branch(SimConfig(exp_truth, t_end=150.0, n_sequences=8, rng_seed=21)),
        "lag": simulate_branch(SimConfig(lag_truth, t_end=150.0, n_sequences=4, rng_seed=22)),
    }


def _fit(rep):
    """(iterations, arrays that must match to the bit, objective trace)."""
    return rep.iterations, [rep.model.mu, rep.model.A], rep.objective_trace


def _mixture(res):
    arrays = [res.responsibilities] + [a for m in res.models for a in (m.mu, m.A)]
    return len(res.objective_trace), arrays, res.objective_trace


def _structural(kind):
    def run(c):
        cfg = LearnConfig(max_iters=300, tol=1e-7, penalty=Penalty(kind, 0.5), rng_seed=3)
        return _fit(fit_mle(c["exp"], EXP, cfg))

    return run


def _ode(c):
    return _fit(fit_mle_ode(c["lag"], 0.5, 6, LearnConfig(max_iters=100, rng_seed=1), alpha=1.0))


def _tvhp(c):
    t_end = max(seq.t_end for seq in c["lag"])
    cfg = LearnConfig(max_iters=100, rng_seed=2)
    return _fit(fit_tvhp(c["lag"], np.linspace(0.0, t_end, 4), 1.0, cfg, beta=0.5))


def _cluster(c):
    return _mixture(cluster_mixture(c["exp"], 2, EXP, LearnConfig(max_iters=40, tol=1e-6)))


CASES = {
    "mle_none": _structural("none"),
    "mle_sparse": _structural("sparse"),
    "mle_group_sparse": _structural("group_sparse"),
    "mle_low_rank": _structural("low_rank"),
    "mle_basis": lambda c: _fit(fit_mle(c["lag"], BASIS, LearnConfig(max_iters=300, tol=1e-7))),
    "mle_ode": _ode,
    "tvhp": _tvhp,
    "cluster_mixture": _cluster,
}


@pytest.mark.parametrize("case", list(CASES))
def test_fit_with_exact_sums_patched_in_is_the_same_fit(case, corpora, monkeypatch):
    got = CASES[case](corpora)
    with monkeypatch.context() as m:
        m.setattr(_EmStats, "nll", ref_nll)
        m.setattr(analyze, "_round_objective", ref_round_objective)
        want = CASES[case](corpora)
    assert got[0] == want[0]
    for a, b in zip(got[1], want[1], strict=True):
        assert np.array_equal(a, b)
    assert len(got[2]) == len(want[2])
    np.testing.assert_allclose(got[2], want[2], rtol=TRACE_RTOL, atol=0.0)


def test_nll_at_em_large_shape_is_within_the_summation_bound():
    # 8 sequences of 1,000 events at D = 20, the shape of the em-large bench
    rng = np.random.default_rng(5)
    D, n_seq, n_each = 20, 8, 1000
    seqs = tuple(
        EventSequence(np.sort(rng.uniform(0.0, 200.0, n_each)),
                      rng.integers(0, D, n_each), 0.0, 200.0, D, f"s{i}")
        for i in range(n_seq)
    )
    stats = _kernel_stats(Corpus(seqs, D), EXP)
    mu = rng.uniform(0.1, 1.0, D)
    A = rng.uniform(0.0, 0.05, (1, D, D))
    weights = rng.uniform(0.5, 1.5, n_seq)
    G, T_w, _, ev_w = stats.weighted(weights)
    lam = stats.rates(mu, A)
    x = ev_w * np.log(lam)
    n = x.size
    assert n == 8000
    got = stats.nll(mu, A, lam, ev_w, G, T_w)
    want = ref_nll(stats, mu, A, lam, ev_w, G, T_w)
    assert abs(got - want) <= n * 2.0**-53 * float(np.abs(x).sum())
