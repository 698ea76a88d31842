"""The batched roughness M-step against a per-pair Newton step.

``_Roughness.mstep`` takes one projected Newton step over all D² columns
A[:, v, u] at once, from the start the rule picks (the warm start or the
unpenalized minimizer N/E, whichever has the lower surrogate).  The
reference below is one projected Newton step per (v, u) pair with the
batched step's rules: entries at zero with a positive gradient held out of
the Newton system, the full step untested where its predicted decrease is
within 1e-9 of the surrogate in absolute value, and backtracking
elsewhere.  The batched step must agree with the reference to 1e-9 of its
scale, its surrogate may not exceed the reference's by more than 1e-12
relative, and both must pin the same number of entries at zero.  There is
no stop on step size, so that agreement, and the continuity of the step in
its inputs, rest on the pure-step rule alone: near the optimum both take
the full step, and no decision compares two surrogates that agree to
rounding.

One step only lowers the surrogate (generalized EM), so the step must never
raise it, and repeated on fixed inputs it must reach the optimum, even
where entries that start positive lack attributions: after 30 steps the
projected gradient within 1e-8 of the gradient's terms.
"""

import numpy as np
import pytest

from hawkeskit import DiscretizedKernel, HawkesModel, LearnConfig, fit_mle_ode
from hawkeskit.analyze import fit_tvhp
from hawkeskit.learn import _diff_gram, _Roughness
from hawkeskit.simulate import SimConfig, simulate_branch
from test_lowrank_batched import kkt_residual


def ref_penalized_newton(N, E, P, x0):
    """Lower sum(-N log x + E x) + 0.5 x'Px over x >= 0 by one Newton step.

    Starts at x0 or at N/E (zero where N = 0), whichever has the lower
    surrogate; a non-finite surrogate loses, and a tie keeps x0.  One
    projected Newton step with the batched step's rules: entries at zero
    with a positive gradient stay there; take a feasible full step untested
    when its predicted decrease is within 1e-9 of the objective in absolute
    value; else backtrack and accept only a decrease by more than 1e-15 of
    the objective, keeping x when no halving gives one.  Returns
    (x, clamp_count) where clamps count entries pinned at zero from below.
    """
    def obj(xx):
        if np.any(xx[N > 0] <= 0):
            return np.inf
        with np.errstate(divide="ignore"):
            logs = np.where(N > 0, -N * np.log(np.maximum(xx, 1e-300)), 0.0)
        return float(logs.sum() + (E * xx).sum() + 0.5 * xx @ P @ xx)

    with np.errstate(all="ignore"):
        plain = np.divide(N, E, out=np.zeros_like(N), where=N > 0)
        f_warm, f_plain = obj(x0), obj(plain)
    if np.isfinite(f_plain) and not f_warm <= f_plain:
        x0 = plain
    x = np.maximum(x0, 0.0)
    bad = (N > 0) & (x <= 0)
    x[bad] = 1e-12

    f = obj(x)
    grad = E + P @ x - np.where(N > 0, N / np.maximum(x, 1e-300), 0.0)
    curv = np.where(N > 0, N / np.maximum(x * x, 1e-300), 0.0)
    free = (x > 0) | (grad <= 0)
    H = P + np.diag(curv + 1e-12)
    step = np.zeros_like(x)
    try:
        step[free] = np.linalg.solve(H[np.ix_(free, free)], -grad[free])
    except np.linalg.LinAlgError:
        step[free] = -grad[free]
    full = x + step
    if (abs(0.5 * float(grad @ step)) <= 1e-9 * max(1.0, abs(f))
            and np.all(np.where(N > 0, full > 0, full >= 0))):
        return full, 0
    t = 1.0
    for _ in range(40):
        cand = x + t * step
        clip_low = cand < 0
        cand = np.where(clip_low, 0.0, cand)
        if obj(cand) < f - 1e-15 * max(1.0, abs(f)):
            return cand, int(np.count_nonzero(clip_low & (N == 0)))
        t *= 0.5
    return x, 0


def ref_mstep(N, G, A, P):
    A = A.copy()
    D = A.shape[1]
    clamps = 0
    for v in range(D):
        for u in range(D):
            A[:, v, u], c = ref_penalized_newton(N[:, v, u], G[:, v], P, A[:, v, u])
            clamps += c
    return A, clamps


def surrogate(x, N, E, P):
    with np.errstate(divide="ignore"):
        logs = np.where(N > 0, -N * np.log(np.maximum(x, 1e-300)), 0.0)
    return float(logs.sum() + (E * x).sum() + 0.5 * x @ P @ x)


def penalty(C, kind):
    if kind == "ridge":  # fit_mle_ode's alpha = 0 fallback
        return 0.0 * _diff_gram(C, 2) + 1e-9 * np.eye(C)
    return {"order1": 2.0 * 1.5, "order2": 2.0 * 10.0 / 0.5**3}[kind] * _diff_gram(
        C, int(kind[-1])
    )


def make_problem(D, C, seed, dense=False):
    """An EM-shaped problem: warm start A with exact zeros, exposures G, and
    attributions N = A * S, so N is zero wherever A is and, unless
    ``dense``, wherever the contraction S is (a source that never precedes
    a target at a lag)."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 0.2, size=(C, D, D)) * (rng.uniform(size=(C, D, D)) > 0.25)
    S = rng.gamma(2.0, 20.0, size=(C, D, D))
    S *= rng.uniform(size=(C, D, D)) > (0.0 if dense else 0.2)
    G = rng.uniform(5.0, 50.0, size=(C, D))
    return A * S, G, A


def worst_kkt(N, G, A, P):
    got = A
    for _ in range(30):
        got = _Roughness(P).mstep(N, G, got)
    D = A.shape[1]
    return max(kkt_residual(got[:, v, u], N[:, v, u], G[:, v], P @ got[:, v, u])
               for v in range(D) for u in range(D))


def check_against_reference(N, G, A, P):
    want, want_clamps = ref_mstep(N, G, A, P)
    smooth = _Roughness(P)
    got = smooth.mstep(N, G, A.copy())
    assert got.shape == A.shape
    assert np.all(got >= 0.0)
    scale = max(float(np.abs(want).max()), 1e-300)
    assert np.max(np.abs(got - want)) <= 1e-9 * scale
    D = A.shape[1]
    for v in range(D):
        for u in range(D):
            args = (N[:, v, u], G[:, v], P)
            f_got, f_want = surrogate(got[:, v, u], *args), surrogate(want[:, v, u], *args)
            assert f_got <= f_want + 1e-12 * abs(f_want)
    assert smooth.clamps == want_clamps
    return smooth, want_clamps


@pytest.mark.parametrize("kind", ["order1", "order2", "ridge"])
@pytest.mark.parametrize("C", [2, 6, 10])
@pytest.mark.parametrize("D", [1, 2, 5])
def test_batched_mstep_matches_per_pair_reference(D, C, kind):
    for seed in range(3):
        N, G, A = make_problem(D, C, seed=100 * D + 10 * C + seed)
        check_against_reference(N, G, A, penalty(C, kind))


@pytest.mark.parametrize("kind", ["order1", "order2", "ridge"])
@pytest.mark.parametrize("C", [2, 6, 10])
@pytest.mark.parametrize("D", [1, 2, 5])
def test_kkt_holds_where_every_positive_start_has_attributions(D, C, kind):
    # as in EM wherever every contraction entry S is positive
    for seed in range(3):
        N, G, A = make_problem(D, C, seed=100 * D + 10 * C + seed, dense=True)
        assert worst_kkt(N, G, A, penalty(C, kind)) <= 1e-8


def test_kkt_where_positive_starts_lack_attributions():
    # from the warm start alone one column of these problems stalls, as the
    # low-rank M-step, which keeps that start, still can (test_lowrank_batched.py);
    # the better-of start keeps every column moving
    worst = max(worst_kkt(*make_problem(D, C, seed=100 * D + 10 * C + seed), penalty(C, kind))
                for D in (1, 2, 5) for C in (2, 6, 10) for kind in ("order1", "order2", "ridge")
                for seed in range(3))
    assert worst <= 1e-8


@pytest.mark.parametrize("kind", ["order1", "order2", "ridge"])
def test_columns_without_attributions_and_zero_starts(kind):
    C, D = 6, 2
    N, G, A = make_problem(D, C, seed=7)
    N[:, 0, 1] = 0.0  # no attributions: the column decays to zero
    A[:, 1, 0] = 0.0  # warm start at exactly zero where N > 0
    N[:, 1, 0] = np.linspace(1.0, 6.0, C)
    A[:, 1, 1] = 0.0  # and a column that starts and stays at zero
    N[:, 1, 1] = 0.0
    check_against_reference(N, G, A, penalty(C, kind))


def test_a_case_that_clamps():
    # a column with mass at the first two lags only under a stiff curvature
    # penalty: from the warm start and from N/E alike, the unconstrained
    # Newton step drives the tail below zero, so the projection pins entries
    # there
    C, D = 8, 1
    N = np.zeros((C, D, D))
    N[:2, 0, 0] = [44.0, 33.0]
    G = np.full((C, D), 33.0)
    A = np.full((C, D, D), 0.3)
    smooth, clamps = check_against_reference(N, G, A, 10.0 * penalty(C, "order2"))
    assert clamps > 0 and smooth.clamps == clamps


def assert_step_never_raises(N, G, A, P):
    # against the start the rule picks, the lower of the warm start and N/E
    got = _Roughness(P).mstep(N, G, A)
    D = A.shape[1]
    for v in range(D):
        for u in range(D):
            n, args = N[:, v, u], (N[:, v, u], G[:, v], P)
            plain = np.divide(n, G[:, v], out=np.zeros_like(n), where=n > 0)
            f0 = min(surrogate(A[:, v, u], *args), surrogate(plain, *args))
            assert surrogate(got[:, v, u], *args) <= f0 + 1e-12 * max(1.0, abs(f0))


@pytest.mark.parametrize("kind", ["order1", "order2", "ridge"])
def test_one_step_never_raises_the_surrogate(kind):
    for scale in 10.0 ** np.arange(-8, 9, 2):
        for D, C in ((1, 2), (2, 6), (5, 6), (3, 10)):
            for seed in range(3):
                N, G, A = make_problem(D, C, seed=1000 * seed + 10 * D + C)
                assert_step_never_raises(N, G, A, scale * penalty(C, kind))


def test_an_ascent_direction_is_not_taken_untested():
    # in column (4, 3) entries with N = 0 and x > 0 get curvature only from
    # the 1e-12 floor, so the computed Newton step runs far along P's null
    # space with a hugely negative predicted decrease; a test without the
    # absolute value takes it untested and raises the column's surrogate
    # from 3.1e4 to 3.6e13
    N, G, A = make_problem(5, 6, seed=5062)
    assert_step_never_raises(N, G, A, 1e4 * penalty(6, "order2"))


def corpus_2d(seed):
    kernel = DiscretizedKernel(dt=0.5, n_lags=6)
    steps = np.array([0.4, 0.3, 0.2, 0.1, 0.05, 0.0])
    truth = HawkesModel(
        mu=np.array([0.3, 0.2]), kernel=kernel,
        A=steps[:, None, None] * np.array([[0.8, 0.3], [0.2, 0.6]]),
    )
    return simulate_branch(SimConfig(model=truth, t_end=150.0, n_sequences=3, rng_seed=seed))


def test_fit_counters_bound_objective_evaluations():
    # per column and M-step: one starting value, then about one evaluation
    # per accepted step; a line search that halves 40 times breaks the bound
    corpus = corpus_2d(seed=21)
    K = corpus.dim**2
    ode = fit_mle_ode(corpus, 0.5, 6, LearnConfig(max_iters=30, tol=1e-300), alpha=10.0)
    t_end = max(seq.t_end for seq in corpus)
    tvhp = fit_tvhp(corpus, np.linspace(0.0, t_end, 5), 1.0, LearnConfig(max_iters=20), beta=1.0)
    for rep in (ode, tvhp):
        d = rep.details
        assert d["newton_steps"] > 0
        assert K * rep.iterations <= d["objective_evals"]
        assert d["objective_evals"] <= 2 * d["newton_steps"] + K * rep.iterations


def test_counters_are_deterministic():
    corpus = corpus_2d(seed=22)
    runs = [fit_mle_ode(corpus, 0.5, 6, LearnConfig(max_iters=10)).details for _ in range(2)]
    assert runs[0] == runs[1]
    assert set(runs[0]) == {"clamp_count", "newton_steps", "objective_evals", "alpha"}

