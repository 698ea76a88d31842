"""The group-sparse M-step: one closed-form root per entry.

``_mstep_group`` majorizes k·‖B_v‖ by its tangent quadratic ½·q_v·‖B_v‖²
and each (Σ_c x_c)² by Σ_c (b0 / x0_c)·x_c², so every entry solves its own
quadratic.  With one component the second bound is exact, and the step
must equal the row-sum Newton loop it replaced, kept here as the reference.
With more components it is a generalized-EM step: it lowers the surrogate
without minimizing it, so fits reach the same optimum along another path.
"""

from functools import partial

import numpy as np
import pytest

from hawkeskit.core import (
    DiscretizedKernel,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesModel,
)
from hawkeskit.learn import (
    LearnConfig,
    Penalty,
    _fit_from_stats,
    _init_params,
    _kernel_stats,
    _mstep,
    _mstep_group,
    _penalty_value,
    fit_mle,
)
from hawkeskit.simulate import SimConfig, simulate_branch


def reference_mstep_group(N, Gb, A_old, k):
    """The former M-step: Newton passes on the row sums b, then one division."""
    B_old = A_old.sum(axis=0)
    r = np.maximum(np.linalg.norm(B_old, axis=1), 1e-12)
    qb = (k / r)[:, None]
    b = B_old.copy()
    Nsum = N.sum(axis=0)
    for _ in range(60):
        denom = Gb + qb[None, :, :] * b[None, :, :]
        terms = np.where(N > 0, N / np.maximum(denom, 1e-300), 0.0)
        h = b - terms.sum(axis=0)
        hp = 1.0 + np.where(
            N > 0, N * qb[None, :, :] / np.maximum(denom * denom, 1e-300), 0.0
        ).sum(axis=0)
        b_new = np.clip(b - h / hp, 0.0, None)
        if np.max(np.abs(b_new - b)) < 1e-14 * (1.0 + np.max(b_new)):
            b = b_new
            break
        b = b_new
    b = np.where(Nsum > 0, b, 0.0)
    denom = Gb + qb[None, :, :] * b[None, :, :]
    return np.where(N > 0, N / np.maximum(denom, 1e-300), 0.0)


def random_step(rng, C):
    """(N, Gb, A_old, k) as the EM loop makes them: N = 0 wherever A_old is."""
    D = int(rng.integers(1, 8))
    live = rng.uniform(size=(1, D, 1)) > 0.25  # some source rows all zero
    A_old = rng.uniform(0.0, 1.0, (C, D, D)) * live
    A_old[rng.uniform(size=A_old.shape) < 0.1] = 0.0
    N = A_old * rng.uniform(0.0, 50.0, (C, D, D))
    G = rng.uniform(0.1, 100.0, (C, D))
    k = 10.0 ** rng.uniform(-8.0, 8.0)
    return N, np.broadcast_to(G[:, :, None], N.shape), A_old, k


def surrogate(A, N, Gb, k):
    logs = np.where(N > 0, -N * np.log(np.where(N > 0, A, 1.0)), 0.0)
    B = A.sum(axis=0)
    return float(logs.sum() + (Gb * A).sum() + k * np.linalg.norm(B, axis=1).sum())


def test_one_component_equals_the_row_sum_loop():
    rng = np.random.default_rng(20)
    for _ in range(150):
        N, Gb, A_old, k = random_step(rng, 1)
        want = reference_mstep_group(N, Gb, A_old, k)
        got = _mstep_group(N, Gb, A_old, k)
        scale = max(float(np.abs(want).max()), 1e-300)
        assert np.abs(got - want).max() <= 1e-13 * scale, k
        assert np.array_equal(got == 0, want == 0)


@pytest.mark.parametrize("C", [2, 3, 10])
def test_several_components_never_raise_the_surrogate(C):
    rng = np.random.default_rng(C)
    for _ in range(50):
        N, Gb, A_old, k = random_step(rng, C)
        A = _mstep_group(N, Gb, A_old, k)
        assert np.all(np.isfinite(A)) and np.all(A >= 0)
        before = surrogate(A_old, N, Gb, k)
        assert surrogate(A, N, Gb, k) <= before + 1e-13 * abs(before), k


@pytest.fixture(scope="module")
def corpus():
    truth = HawkesModel(
        mu=np.array([0.3, 0.6, 0.2]),
        kernel=ExponentialKernel(decay=1.0),
        A=np.array([[0.4, 0.1, 0.0], [0.2, 0.3, 0.0], [0.0, 0.0, 0.0]]),
    )
    return simulate_branch(SimConfig(truth, t_end=100.0, n_sequences=4, rng_seed=3))


KERNELS = {
    "exp": ExponentialKernel(decay=1.0),
    "basis": GaussianBasisKernel(np.array([0.5, 1.5, 3.0]), 0.7, support=6.0),
    "grid": DiscretizedKernel(dt=0.5, n_lags=8),
}


def _final_objective(stats, pen, mstep):
    cfg = LearnConfig(max_iters=5000, tol=1e-10, penalty=pen)
    init = _init_params(stats, 0, 0.1 / stats.dim)
    _, _, trace, converged = _fit_from_stats(
        stats, cfg, init, mstep, partial(_penalty_value, pen)
    )
    assert converged
    return trace[-1]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no overflow as an entry decays to 0
@pytest.mark.parametrize("kernel", ["basis", "grid"])
@pytest.mark.parametrize("weight", [0.5, 10.0])
def test_multicomponent_fits_reach_the_reference_objective(corpus, kernel, weight):
    stats = _kernel_stats(corpus, KERNELS[kernel])
    pen = Penalty("group_sparse", weight)

    def reference(N, G, A_old):
        return reference_mstep_group(N, np.broadcast_to(G[:, :, None], N.shape), A_old, weight)

    got = _final_objective(stats, pen, partial(_mstep, pen=pen))
    want = _final_objective(stats, pen, reference)
    assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kernel", ["exp", "basis", "grid"])
@pytest.mark.parametrize("weight", [1e-8, 1.0, 1e3, 1e8, 1e150])
def test_traces_never_rise_at_any_weight(corpus, kernel, weight):
    cfg = LearnConfig(max_iters=200, tol=1e-10, penalty=Penalty("group_sparse", weight))
    rep = fit_mle(corpus, KERNELS[kernel], cfg)
    trace = np.asarray(rep.objective_trace)
    assert np.all(np.isfinite(trace)) and np.all(np.isfinite(rep.model.A))
    assert np.all(np.diff(trace) <= 1e-12 * np.abs(trace[:-1]))
    if weight >= 1e8:
        assert float(rep.model.A.max()) < 1e-15
