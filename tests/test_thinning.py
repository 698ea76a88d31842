"""Plain-float thinning against the numpy loop it replaced.

``_reference_ogata_one`` is the finite-support branch of
``simulate._ogata_one`` as it was when the history lived in two doubling
arrays and each proposal made its bound, intensities and mark choice in
numpy; ``_reference_bound`` is the ``thinning_bound`` member each finite
kernel then had.  Both are kept here only as the reference.  The loop that
replaced them draws the same randoms in the same order, so counts and marks
are equal and times differ only by the order of floating-point sums.

``_reference_exp_ogata_one`` is the exponential branch the loop had beside
it, a numpy per-source state ``R`` and intensities ``mu + A.T @ R``.  The
exponential kernel's ``thinning`` member keeps a per-target state in plain
floats instead, so its times differ from the reference by rounding alone.
"""

import numpy as np
import pytest

from hawkeskit._util import spawn_rngs
from hawkeskit.core import (
    DiscretizedKernel,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesModel,
    spectral_radius,
)
from hawkeskit.simulate import SimConfig, SimulationOverflowError, simulate_ogata

KERNELS = {
    "grid-0.5x10": DiscretizedKernel(0.5, 10),
    "grid-0.25x7": DiscretizedKernel(0.25, 7),
    "basis-2": GaussianBasisKernel(np.array([0.5, 1.5]), 0.5, 3.0),
    "basis-3": GaussianBasisKernel(np.array([0.2, 1.0, 2.5]), 0.7, 4.0),
}
DIMS = [1, 2, 5, 9]
SEEDS = [0, 1, 2, 3]
T_END, N_SEQ = 60.0, 3


def _reference_bound(kern, coeffs):
    if isinstance(kern, DiscretizedKernel):
        suf = np.maximum.accumulate(coeffs[::-1], axis=0)[::-1]  # (L, D, D)
        bound_tbl = suf.sum(axis=2)  # (L, D)

        def bound(lags, src_marks):
            if lags.size == 0:
                return 0.0
            k = np.minimum((lags / kern.dt).astype(np.int64), kern.n_lags - 1)
            inside = lags < kern.support
            return float((bound_tbl[k, src_marks] * inside).sum())

        return bound
    peak = 1.0 / (kern.bandwidth * np.sqrt(2.0 * np.pi) * kern._norms)  # (M,)
    row_sum = coeffs.sum(axis=2)  # (M, D)

    def bound(lags, src_marks):
        if lags.size == 0:
            return 0.0
        below = lags[None, :] <= kern.centers[:, None]
        sup = np.where(below, peak[:, None], kern.density(lags))  # (M, W)
        sup = np.where(lags[None, :] < kern.support, sup, 0.0)
        return float((sup * row_sum[:, src_marks]).sum())

    return bound


def _reference_ogata_one(model, T, rng, max_events):
    D = model.dim
    mu = model.mu
    mu_total = float(mu.sum())
    kern = model.kernel
    t = 0.0
    support = kern.support
    coeffs = model.coeffs
    bound_contrib = _reference_bound(kern, coeffs)

    ts_arr = np.empty(64)
    ms_arr = np.empty(64, dtype=np.int64)
    n = 0
    w0 = 0
    while True:
        while w0 < n and ts_arr[w0] <= t - support:
            w0 += 1
        lbar = mu_total + bound_contrib(t - ts_arr[w0:n], ms_arr[w0:n])
        if lbar <= 0.0:
            break
        dt = rng.exponential(1.0 / lbar)
        t_new = t + dt
        if t_new > T:
            break
        while w0 < n and ts_arr[w0] <= t_new - support:
            w0 += 1
        past = slice(w0, int(ts_arr[:n].searchsorted(t_new)))
        dens = kern.density(t_new - ts_arr[past])  # (C, W)
        lam = mu + dens.reshape(-1) @ coeffs[:, ms_arr[past], :].reshape(-1, D)
        total = float(lam.sum())
        v01 = rng.random()
        if v01 * lbar < total:
            u = int(np.searchsorted(np.cumsum(lam), v01 * lbar, side="right"))
            u = min(u, D - 1)
            if n == ts_arr.size:
                ts_arr = np.concatenate((ts_arr, np.empty_like(ts_arr)))
                ms_arr = np.concatenate((ms_arr, np.empty_like(ms_arr)))
            ts_arr[n] = t_new
            ms_arr[n] = u
            n += 1
            if n > max_events:
                break
        t = t_new
    return ts_arr[:n].copy(), ms_arr[:n].copy()


def _model(name, D, seed):
    # random coefficients scaled to spectral radius 0.7: sequences of tens
    # (D = 1) to hundreds (D = 9) of events on [0, 60]
    kern = KERNELS[name]
    rng = np.random.default_rng([seed, D])
    coeffs = rng.uniform(0.0, 1.0, (kern.n_components, D, D))
    coeffs[rng.random(coeffs.shape) < 0.3] = 0.0
    scale = 0.7 / spectral_radius(np.einsum("c,cvu->vu", kern.mass(np.inf), coeffs))
    return HawkesModel(rng.uniform(0.1, 0.2, D), kern, coeffs * scale)


def _reference(model, seed, max_events=1_000_000):
    return [_reference_ogata_one(model, T_END, rng, max_events)
            for rng in spawn_rngs(seed, N_SEQ)]


def _assert_same(times, marks, ref_times, ref_marks):
    np.testing.assert_array_equal(marks, ref_marks)
    np.testing.assert_allclose(times, ref_times, rtol=1e-12, atol=0.0)


def _max_window(times, support):
    # the most earlier events within one support before any event
    return int(np.max(np.arange(times.size) - np.searchsorted(times, times - support), initial=0))


@pytest.mark.parametrize("D", DIMS)
@pytest.mark.parametrize("name", list(KERNELS))
def test_counts_marks_and_times_match_the_numpy_loop(name, D):
    windows = []
    for seed in SEEDS:
        model = _model(name, D, seed)
        got = simulate_ogata(SimConfig(model, T_END, N_SEQ, seed))
        ref = _reference(model, seed)
        for seq, (ref_times, ref_marks) in zip(got, ref):
            _assert_same(seq.times, seq.marks, ref_times, ref_marks)
            windows.append(_max_window(seq.times, model.kernel.support))
    if D == 9:
        # windows this long sum in a different order than numpy's pairwise sum
        assert max(windows) >= 8


@pytest.mark.parametrize("name", ["grid-0.5x10", "basis-3"])
def test_overflow_partial_is_the_reference_prefix(name):
    model, cap = _model(name, 5, 0), 40
    ref_times, ref_marks = _reference(model, 0)[0]
    assert ref_times.size > cap
    with pytest.raises(SimulationOverflowError) as info:
        simulate_ogata(SimConfig(model, T_END, N_SEQ, 0, max_events=cap))
    partial = info.value.partial
    assert partial.id == "s0" and len(partial) == cap
    _assert_same(partial.times, partial.marks, ref_times[:cap], ref_marks[:cap])


def _reference_exp_ogata_one(model, T, rng, max_events):
    D = model.dim
    mu = model.mu
    omega = model.kernel.decay
    times, marks = [], []
    R = np.zeros(D)  # per-source excitation state at current t
    AT = model.A.T
    t = 0.0
    while True:
        lam_now = mu + AT @ R
        lbar = float(lam_now.sum())
        if lbar <= 0.0:
            break
        dt = rng.exponential(1.0 / lbar)
        t_new = t + dt
        if t_new > T:
            break
        R = R * np.exp(-omega * dt)
        lam = mu + AT @ R
        total = float(lam.sum())
        v01 = rng.random()
        if v01 * lbar < total:
            u = int(np.searchsorted(np.cumsum(lam), v01 * lbar, side="right"))
            u = min(u, D - 1)
            times.append(t_new)
            marks.append(u)
            R[u] += omega
            if len(times) > max_events:
                break
        t = t_new
    return np.array(times), np.array(marks, dtype=np.int64)


def _exp_model(D, seed):
    # spectral radius 0.7 again; the diagonal is kept, so D = 1 excites itself
    rng = np.random.default_rng([seed, D, 1])
    A = rng.uniform(0.0, 1.0, (D, D))
    A[(rng.random(A.shape) < 0.3) & ~np.eye(D, dtype=bool)] = 0.0
    A *= 0.7 / spectral_radius(A)
    return HawkesModel(rng.uniform(0.1, 0.2, D), ExponentialKernel(1.5), A)


def _exp_reference(model, seed, max_events=1_000_000):
    return [_reference_exp_ogata_one(model, T_END, rng, max_events)
            for rng in spawn_rngs(seed, N_SEQ)]


@pytest.mark.parametrize("D", DIMS)
def test_exponential_counts_marks_and_times_match_the_numpy_branch(D):
    counts = []
    for seed in SEEDS:
        model = _exp_model(D, seed)
        got = simulate_ogata(SimConfig(model, T_END, N_SEQ, seed))
        for seq, (ref_times, ref_marks) in zip(got, _exp_reference(model, seed)):
            _assert_same(seq.times, seq.marks, ref_times, ref_marks)
            counts.append(len(seq))
    assert min(counts) >= 5 * D  # streams long enough that the state takes in many events


def test_exponential_overflow_partial_is_the_reference_prefix():
    model, cap = _exp_model(5, 0), 40
    ref_times, ref_marks = _exp_reference(model, 0)[0]
    assert ref_times.size > cap
    with pytest.raises(SimulationOverflowError) as info:
        simulate_ogata(SimConfig(model, T_END, N_SEQ, 0, max_events=cap))
    partial = info.value.partial
    assert partial.id == "s0" and len(partial) == cap
    _assert_same(partial.times, partial.marks, ref_times[:cap], ref_marks[:cap])


@pytest.mark.parametrize("name", ["exp", "basis-3", "grid-0.5x10"])
def test_zero_baseline_returns_empty_sequences(name):
    # no baseline and no history: the bound is 0 and the loop stops at once
    D = 3
    model = _exp_model(D, 0) if name == "exp" else _model(name, D, 0)
    model = HawkesModel(np.zeros(D), model.kernel, model.A)
    corpus = simulate_ogata(SimConfig(model, T_END, N_SEQ, 0))
    assert [len(seq) for seq in corpus] == [0] * N_SEQ
    assert all(seq.times.dtype == np.float64 and seq.marks.dtype == np.int64 for seq in corpus)
