"""Finite kernels' pair terms against the code they replaced.

Basis and grid kernels give each pair within the support as (component,
value) terms, ``pair_terms``, and ``core._excitation`` reads them in one
layout: one bincount scatters them into the (q, C·D) features, or, given
the coefficients, contracts each pair before one bincount over the events.
The references below keep the former code: the contracted ``values`` of
each kernel family summed over ``_pair_arrays`` targets, one bincount per
component for the features, and the dense tail features contracted row by
row for the compensators.  Features, event intensities, intensity grids and
log-likelihoods must be bit-identical.  Compensators sum each pair's terms
in another order, so they must agree within 1e-15 of the largest one: an
event just after a burst takes the difference of two near-equal masses, so
the error relative to its own compensator can reach a few times that.
"""

import numpy as np
import pytest

from hawkeskit.core import (
    DiscretizedKernel,
    EventSequence,
    GaussianBasisKernel,
    HawkesModel,
    _excitation,
    _excited,
    _pair_arrays,
    branching_matrix,
    event_compensators,
    event_intensities,
    intensity_profile,
    log_likelihood,
    window_compensator,
)

KERNELS = {
    "basis": GaussianBasisKernel(centers=np.array([0.0, 0.8, 1.9, 3.0]), bandwidth=0.6,
                                 support=4.0),
    "grid10": DiscretizedKernel(dt=0.7, n_lags=10),
    "grid40": DiscretizedKernel(dt=0.1, n_lags=40),
}
# 6.999999999999999 / 0.7 == 10.0 in floating point, though the lag lies
# below the grid's support 0.7 * 10 == 7.0: the pair exists, but its bin
# rounds to n_lags and it carries no excitation
EDGE = 6.999999999999999


def ref_values(kernel, coeffs, lags, v, u):
    """The former ``values``: each pair's kernel value from mark v on mark u."""
    if isinstance(kernel, DiscretizedKernel):
        q = lags / kernel.dt
        k = np.minimum(q, kernel.n_lags - 1).astype(np.int64)
        return coeffs[k, v, u] * (q < kernel.n_lags)
    return (kernel.density(lags) * coeffs[:, v, u]).sum(axis=0)


def ref_features(kernel, seq, at=None, tail=False):
    """The former per-component loop of ``_excitation``."""
    times, dim = seq.times, seq.dim
    q = times if at is None else at
    src, tgt = _pair_arrays(times, kernel.support, at)
    lags = q[tgt] - times[src]
    vals = kernel.mass(np.inf)[:, None] - kernel.mass(lags) if tail else kernel.density(lags)
    idx = tgt * dim + seq.marks[src]
    F = np.empty((q.size, kernel.n_components, dim))
    for c, w in enumerate(vals):
        F[:, c, :] = np.bincount(idx, weights=w, minlength=q.size * dim).reshape(q.size, dim)
    return F.reshape(q.size, kernel.n_components * dim)


def ref_event_intensities(model, seq):
    times, marks = seq.times, seq.marks
    src, tgt = _pair_arrays(times, model.kernel.support)
    vals = ref_values(model.kernel, model.coeffs, times[tgt] - times[src], marks[src],
                      marks[tgt])
    return model.mu[marks] + np.bincount(tgt, weights=vals, minlength=len(seq))


def ref_event_compensators(model, seq):
    times, marks = seq.times, seq.marks
    cum = np.zeros((len(seq) + 1, model.dim))
    np.cumsum(branching_matrix(model)[marks, :], axis=0, out=cum[1:])
    past = np.searchsorted(times, times, side="left")
    ahead = _excited(ref_features(model.kernel, seq, tail=True), model.coeffs, marks)
    return model.mu[marks] * (times - seq.t_start) + cum[past, marks] - ahead


def _sequence(kernel, D, case, seed):
    rng = np.random.default_rng(seed)
    if case == "empty":
        times = np.empty(0)
    elif case == "no pair":
        # gaps beyond the support: every pair falls outside it
        times = 1.0 + np.arange(6) * (kernel.support + 0.5)
    elif case == "edge":
        times = np.array([0.0, 0.3, EDGE, EDGE + 0.3, 8.0])
    else:
        times = np.sort(rng.uniform(0.0, 40.0, 300))
        times = np.sort(np.concatenate([times, times[::9]]))  # tied events
    t_end = float(times[-1]) + 1.0 if times.size else 10.0
    return EventSequence(times, rng.integers(0, D, times.size), 0.0, t_end, D, "s")


def _model(kernel, D, seed):
    rng = np.random.default_rng(seed)
    C = kernel.n_components
    return HawkesModel(mu=rng.uniform(0.1, 0.5, D), kernel=kernel,
                       A=rng.uniform(0.0, 0.3 / (C * D), (C, D, D)))


CASES = [(name, D, case) for name in KERNELS for D in (1, 3)
         for case in ("random", "empty", "no pair")]
CASES += [("grid10", D, "edge") for D in (1, 3)]


@pytest.mark.parametrize("name, D, case", CASES)
def test_one_layout_matches_the_former_code(name, D, case):
    kernel = KERNELS[name]
    seq = _sequence(kernel, D, case, seed=D)
    model = _model(kernel, D, seed=D + 10)
    qs = np.concatenate([seq.times[::5], np.linspace(-1.0, seq.t_end + 1.0, 57)])
    for at in (None, qs):
        for tail in (False, True):
            assert np.array_equal(_excitation(kernel, seq, at, tail),
                                  ref_features(kernel, seq, at, tail))
    lam = event_intensities(model, seq)
    assert np.array_equal(lam, ref_event_intensities(model, seq))
    F = ref_features(kernel, seq, qs)
    assert np.array_equal(intensity_profile(model, seq, qs),
                          model.mu + F @ model.coeffs.reshape(-1, D))
    ref_ll = np.log(ref_event_intensities(model, seq)).sum() - window_compensator(model, seq).sum()
    assert log_likelihood(model, seq) == ref_ll
    got, want = event_compensators(model, seq), ref_event_compensators(model, seq)
    assert got.shape == want.shape == (len(seq),)
    scale = float(np.abs(want).max()) if want.size else 0.0
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15 * scale)


def test_a_pair_whose_bin_rounds_to_n_lags_excites_nothing():
    kernel = KERNELS["grid10"]
    assert EDGE < kernel.support and EDGE / kernel.dt == kernel.n_lags
    seq = EventSequence(np.array([0.0, EDGE]), np.array([0, 0]), 0.0, 8.0, 1, "s")
    model = _model(kernel, 1, seed=0)
    assert _pair_arrays(seq.times, kernel.support)[0].size == 1
    assert np.array_equal(_excitation(kernel, seq), np.zeros((2, kernel.n_lags)))
    assert np.array_equal(event_intensities(model, seq), model.mu[[0, 0]])
