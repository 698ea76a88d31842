"""The one excitation-feature builder, ``core._excitation``, against a double loop.

``_excitation(kernel, seq, at)`` returns F of shape (q, C·D) with
``F[j, c·D + v] = sum_{t_i < q_j, m_i = v} density_c(q_j - t_i)`` at the
query times ``at`` (default: the events).  The references below build the
same sum one (query, event) pair at a time, for each kernel family, at the
events and at queries that tie with events, precede the first event, lie
past ``t_end`` or come unsorted; and on an empty sequence and an empty
query array.  Intensity grids for finite-support kernels are checked against
their former per-component formula, C matrix products summed, which one
(C·D)-long product now replaces: they may round differently, so they must
agree within 1e-15 of the largest intensity.
"""

import numpy as np
import pytest

from hawkeskit import (
    DiscretizedKernel,
    EventSequence,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesModel,
    intensity_profile,
)
from hawkeskit.core import _excitation

D = 3
KERNELS = {
    "exp": ExponentialKernel(decay=1.3),
    "basis": GaussianBasisKernel(centers=np.array([0.0, 0.8, 1.9]), bandwidth=0.6,
                                 support=2.5),
    "grid": DiscretizedKernel(dt=0.4, n_lags=5),
}


def brute_features(kernel, seq, dim, queries):
    C = kernel.n_components
    F = np.zeros((len(queries), C * dim))
    for j, q in enumerate(queries):
        for t, m in zip(seq.times, seq.marks):
            if t < q:
                dens = kernel.density(np.array(q - t))
                for c in range(C):
                    F[j, c * dim + m] += dens[c]
    return F


def _sequence(seed, n=60, t_end=30.0):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(2.0, t_end - 2.0, n))
    times = np.sort(np.concatenate([times, times[:5]]))  # tied events
    return EventSequence(times, rng.integers(0, D, times.size), 0.0, t_end, D, "s")


def _queries(seq, seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([
        seq.times[::7],  # tied with events
        [0.0, 1.0, seq.times[0]],  # before and at the first event
        [seq.t_end, seq.t_end + 0.3, seq.t_end + 50.0],  # at and past the window's end
        rng.uniform(seq.t_start, seq.t_end, 40),  # unsorted
    ])


def _check(got, want):
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("name", list(KERNELS))
def test_features_at_the_events(name):
    kernel, seq = KERNELS[name], _sequence(1)
    _check(_excitation(kernel, seq), brute_features(kernel, seq, D, seq.times))


@pytest.mark.parametrize("name", list(KERNELS))
def test_features_at_arbitrary_queries(name):
    kernel, seq = KERNELS[name], _sequence(2)
    qs = _queries(seq, 3)
    _check(_excitation(kernel, seq, qs), brute_features(kernel, seq, D, qs))


@pytest.mark.parametrize("name", list(KERNELS))
def test_empty_sequence_and_empty_queries(name):
    kernel = KERNELS[name]
    width = kernel.n_components * D
    empty = EventSequence(np.empty(0), np.empty(0, dtype=np.int64), 0.0, 10.0, D, "e")
    qs = np.array([0.0, 4.0, 12.0])
    assert np.array_equal(_excitation(kernel, empty), np.zeros((0, width)))
    assert np.array_equal(_excitation(kernel, empty, qs), np.zeros((3, width)))
    assert _excitation(kernel, _sequence(4), np.empty(0)).shape == (0, width)


@pytest.mark.parametrize("name", ["basis", "grid"])
def test_finite_kernel_intensity_grid_matches_the_per_component_formula(name):
    kernel, seq = KERNELS[name], _sequence(5)
    rng = np.random.default_rng(6)
    C = kernel.n_components
    model = HawkesModel(mu=rng.uniform(0.1, 0.5, D), kernel=kernel,
                        A=rng.uniform(0.0, 0.1, (C, D, D)))
    qs = _queries(seq, 7)
    S = brute_features(kernel, seq, D, qs).reshape(qs.size, C, D).transpose(1, 0, 2)
    want = model.mu + np.matmul(S, model.coeffs).sum(axis=0)
    got = intensity_profile(model, seq, qs)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15 * float(np.abs(want).max()))
