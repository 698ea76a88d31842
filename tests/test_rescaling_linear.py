"""The one-pass residual test against the per-event compensator loop.

``rescaling_test`` builds its increments from ``event_compensators``, one
cumulative pass over the sequence.  The reference below is the former
implementation: one closed-form ``compensator`` call per event over the gap
since the previous event of the same dimension.  The two sum in different
orders, so increments are compared within 1e-10 * max(1, cumulative
compensator) and KS statistics within 1e-9.
"""

import warnings

import numpy as np
import pytest

from hawkeskit.core import (
    _EXP_BLOCK_SPAN,
    DiscretizedKernel,
    EventSequence,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesModel,
    StabilityWarning,
    compensator,
    event_compensators,
)
from hawkeskit.evaluate import _ks_exp1, _rescaled_increments, rescaling_test

D = 3
DECAY = 1.3
BLOCK_SPAN = _EXP_BLOCK_SPAN / DECAY  # one block of exp_weighted_excitation


def loop_increments(model, seq):
    """Per-dimension compensator increments by one ``compensator`` call each."""
    increments = []
    for u in range(model.dim):
        prev = seq.t_start
        for t in seq.times[seq.marks == u]:
            increments.append(compensator(model, seq, u, prev, float(t)))
            prev = float(t)
    return np.asarray(increments)


def exp_model():
    rng = np.random.default_rng(1)
    return HawkesModel(np.array([0.5, 0.3, 0.2]), ExponentialKernel(DECAY),
                       rng.uniform(0.0, 0.25, (D, D)))


def basis_model():
    rng = np.random.default_rng(2)
    kern = GaussianBasisKernel(np.array([0.3, 1.2, 2.5]), bandwidth=0.6, support=4.0)
    return HawkesModel(np.array([0.4, 0.2, 0.3]), kern, rng.uniform(0.0, 0.1, (3, D, D)))


def grid_model():
    rng = np.random.default_rng(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        return HawkesModel(np.array([0.3, 0.5, 0.1]), DiscretizedKernel(0.5, 6),
                           rng.uniform(0.0, 0.3, (6, D, D)))


def ties():
    # same-mark ties at 1.0, cross-mark ties at 1.0 and 2.0; dim 2 never fires
    return EventSequence(np.array([0.5, 1.0, 1.0, 1.0, 2.0, 2.0, 3.5, 3.5]),
                         np.array([0, 0, 0, 1, 1, 0, 1, 1]), 0.0, 5.0, D)


def at_t_start():
    return EventSequence(np.array([2.0, 2.0, 2.5, 4.0, 4.0]),
                         np.array([1, 0, 1, 2, 1]), 2.0, 6.0, D)


def empty():
    return EventSequence(np.array([]), np.array([], dtype=np.int64), 1.0, 9.0, D)


def crowded():
    # rounding to a coarse grid makes many ties among 300 events
    rng = np.random.default_rng(4)
    times = np.sort(np.round(rng.uniform(3.0, 60.0, 300), 1))
    return EventSequence(times, rng.integers(0, D, 300), 3.0, 60.0, D)


def long_window():
    # spans several blocks of the exponential recursion; dim 1 never fires
    rng = np.random.default_rng(5)
    t_end = 5.5 * BLOCK_SPAN
    times = np.sort(rng.uniform(10.0, t_end, 800))
    marks = rng.choice([0, 2], 800)
    return EventSequence(times, marks, 10.0, t_end, D)


MODELS = [exp_model, basis_model, grid_model]
SEQUENCES = [ties, at_t_start, empty, crowded, long_window]
CASES = pytest.mark.parametrize("model_fn", MODELS, ids=["exp", "basis", "grid"])
SEQS = pytest.mark.parametrize("seq_fn", SEQUENCES,
                               ids=[f.__name__ for f in SEQUENCES])


@CASES
@SEQS
def test_event_compensators_match_compensator_from_t_start(model_fn, seq_fn):
    model, seq = model_fn(), seq_fn()
    got = event_compensators(model, seq)
    want = np.array([compensator(model, seq, int(u), seq.t_start, float(t))
                     for t, u in zip(seq.times, seq.marks)])
    assert got.shape == (len(seq),)
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, want))


@CASES
@SEQS
def test_increments_match_per_event_loop(model_fn, seq_fn):
    model, seq = model_fn(), seq_fn()
    got = _rescaled_increments(model, seq)
    want = loop_increments(model, seq)
    assert got.shape == want.shape
    # both group by dimension, time order within each
    cum = event_compensators(model, seq)[np.argsort(seq.marks, kind="stable")]
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, cum))
    assert np.all(got >= 0.0)


@CASES
@SEQS
def test_ks_statistic_matches_per_event_loop(model_fn, seq_fn):
    model, seq = model_fn(), seq_fn()
    out = rescaling_test(model, seq)
    assert out["n_transformed"] == len(seq)
    want = _ks_exp1(loop_increments(model, seq)) if len(seq) else 0.0
    assert abs(out["ks_statistic"] - want) <= 1e-9


@CASES
def test_tied_events_of_one_dimension_give_zero_increment(model_fn):
    model, seq = model_fn(), ties()
    got = _rescaled_increments(model, seq)
    # dim 0 fires at 0.5, 1.0, 1.0, 2.0: its third increment spans no time
    assert got[2] == 0.0
    # dim 1's tied pair at 3.5 gives a zero increment after its last event
    assert got[-1] == 0.0


@CASES
def test_event_at_t_start_has_zero_compensator(model_fn):
    model, seq = model_fn(), at_t_start()
    got = event_compensators(model, seq)
    assert got[0] == 0.0 and got[1] == 0.0
