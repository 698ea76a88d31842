"""The sparse-weight exponential recursion against its dense, span-200 form.

``core.exp_weighted_excitation`` takes sparse per-event channel weights
(``cols``, ``vals``, width) and scales each block of times by up to
``e^_EXP_BLOCK_SPAN``.  The reference below, ``dense_span200``, is the form it
replaced: a dense (n, C) weight matrix, blocks of 200 e-folds, every row
gathered at the first event tied with it, and the carry added as a separate
term.  They differ by rounding: the scale exponents reach the span, so each
term carries a relative error of about span·eps (1.3e-13 at 600).  Entries above 1e-300
must therefore agree within 1e-12 relative, and smaller ones must stay
below 1e-300.  Compared: ``_excitation`` at the events and at query times,
and the TVHP node features and exposures (``analyze._tvhp_features``).
"""

import numpy as np
import pytest

from hawkeskit import EventSequence, ExponentialKernel
from hawkeskit.analyze import _tvhp_features
from hawkeskit.core import _EXP_BLOCK_SPAN, _excitation

D = 3
RTOL = 1e-12
TINY = 1e-300


def dense_span200(times, weights, decay):
    """The dense recursion with 200-e-fold blocks, kept as the reference."""
    n = times.size
    C = weights.shape[1]
    R = np.zeros((n, C))
    if n == 0:
        return R
    first_at_time = np.searchsorted(times, times, side="left")
    span = 200.0 / decay
    carry = np.zeros(C)
    start = 0
    while start < n:
        t0 = times[start]
        stop = int(np.searchsorted(times, t0 + span, side="right"))
        stop = max(stop, start + 1)
        blk = slice(start, stop)
        tb = times[blk]
        w = np.exp(decay * (tb - t0))
        cum = np.concatenate(
            [np.zeros((1, C)), np.cumsum(w[:, None] * weights[blk], axis=0)]
        )
        pos = first_at_time[blk] - start
        down = np.exp(-decay * (tb - t0))
        R[blk] = decay * down[:, None] * cum[pos] + down[:, None] * carry[None, :]
        if stop < n:
            t_next = times[stop]
            carry = np.exp(-decay * (t_next - t0)) * (carry + decay * cum[-1])
        start = stop
    return R


def onehot(marks, dim):
    return (marks[:, None] == np.arange(dim)[None, :]).astype(np.float64)


def ref_events(seq, decay):
    return dense_span200(seq.times, onehot(seq.marks, seq.dim), decay)


def ref_queries(seq, at, decay):
    n = len(seq)
    merged = np.concatenate([seq.times, at])
    order = np.argsort(merged, kind="stable")
    weights = np.concatenate([onehot(seq.marks, seq.dim), np.zeros((at.size, seq.dim))])
    R = dense_span200(merged[order], weights[order], decay)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return R[rank[n:]]


def ref_tvhp(seq, grid, decay):
    n, n_nodes = len(seq), grid.size
    pos = np.clip(np.searchsorted(grid, seq.times, side="right") - 1, 0, n_nodes - 2)
    frac = (seq.times - grid[pos]) / (grid[pos + 1] - grid[pos])
    W = np.zeros((n, n_nodes, seq.dim))
    rows = np.arange(n)
    W[rows, pos, seq.marks] += 1.0 - frac
    W[rows, pos + 1, seq.marks] += frac
    R = dense_span200(seq.times, W.reshape(n, n_nodes * seq.dim), decay)
    mass = 1.0 - np.exp(-decay * (seq.t_end - seq.times))
    return R, (W * mass[:, None, None]).sum(axis=0)


def check(got, want):
    assert got.shape == want.shape
    big = want > TINY
    err = np.abs(got[big] - want[big]) / want[big]
    assert err.max(initial=0.0) <= RTOL
    assert np.all(np.abs(got[~big]) <= TINY)


def _seq(times, seed):
    times = np.asarray(times, dtype=np.float64)
    marks = np.random.default_rng(seed).integers(0, D, times.size)
    t_end = float(times[-1]) if times.size else 1.0
    return EventSequence(times, marks, 0.0, t_end, D, "s")


def _uniform(seed, n, t_end, digits=None):
    times = np.sort(np.random.default_rng(seed).uniform(0.0, t_end, n))
    return times if digits is None else np.round(times, digits)


# (decay, times): blocks are _EXP_BLOCK_SPAN / decay wide here, 200 / decay
# in the reference, so every case but "ties" and "empty" spans several blocks
CASES = {
    # runs of tied times, one block
    "ties": (0.9, np.repeat([0.0, 0.5, 1.2, 3.0, 7.7], [1, 3, 1, 2, 4])),
    # times on a 0.1 tick: blocks 2 units wide that start and end at ties
    "tied_boundaries": (_EXP_BLOCK_SPAN / 2.0, _uniform(1, 300, 10.0, digits=1)),
    # about five blocks of the new span, fifteen of the reference's
    "several_blocks": (1.0, _uniform(2, 400, 5.0 * _EXP_BLOCK_SPAN)),
    # a block that fills its span, then a gap: the next event lies 800
    # e-folds (exp underflows past 745) after the block's start, yet the
    # block's last event, 201 e-folds back, still counts
    "gap_after_full_block": (1.0, np.array([0.0, 300.0, 599.0, 800.0, 801.0])),
    # every event in its own block, thousands of e-folds apart
    "long_window": (2.0, np.array([0.0, 5000.0, 10000.0])),
    "slow_decay": (1e-3, _uniform(3, 300, 2e6)),
    "fast_decay": (1e3, _uniform(4, 300, 2.0)),
    "empty": (1.0, np.empty(0)),
}


def test_cases_cross_blocks():
    # the cases keep testing what they are named for under the current span
    decay, times = CASES["tied_boundaries"]
    assert (times[-1] - times[0]) * decay > 4 * _EXP_BLOCK_SPAN
    decay, times = CASES["several_blocks"]
    assert (times[-1] - times[0]) * decay > 4 * _EXP_BLOCK_SPAN


@pytest.mark.parametrize("name", list(CASES))
def test_features_at_events(name):
    decay, times = CASES[name]
    seq = _seq(times, 5)
    check(_excitation(ExponentialKernel(decay), seq), ref_events(seq, decay))


@pytest.mark.parametrize("name", list(CASES))
def test_features_at_queries(name):
    decay, times = CASES[name]
    seq = _seq(times, 6)
    rng = np.random.default_rng(7)
    span = float(times[-1]) if times.size else 1.0
    at = np.concatenate([times[::5], rng.uniform(0.0, 1.1 * span, 30), [0.0, span]])
    check(_excitation(ExponentialKernel(decay), seq, at), ref_queries(seq, at, decay))


def test_features_at_no_queries():
    decay, times = CASES["several_blocks"]
    seq = _seq(times, 8)
    got = _excitation(ExponentialKernel(decay), seq, np.empty(0))
    assert got.shape == (0, D)


@pytest.mark.parametrize("name", list(CASES))
def test_tvhp_node_features(name):
    decay, times = CASES[name]
    seq = _seq(times, 9)
    grid = np.linspace(0.0, seq.t_end, 5)
    R, G = _tvhp_features(seq, grid, decay)
    R_ref, G_ref = ref_tvhp(seq, grid, decay)
    check(R, R_ref)
    # exposures skip the recursion: the same products, summed in the same order
    np.testing.assert_array_equal(G, G_ref)
