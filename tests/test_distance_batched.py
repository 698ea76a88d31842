"""The batched alignment DP against the pair-at-a-time DP it replaced.

``distance_matrix`` runs one DP over all of its canonical pairs at once:
pairs are sorted by row length and batched, and one row loop per batch
updates every pair that still has rows, padded to a common width.
``sequence_distance`` runs the same kernel with a single pair.  The
reference below is the original implementation: one row loop per pair,
with the pair put in canonical order first.  Every cell is computed by the
same floating-point operations in both, so results must be equal to the
bit.
"""

import dataclasses

import numpy as np
import pytest

import hawkeskit.analyze as analyze
from hawkeskit.analyze import DistanceParams, _dp_distance, distance_matrix, sequence_distance
from hawkeskit.core import EventSequence
from hawkeskit.data import Corpus


def ref_dp_distance(ta, ma, tb, mb, params):
    n, m = ta.size, tb.size
    ind = params.indel_cost
    prev = ind * np.arange(m + 1, dtype=np.float64)
    ladder = ind * np.arange(m + 1, dtype=np.float64)
    for i in range(1, n + 1):
        match = params.time_cost * np.abs(ta[i - 1] - tb) + (
            params.mark_mismatch_cost * (ma[i - 1] != mb)
        )
        x = np.minimum(prev[1:] + ind, prev[:-1] + match)
        cand = np.concatenate(([i * ind], x))
        run = np.minimum.accumulate(cand - ladder)
        prev = run + ladder
    return float(prev[m])


def ref_pair(a, b, params):
    ka = (len(a), a.times.tobytes(), a.marks.tobytes())
    kb = (len(b), b.times.tobytes(), b.marks.tobytes())
    if kb < ka:
        a, b = b, a
    return ref_dp_distance(a.times, a.marks, b.times, b.marks, params)


def ref_matrix(corpus, params):
    n = len(corpus)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = ref_pair(corpus[i], corpus[j], params)
    return out


def make_corpus(lengths, dim, seed, t_end=20.0, repeat=()):
    """Random sequences of the given lengths; ``repeat`` lists (copy_of, insert_at)."""
    rng = np.random.default_rng(seed)
    arrays = [
        (np.sort(rng.uniform(0.0, t_end, size=n)), rng.integers(0, dim, size=n))
        for n in lengths
    ]
    for src, at in repeat:
        arrays.insert(at, arrays[src])
    seqs = [
        EventSequence(times, marks, 0.0, t_end, dim, f"s{i}")
        for i, (times, marks) in enumerate(arrays)
    ]
    return Corpus(tuple(seqs), dim, None)


CORPORA = {
    "empty_sequences": lambda: make_corpus([0, 5, 0, 3, 0], 2, 1),
    "identical_sequences": lambda: make_corpus([7, 7, 4], 2, 2, repeat=((0, 3), (2, 1), (0, 5))),
    "mixed_lengths": lambda: make_corpus([24, 120, 3, 60, 24, 1, 95, 40], 2, 3),
    "one_mark": lambda: make_corpus([10, 30, 0, 12, 30], 1, 4),
    "many_marks": lambda: make_corpus([15, 9, 22, 4, 18], 5, 5),
    "single_sequence": lambda: make_corpus([6], 2, 6),
    "no_sequences": lambda: make_corpus([], 2, 7),
}
PARAMS = [
    DistanceParams(),
    DistanceParams(time_cost=0.37, mark_mismatch_cost=2.5, indel_cost=0.61),
    DistanceParams(time_cost=0.0, mark_mismatch_cost=0.0, indel_cost=3.0),
    DistanceParams(time_cost=4.0, mark_mismatch_cost=0.1, indel_cost=0.0),
    DistanceParams(time_cost=0.0, mark_mismatch_cost=1.3, indel_cost=0.0),
]
PARAM_IDS = ["default", "fractional", "free_match", "free_indel", "free_time_and_indel"]


@pytest.mark.parametrize("params", PARAMS, ids=PARAM_IDS)
@pytest.mark.parametrize("name", sorted(CORPORA))
def test_matrix_equals_pairwise_reference(name, params):
    corpus = CORPORA[name]()
    got = distance_matrix(corpus, params)
    assert np.array_equal(got, ref_matrix(corpus, params))
    assert np.array_equal(got, got.T)


@pytest.mark.parametrize("params", PARAMS[:2], ids=["default", "fractional"])
def test_sequence_distance_equals_reference_both_ways(params):
    corpus = CORPORA["mixed_lengths"]()
    for a in corpus:
        for b in corpus:
            want = ref_pair(a, b, params)
            assert sequence_distance(a, b, params) == want
            assert sequence_distance(b, a, params) == want


def test_matrix_equals_reference_across_many_batches(monkeypatch):
    # A corpus that crosses the real limit holds about 3e10 DP cells, so the
    # limit is lowered here to split every rank's partners into batches.
    monkeypatch.setattr(analyze, "_DP_BATCH_CELLS", 100)
    corpus = make_corpus([24, 120, 3, 60, 24, 1, 95, 40, 0, 33], 2, 8, repeat=((1, 4),))
    params = PARAMS[1]
    assert np.array_equal(distance_matrix(corpus, params), ref_matrix(corpus, params))


def test_kernel_splits_long_partners_at_the_real_limit():
    rng = np.random.default_rng(9)
    ta = np.sort(rng.uniform(0.0, 100.0, size=4))
    ma = rng.integers(0, 2, size=4)
    lengths = [30_000, 1, 31_000, 0, 29_000, 33_000, 30_500, 28_000, 32_000, 5]
    partners = [
        (np.sort(rng.uniform(0.0, 100.0, size=m)), rng.integers(0, 2, size=m))
        for m in lengths
    ]
    assert len(partners) * (max(lengths) + 1) > analyze._DP_BATCH_CELLS
    params = PARAMS[1]
    got = _dp_distance([((ta, ma), partner) for partner in partners], params)
    want = [ref_dp_distance(ta, ma, tb, mb, params) for tb, mb in partners]
    assert np.array_equal(got, np.array(want))


def _pairs(rng, row_lengths, col_lengths, dim=2, t_end=50.0):
    def seq(n):
        return np.sort(rng.uniform(0.0, t_end, size=n)), rng.integers(0, dim, size=n)

    return [(seq(n), seq(m)) for n, m in zip(row_lengths, col_lengths)]


def _check_pairs(pairs, params):
    got = _dp_distance(pairs, params)
    want = [ref_dp_distance(ta, ma, tb, mb, params) for (ta, ma), (tb, mb) in pairs]
    assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("params", PARAMS, ids=PARAM_IDS)
def test_one_batch_whose_prefix_shrinks_at_several_rows(params):
    # rows of 120, 24, 3, 1 and 0 events in one batch: the prefix of pairs
    # still updating shrinks four times, and the widest pair leaves early
    rng = np.random.default_rng(10)
    pairs = _pairs(rng, [0, 120, 3, 24, 1, 3, 24], [7, 121, 130, 24, 2, 3, 60])
    assert len(pairs) * (max(tb.size for _, (tb, _) in pairs) + 1) <= analyze._DP_BATCH_CELLS
    _check_pairs(pairs, params)


@pytest.mark.parametrize("floor", [1, None], ids=["alone", "at_the_pair_floor"])
def test_pairs_wider_than_the_cell_limit(monkeypatch, floor):
    # A batch is cut at the cell limit once it holds _DP_BATCH_PAIRS pairs,
    # so a wide pair shares its row steps with the next pairs; with a floor
    # of one, each wide pair is a batch of its own.
    if floor is not None:
        monkeypatch.setattr(analyze, "_DP_BATCH_PAIRS", floor)
    rng = np.random.default_rng(11)
    wide = analyze._DP_BATCH_CELLS + 5
    lengths = [(3, wide), (2, 4), (5, 9), (0, wide), (40, 41), (6, wide), (1, 1)] * 2
    pairs = _pairs(rng, *zip(*lengths), t_end=float(wide))
    assert len(pairs) > analyze._DP_BATCH_PAIRS and wide + 1 > analyze._DP_BATCH_CELLS
    _check_pairs(pairs, PARAMS[1])


def test_sequences_that_share_their_times_array():
    # EventSequence copies the arrays it is given, so two sequences share one
    # times object only when it is forced, as here; the kernel must still use
    # each pair's own marks.
    t = np.array([1.0, 2.0])
    a = EventSequence(t, np.array([0, 0]), 0.0, 5.0, 2, "a")
    b = dataclasses.replace(a, marks=np.array([1, 1]), id="b")
    c = EventSequence(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]), 0.0, 5.0, 2, "c")
    d = EventSequence(t, np.array([1, 0]), 0.0, 5.0, 2, "d")
    for seq in (b, d):
        object.__setattr__(seq, "times", a.times)
    assert a.times is b.times is d.times
    corpus = Corpus((a, b, c, d), 2, None)
    for params in PARAMS:
        got = distance_matrix(corpus, params)
        assert np.array_equal(got, ref_matrix(corpus, params))
        assert sequence_distance(b, c, params) == got[1, 2] == ref_pair(b, c, params)
    assert distance_matrix(corpus)[1, 2] != distance_matrix(corpus)[0, 2]


@pytest.mark.parametrize("params", PARAMS, ids=PARAM_IDS)
def test_times_tied_across_the_two_sequences(params):
    # both sides draw from the same few instants, so many gaps are exactly 0
    rng = np.random.default_rng(12)
    grid = np.array([0.0, 0.5, 0.5, 1.25, 2.0, 3.0, 3.0, 3.0])

    def tied(n):
        return np.sort(rng.choice(grid, size=n)), rng.integers(0, 3, size=n)

    pairs = [(tied(n), tied(m)) for n, m in [(5, 8), (8, 8), (1, 6), (7, 3), (0, 4), (6, 6)]]
    _check_pairs(pairs, params)
    sides = [side for pair in pairs for side in pair]
    seqs = [EventSequence(t, mk, 0.0, 5.0, 3, f"s{i}") for i, (t, mk) in enumerate(sides)]
    corpus = Corpus(tuple(seqs), 3, None)
    assert np.array_equal(distance_matrix(corpus, params), ref_matrix(corpus, params))
