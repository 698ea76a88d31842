"""File formats, CSV ingestion, and corpus surgery helpers."""

import json
import os
import stat

import numpy as np
import pytest

from hawkeskit.core import (
    DiscretizedKernel,
    EventSequence,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesModel,
    ValidationError,
)
from hawkeskit._util import atomic_write_text
from hawkeskit.data import (
    Corpus,
    CsvSchema,
    FormatError,
    ParseError,
    SchemaError,
    load_corpus,
    load_csv,
    load_model,
    save_corpus,
    save_model,
    split_train_test,
    stitch,
    subsample,
    thin_events,
)


def make_corpus(n_seq=5, seed=0, dim=2, t_end=20.0):
    rng = np.random.default_rng(seed)
    seqs = []
    for i in range(n_seq):
        n = int(rng.integers(0, 30))
        times = np.sort(rng.uniform(0, t_end, size=n))
        marks = rng.integers(0, dim, size=n)
        seqs.append(EventSequence(times, marks, 0.0, t_end, dim, f"seq{i}"))
    return Corpus(tuple(seqs), dim, None)


class TestCorpusJson:
    def test_round_trip_is_exact(self, tmp_path):
        corpus = make_corpus()
        p = str(tmp_path / "c.json")
        save_corpus(corpus, p)
        back = load_corpus(p)
        assert back == corpus
        for a, b in zip(back, corpus):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.marks, b.marks)
            assert (a.t_start, a.t_end, a.id) == (b.t_start, b.t_end, b.id)

    def test_duplicate_ids_rejected(self):
        s = EventSequence(np.array([1.0]), np.array([0]), 0.0, 2.0, 1, "x")
        with pytest.raises(ValidationError):
            Corpus((s, s), 1, None)

    def test_dim_disagreement_rejected(self):
        a = EventSequence(np.array([1.0]), np.array([0]), 0.0, 2.0, 1, "a")
        b = EventSequence(np.array([1.0]), np.array([0]), 0.0, 2.0, 2, "b")
        with pytest.raises(ValidationError):
            Corpus((a, b), 1, None)

    def test_malformed_document_reports_format_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"dim": 2}))
        with pytest.raises(FormatError):
            load_corpus(str(p))


def _reference_json(corpus):
    """The corpus document as the stdlib encoder lays it out."""
    doc = {
        "dim": corpus.dim,
        "label_map": corpus.label_map,
        "sequences": [
            {
                "id": s.id,
                "t_start": s.t_start,
                "t_end": s.t_end,
                "events": [[float(t), int(m)] for t, m in zip(s.times, s.marks)],
            }
            for s in corpus.sequences
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _seq(times, marks, dim=2, sid="s", t_start=0.0, t_end=10.0):
    return EventSequence(np.array(times, dtype=np.float64), np.array(marks, dtype=np.int64),
                         t_start, t_end, dim, sid)


WRITER_CASES = {
    "empty corpus": Corpus((), 3, None),
    "empty sequence": Corpus((_seq([], []), _seq([1.5], [1], sid="t")), 2, None),
    "label map": Corpus(
        (_seq([0.25, 2.0], [0, 1]),), 2, {'say "hi"': 0, "über ☃\\": 1}
    ),
    "escaped ids": Corpus(
        (_seq([1.0], [0], sid='a "q"\n\t\\'), _seq([2.0], [1], sid="é中\U0001f600")),
        2, None,
    ),
    "integer t_start": Corpus((_seq([3.0, 4.5], [1, 0], t_start=0, t_end=7),), 2, None),
    "extreme times": Corpus((_seq([0.0, 1e-300, 1e300], [0, 1, 0], t_end=1e300),), 2, None),
    "simulated": make_corpus(n_seq=6, seed=3, dim=3),
}


class TestCorpusWriterBytes:
    @pytest.mark.parametrize("name", sorted(WRITER_CASES))
    def test_matches_stdlib_indent_2(self, name, tmp_path):
        corpus = WRITER_CASES[name]
        p = tmp_path / "c.json"
        save_corpus(corpus, str(p))
        assert p.read_bytes() == _reference_json(corpus).encode("utf-8")

    @pytest.mark.parametrize("name", sorted(WRITER_CASES))
    def test_load_then_save_reproduces_the_file(self, name, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_corpus(WRITER_CASES[name], str(first))
        save_corpus(load_corpus(str(first)), str(second))
        assert second.read_bytes() == first.read_bytes()


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_is_what_open_would_give(self, umask, mode, tmp_path):
        old = os.umask(umask)
        try:
            save_corpus(make_corpus(), str(tmp_path / "c.json"))
            atomic_write_text(str(tmp_path / "t.csv"), "a,b\n")
        finally:
            os.umask(old)
        assert sorted(os.listdir(tmp_path)) == ["c.json", "t.csv"]
        for name in ("c.json", "t.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode

    def test_failed_write_keeps_the_old_file_and_leaves_no_temp(self, tmp_path):
        p = tmp_path / "t.csv"
        atomic_write_text(str(p), "old\n")
        with pytest.raises(TypeError):
            atomic_write_text(str(p), 123)
        assert os.listdir(tmp_path) == ["t.csv"]
        assert p.read_text() == "old\n"


class TestModelJson:
    @pytest.mark.parametrize(
        "kernel,A",
        [
            (ExponentialKernel(decay=1.7), np.array([[0.3, 0.1], [0.0, 0.2]])),
            (
                GaussianBasisKernel(
                    centers=np.array([0.5, 2.0]), bandwidth=0.8, support=7.0
                ),
                np.full((2, 2, 2), 0.05),
            ),
            (DiscretizedKernel(dt=0.25, n_lags=4), np.full((4, 2, 2), 0.1)),
        ],
    )
    def test_round_trip_each_kernel(self, tmp_path, kernel, A):
        model = HawkesModel(mu=np.array([0.2, 0.4]), kernel=kernel, A=A)
        p = str(tmp_path / "m.json")
        save_model(model, p)
        back = load_model(p)
        assert back == model
        assert type(back.kernel) is type(kernel)

    def test_unknown_kernel_tag_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            json.dumps(
                {"dim": 1, "mu": [0.1], "kernel": {"type": "sinusoid"}, "A": [[0.1]]}
            )
        )
        with pytest.raises(FormatError):
            load_model(str(p))

    def test_dim_mismatch_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            json.dumps(
                {
                    "dim": 3,
                    "mu": [0.1],
                    "kernel": {"type": "exponential", "decay": 1.0},
                    "A": [[0.1]],
                }
            )
        )
        with pytest.raises(FormatError):
            load_model(str(p))


class TestCsv:
    def write(self, tmp_path, text, name="events.csv"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_basic_load_with_integer_marks(self, tmp_path):
        p = self.write(
            tmp_path,
            "seq_id,time,mark\n" "a,1.5,0\n" "a,0.5,1\n" "b,2.0,1\n",
        )
        corpus = load_csv(p)
        assert corpus.dim == 2
        assert corpus.label_map is None
        a = corpus[0]
        assert np.array_equal(a.times, [0.5, 1.5])  # sorted on load
        assert np.array_equal(a.marks, [1, 0])
        assert a.t_end == 1.5  # defaults to last event
        assert corpus[1].t_end == 2.0

    def test_string_marks_get_first_appearance_labels(self, tmp_path):
        p = self.write(
            tmp_path,
            "seq_id,time,mark\n" "a,1.0,buy\n" "a,2.0,sell\n" "a,3.0,buy\n",
        )
        corpus = load_csv(p)
        assert corpus.label_map == {"buy": 0, "sell": 1}
        assert np.array_equal(corpus[0].marks, [0, 1, 0])

    def test_missing_column_is_schema_error(self, tmp_path):
        p = self.write(tmp_path, "seq_id,when,mark\na,1.0,0\n")
        with pytest.raises(SchemaError):
            load_csv(p)

    def test_custom_schema_maps_columns(self, tmp_path):
        p = self.write(tmp_path, "case,when,what\na,1.0,0\n")
        corpus = load_csv(p, schema=CsvSchema(seq_id="case", time="when", mark="what"))
        assert len(corpus) == 1

    def test_non_numeric_time_is_parse_error_with_line(self, tmp_path):
        p = self.write(tmp_path, "seq_id,time,mark\na,1.0,0\na,oops,0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(p)

    def test_negative_time_is_validation_error(self, tmp_path):
        p = self.write(tmp_path, "seq_id,time,mark\na,-1.0,0\n")
        with pytest.raises(ValidationError):
            load_csv(p)

    def test_empty_file_warns_and_returns_empty(self, tmp_path):
        p = self.write(tmp_path, "seq_id,time,mark\n")
        with pytest.warns(UserWarning):
            corpus = load_csv(p)
        assert len(corpus) == 0

    def test_window_columns_and_overrides(self, tmp_path):
        p = self.write(
            tmp_path,
            "seq_id,time,mark,t_start,t_end\n" "a,1.0,0,0.0,5.0\n" "a,2.0,0,,\n",
        )
        corpus = load_csv(p)
        assert corpus[0].t_start == 0.0
        assert corpus[0].t_end == 5.0
        override = load_csv(p, t_end=9.0)
        assert override[0].t_end == 9.0

    def test_explicit_dim_must_cover_marks(self, tmp_path):
        p = self.write(tmp_path, "seq_id,time,mark\na,1.0,3\n")
        assert load_csv(p).dim == 4
        assert load_csv(p, dim=6).dim == 6
        with pytest.raises(ValidationError):
            load_csv(p, dim=2)


class TestSurgery:
    def test_split_partitions_and_is_deterministic(self):
        corpus = make_corpus(n_seq=10)
        tr1, te1 = split_train_test(corpus, 0.7, rng_seed=4)
        tr2, te2 = split_train_test(corpus, 0.7, rng_seed=4)
        assert [s.id for s in tr1] == [s.id for s in tr2]
        assert len(tr1) == 7 and len(te1) == 3
        ids = sorted([s.id for s in tr1] + [s.id for s in te1])
        assert ids == sorted(s.id for s in corpus)

    def test_subsample_binomial_rate(self):
        # 400 corpora of 10 at fraction 0.3: kept count is Binomial(4000, .3);
        # 5 sigma around the mean is [1055, 1345]
        total = 0
        corpus = make_corpus(n_seq=10)
        for seed in range(400):
            total += len(subsample(corpus, 0.3, rng_seed=seed))
        assert 1055 <= total <= 1345

    def test_thin_binomial_rate_and_window(self):
        times = np.linspace(0.1, 99.9, 1000)
        seq = EventSequence(times, np.zeros(1000, dtype=np.int64), 0.0, 100.0, 1, "s")
        kept = thin_events(seq, 0.25, rng_seed=9)
        # Binomial(1000, .25): 5 sigma is [182, 318]
        assert 182 <= len(kept) <= 318
        assert kept.t_start == 0.0 and kept.t_end == 100.0
        assert set(kept.times).issubset(set(times))

    def test_stitch_shifts_and_joins(self):
        a = EventSequence(np.array([1.0, 4.0]), np.array([0, 1]), 0.0, 5.0, 2, "a")
        b = EventSequence(np.array([2.0]), np.array([1]), 1.0, 3.0, 2, "b")
        out = stitch(a, b, gap=2.0)
        assert out.id == "a+b"
        assert out.t_start == 0.0
        assert out.t_end == pytest.approx(5.0 + 2.0 + 2.0)
        # b's event at local 2.0 sits 1.0 into its window, so lands at 5+2+1
        assert np.allclose(out.times, [1.0, 4.0, 8.0])
        assert np.array_equal(out.marks, [0, 1, 1])

    def test_stitch_dim_mismatch_rejected(self):
        a = EventSequence(np.array([1.0]), np.array([0]), 0.0, 2.0, 1, "a")
        b = EventSequence(np.array([1.0]), np.array([0]), 0.0, 2.0, 2, "b")
        with pytest.raises(ValidationError):
            stitch(a, b)
