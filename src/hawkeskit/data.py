"""Corpus I/O and preprocessing.

CSV ingestion with a configurable column schema, JSON round-tripping for
corpora and models, and the sequence-level preprocessing steps: train/test
splitting, subsampling, stitching, and event thinning.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from ._util import atomic_write_text, dump_json, load_json, make_rng
from .core import (
    DiscretizedKernel,
    EventSequence,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesError,
    HawkesModel,
    KernelSpec,
    ValidationError,
    _check_int,
    _check_real,
    _is_real,
    _leaves,
)


class SchemaError(HawkesError):
    """CSV header is missing a required column."""


class ParseError(HawkesError):
    """A CSV cell could not be parsed; message carries the line number."""


class FormatError(HawkesError):
    """A serialized document has an unknown or malformed structure."""


@dataclass(frozen=True)
class CsvSchema:
    """Column names used when reading event CSVs."""

    seq_id: str = "seq_id"
    time: str = "time"
    mark: str = "mark"
    t_start: str = "t_start"
    t_end: str = "t_end"


DEFAULT_SCHEMA = CsvSchema()


@dataclass(frozen=True, eq=False)
class Corpus:
    """A collection of event sequences sharing one dimension count.

    ``label_map`` maps human-readable mark names to integer indices when the
    source data used string marks; it is None for natively integer marks.
    """

    sequences: tuple[EventSequence, ...]
    dim: int
    label_map: Optional[dict[str, int]] = None

    def __post_init__(self):
        object.__setattr__(self, "sequences", tuple(self.sequences))
        if self.dim < 0:
            raise ValidationError(f"corpus dim must be >= 0, got {self.dim}")
        ids = [s.id for s in self.sequences]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate sequence ids: {dupes}")
        for s in self.sequences:
            if s.dim != self.dim:
                raise ValidationError(
                    f"sequence {s.id!r} has dim {s.dim}, corpus has dim {self.dim}"
                )

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[EventSequence]:
        return iter(self.sequences)

    def __getitem__(self, i: int) -> EventSequence:
        return self.sequences[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.label_map == other.label_map
            and self.sequences == other.sequences
        )

    def __hash__(self):
        return hash((self.dim, len(self.sequences)))

    @property
    def n_events(self) -> int:
        return sum(len(s) for s in self.sequences)


def _parse_float(cell: str, column: str, line_no: int) -> float:
    try:
        return float(cell)
    except (TypeError, ValueError):
        raise ParseError(
            f"line {line_no}: column {column!r} has non-numeric value {cell!r}"
        ) from None


def load_csv(
    path: str,
    schema: CsvSchema = DEFAULT_SCHEMA,
    t_start: Optional[float] = None,
    t_end: Optional[float] = None,
    dim: Optional[int] = None,
) -> Corpus:
    """Read an event CSV into a Corpus.

    Required columns (by schema name): sequence id, time, mark.  Optional
    per-row window columns are honored when present; the ``t_start``/``t_end``
    arguments override everything.  Windows default to [0, last event time].
    Marks that all parse as integers are used directly as dimension indices;
    otherwise marks are treated as labels and indexed by first appearance.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in (schema.seq_id, schema.time, schema.mark):
            if col not in header:
                raise SchemaError(f"missing required column {col!r} (header: {header})")
        has_ts = schema.t_start in header
        has_te = schema.t_end in header

        order: list[str] = []  # sequence ids by first appearance
        rows: dict[str, list[tuple[float, str]]] = {}
        windows: dict[str, list[Optional[float]]] = {}
        for line_no, row in enumerate(reader, start=2):
            sid = row[schema.seq_id]
            if sid is None:
                raise ParseError(f"line {line_no}: missing sequence id")
            t = _parse_float(row[schema.time], schema.time, line_no)
            if t < 0:
                raise ValidationError(f"line {line_no}: negative time {t}")
            mark_raw = row[schema.mark]
            if mark_raw is None or mark_raw == "":
                raise ParseError(f"line {line_no}: empty mark")
            if sid not in rows:
                order.append(sid)
                rows[sid] = []
                windows[sid] = [None, None]
                if has_ts and row.get(schema.t_start):
                    windows[sid][0] = _parse_float(
                        row[schema.t_start], schema.t_start, line_no
                    )
                if has_te and row.get(schema.t_end):
                    windows[sid][1] = _parse_float(
                        row[schema.t_end], schema.t_end, line_no
                    )
            rows[sid].append((t, mark_raw))

    if not order:
        warnings.warn(f"{path}: no event rows, corpus is empty", stacklevel=2)
        return Corpus((), dim if dim is not None else 0, None)

    all_marks = [m for sid in order for _, m in rows[sid]]
    label_map: Optional[dict[str, int]] = None
    try:
        int_marks = [int(m) for m in all_marks]
        if any(m < 0 for m in int_marks):
            raise ValueError
        mark_of = {raw: int(raw) for raw in set(all_marks)}
    except ValueError:
        label_map = {}
        for m in all_marks:
            if m not in label_map:
                label_map[m] = len(label_map)
        mark_of = label_map

    inferred = 1 + max(mark_of[m] for m in all_marks)
    d = dim if dim is not None else inferred
    if d < inferred:
        raise ValidationError(f"dim {d} too small for marks up to {inferred - 1}")

    seqs = []
    for sid in order:
        ts = np.array([t for t, _ in rows[sid]], dtype=np.float64)
        ms = np.array([mark_of[m] for _, m in rows[sid]], dtype=np.int64)
        idx = np.argsort(ts, kind="stable")
        ts, ms = ts[idx], ms[idx]
        w0, w1 = windows[sid]
        if t_start is not None:
            w0 = t_start
        if t_end is not None:
            w1 = t_end
        if w0 is None:
            w0 = 0.0
        if w1 is None:
            w1 = float(ts[-1]) if ts.size else w0
        seqs.append(EventSequence(ts, ms, w0, w1, d, sid))
    return Corpus(tuple(seqs), d, label_map)


# indent-2 layout of one [time, mark] pair inside a sequence's "events" list
_EVENT_SEP = "\n        ],\n        [\n          "
_TIME_MARK_SEP = ",\n          "


def _events_json(s: EventSequence) -> str:
    """The sequence's ``"events"`` value as ``json.dumps(..., indent=2)`` lays it out.

    Finite floats encode as their ``repr`` and integers as ``str``, exactly
    as ``json`` does; the join runs over the whole columns at once.
    """
    if not len(s):
        return "[]"
    times, marks = map(repr, s.times.tolist()), map(str, s.marks.tolist())
    pairs = map(_TIME_MARK_SEP.join, zip(times, marks))
    return "[\n        [\n          " + _EVENT_SEP.join(pairs) + "\n        ]\n      ]"


def _sequence_json(s: EventSequence) -> str:
    return (
        "    {\n"
        f'      "id": {json.dumps(s.id)},\n'
        f'      "t_start": {json.dumps(s.t_start)},\n'
        f'      "t_end": {json.dumps(s.t_end)},\n'
        f'      "events": {_events_json(s)}\n'
        "    }"
    )


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write the corpus as JSON, byte for byte ``json.dumps(doc, indent=2) + "\\n"``.

    The header goes through ``json`` (so ids and label names escape as it
    escapes them); the event arrays, nearly all of the bytes, are joined
    from their columns instead of walking the pure-Python indent encoder.
    """
    # the header object ends in "\n}"; the sequences go in before that brace
    head = json.dumps({"dim": corpus.dim, "label_map": corpus.label_map}, indent=2)
    if corpus.sequences:
        body = "[\n" + ",\n".join(map(_sequence_json, corpus.sequences)) + "\n  ]"
    else:
        body = "[]"
    atomic_write_text(path, f'{head[:-2]},\n  "sequences": {body}\n}}\n')


def _is_int(x) -> bool:
    """True for a JSON integer (a Python int that is not a bool)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _json_reals(x):
    """``x`` if it holds only JSON numbers, else TypeError (numpy reads true as 1, parses "1")."""
    for leaf in _leaves(x):
        if not _is_real(leaf):
            raise TypeError(f"{leaf!r} where a number belongs")
    return x


def _check_label_map(label_map, dim: int) -> None:
    if label_map is None:
        return
    if not isinstance(label_map, dict):
        raise TypeError(f"label_map must be null or an object, got {type(label_map).__name__}")
    idx = list(label_map.values())
    if not all(_is_int(i) and 0 <= i < dim for i in idx) or len(set(idx)) != len(idx):
        raise ValueError(f"label_map must map names to distinct ints in [0, {dim}), got {idx}")


def load_corpus(path: str) -> Corpus:
    doc = load_json(path)
    try:
        d = doc["dim"]
        if not _is_int(d):
            raise TypeError(f"dim must be an integer, got {d!r}")
        label_map = doc["label_map"]
        _check_label_map(label_map, d)
        seqs = []
        for s in doc["sequences"]:
            if not isinstance(s["id"], str):
                raise TypeError(f"sequence id must be a string, got {s['id']!r}")
            ev = s["events"]
            times, marks = [e[0] for e in ev], [e[1] for e in ev]
            window = (s["t_start"], s["t_end"])
            kinds = {*map(type, times), *map(type, marks), *map(type, window)} - {int, float}
            if kinds:
                raise TypeError(f"sequence {s['id']!r}: {min(k.__name__ for k in kinds)} where a "
                                "number belongs")
            seqs.append(EventSequence(np.array(times, dtype=np.float64), np.array(marks),
                                      *window, d, s["id"]))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise FormatError(f"{path}: malformed corpus document ({exc})") from exc
    return Corpus(tuple(seqs), d, label_map)


_KERNEL_TAGS = {"exponential", "basis", "discretized"}


def _kernel_to_doc(kernel: KernelSpec) -> dict:
    if isinstance(kernel, ExponentialKernel):
        return {"type": "exponential", "decay": kernel.decay}
    if isinstance(kernel, GaussianBasisKernel):
        return {
            "type": "basis",
            "centers": kernel.centers.tolist(),
            "bandwidth": kernel.bandwidth,
            "support": kernel.support,
        }
    if isinstance(kernel, DiscretizedKernel):
        return {"type": "discretized", "dt": kernel.dt, "n_lags": kernel.n_lags}
    raise FormatError(f"cannot serialize kernel type {type(kernel).__name__}")


def _kernel_from_doc(doc: dict) -> KernelSpec:
    if not isinstance(doc, dict):
        raise TypeError(f"kernel must be an object, got {doc!r}")
    tag = doc.get("type")
    if tag == "exponential":
        return ExponentialKernel(decay=_json_reals(doc["decay"]))
    if tag == "basis":
        return GaussianBasisKernel(
            centers=np.asarray(_json_reals(doc["centers"]), dtype=np.float64),
            bandwidth=_json_reals(doc["bandwidth"]),
            support=_json_reals(doc.get("support", 10.0)),
        )
    if tag == "discretized":
        if not _is_int(doc["n_lags"]):
            raise TypeError(f"n_lags must be an integer, got {doc['n_lags']!r}")
        return DiscretizedKernel(dt=_json_reals(doc["dt"]), n_lags=doc["n_lags"])
    raise FormatError(f"unknown kernel type tag {tag!r} (expected one of {sorted(_KERNEL_TAGS)})")


def save_model(model: HawkesModel, path: str) -> None:
    doc = {
        "dim": model.dim,
        "mu": model.mu.tolist(),
        "kernel": _kernel_to_doc(model.kernel),
        "A": model.A.tolist(),
    }
    dump_json(doc, path)


def load_model(path: str) -> HawkesModel:
    doc = load_json(path)
    try:
        dim = doc["dim"]
        model = HawkesModel(
            mu=np.asarray(_json_reals(doc["mu"]), dtype=np.float64),
            kernel=_kernel_from_doc(doc["kernel"]),
            A=np.asarray(_json_reals(doc["A"]), dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed model document ({exc})") from exc
    if not _is_int(dim) or dim != model.dim:
        raise FormatError(f"{path}: dim field {dim!r} != mu length {model.dim}")
    return model


def split_train_test(corpus: Corpus, ratio: float, rng_seed: int) -> tuple[Corpus, Corpus]:
    """Sequence-level split into (train, test); deterministic given the seed.

    ratio is the train fraction; each part keeps the corpus's sequence order.
    """
    _check_real("ratio", ratio, 0, hi=1)
    _check_int("rng_seed", rng_seed, 0)
    n = len(corpus)
    n_train = int(round(ratio * n))
    rng = make_rng(rng_seed)
    chosen = set(rng.permutation(n)[:n_train].tolist())
    train = tuple(s for i, s in enumerate(corpus.sequences) if i in chosen)
    test = tuple(s for i, s in enumerate(corpus.sequences) if i not in chosen)
    return (
        Corpus(train, corpus.dim, corpus.label_map),
        Corpus(test, corpus.dim, corpus.label_map),
    )


def subsample(corpus: Corpus, fraction: float, rng_seed: int) -> Corpus:
    """Keep each sequence independently with probability ``fraction``."""
    _check_real("fraction", fraction, 0, hi=1)
    _check_int("rng_seed", rng_seed, 0)
    rng = make_rng(rng_seed)
    keep = rng.random(len(corpus)) < fraction
    kept = tuple(s for s, k in zip(corpus.sequences, keep) if k)
    return Corpus(kept, corpus.dim, corpus.label_map)


def stitch(seq_a: EventSequence, seq_b: EventSequence, gap: float = 0.0) -> EventSequence:
    """Concatenate b after a, shifting b in time; windows join with ``gap`` between."""
    if seq_a.dim != seq_b.dim:
        raise ValidationError(
            f"cannot stitch sequences of dim {seq_a.dim} and {seq_b.dim}"
        )
    _check_real("gap", gap, 0)
    shift = seq_a.t_end - seq_b.t_start + gap
    times = np.concatenate([seq_a.times, seq_b.times + shift])
    marks = np.concatenate([seq_a.marks, seq_b.marks])
    new_id = seq_a.id if not seq_b.id else (f"{seq_a.id}+{seq_b.id}" if seq_a.id else seq_b.id)
    return EventSequence(
        times,
        marks,
        seq_a.t_start,
        seq_a.t_end + gap + seq_b.duration,
        seq_a.dim,
        new_id,
    )


def thin_events(seq: EventSequence, keep_prob: float, rng_seed: int) -> EventSequence:
    """Keep each event independently with probability ``keep_prob``; window unchanged."""
    _check_real("keep_prob", keep_prob, 0, hi=1)
    _check_int("rng_seed", rng_seed, 0)
    rng = make_rng(rng_seed)
    keep = rng.random(len(seq)) < keep_prob
    return replace(seq, times=seq.times[keep], marks=seq.marks[keep])
