"""Real-valued arguments and arrays of the public API end in ValidationError.

Each argument is tried with NaN, inf, True, the string "1" and a value out
of its range; every one must be refused by name, and so must a list that
mixes a boolean or a string with numbers.  Model and graph files holding
JSON NaN are refused the same way when loaded; a file holding a boolean, a
string or null where a number belongs is a FormatError.
"""

import json
import math
import re

import numpy as np
import pytest

from hawkeskit.analyze import (
    DistanceParams,
    GrangerGraph,
    TvhpModel,
    fit_tvhp,
    granger_graph,
    load_granger,
    load_tvhp,
    save_granger,
    save_tvhp,
)
from hawkeskit.cli import _write_intensity_csv
from hawkeskit.core import (
    DiscretizedKernel,
    Event,
    EventSequence,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesModel,
    ValidationError,
    compensator,
    intensity,
    intensity_profile,
    kernel_lag_averages,
)
from hawkeskit.data import (
    Corpus,
    FormatError,
    load_corpus,
    load_model,
    save_corpus,
    save_model,
    split_train_test,
    stitch,
    subsample,
    thin_events,
)
from hawkeskit.learn import LearnConfig, Penalty, fit_ls, fit_mle, fit_mle_ode
from hawkeskit.simulate import SimConfig

SEQS = tuple(
    EventSequence(np.array([1.0, 2.5, 4.0]) + i, np.array([0, 1, 0]), 0.0, 20.0, 2, f"s{i}")
    for i in range(3)
)
CORPUS = Corpus(SEQS, 2, None)
EXP = ExponentialKernel(decay=1.0)
MODEL = HawkesModel(mu=np.array([0.3, 0.6]), kernel=EXP, A=np.full((2, 2), 0.2))
CFG = LearnConfig(max_iters=2)


def full(shape, x):
    """An array of ``x``: bool for True, str for "1", float otherwise."""
    return np.full(shape, x)


# (name in the message, call taking the bad value, a value out of range or
# None where every finite value is allowed)
SCALARS = [
    ("decay", lambda x: ExponentialKernel(x), 0.0),
    ("bandwidth", lambda x: GaussianBasisKernel(np.array([0.5]), x), 0.0),
    ("dt", lambda x: DiscretizedKernel(x, 3), -1.0),
    ("event time", lambda x: Event(x, 0), -1.0),
    ("sequence 's': t_start", lambda x: EventSequence([], [], x, 5.0, 1, "s"), None),
    ("sequence 's': t_end", lambda x: EventSequence([], [], 0.0, x, 1, "s"), None),
    ("penalty weight", lambda x: Penalty("sparse", x), -1.0),
    ("tol", lambda x: LearnConfig(tol=x), 0.0),
    ("t_end", lambda x: SimConfig(MODEL, x), 0.0),
    ("t", lambda x: intensity(MODEL, SEQS[0], 0, x), None),
    ("t0", lambda x: compensator(MODEL, SEQS[0], 0, x, 30.0), None),
    ("t1", lambda x: compensator(MODEL, SEQS[0], 0, -30.0, x), None),
    ("dt", lambda x: kernel_lag_averages(MODEL, x, 2), 0.0),
    ("bin_width", lambda x: fit_ls(CORPUS, x, 2), -0.5),
    ("ridge", lambda x: fit_ls(CORPUS, 1.0, 2, ridge=x), -1.0),
    ("alpha", lambda x: fit_mle_ode(CORPUS, 0.5, 4, CFG, alpha=x), -1.0),
    ("beta", lambda x: fit_tvhp(CORPUS, [0.0, 10.0, 30.0], 1.0, CFG, beta=x), -1.0),
    ("decay", lambda x: fit_tvhp(CORPUS, [0.0, 10.0, 30.0], x, CFG), 0.0),
    ("threshold", lambda x: granger_graph(CORPUS, EXP, CFG, threshold=x), None),
    ("threshold", lambda x: GrangerGraph(np.zeros((1, 1)), np.zeros((1, 1), bool), x), None),
    ("decay", lambda x: TvhpModel([0.1], [0.0, 1.0], np.zeros((2, 1, 1)), x), -1.0),
    ("time_cost", lambda x: DistanceParams(time_cost=x), -1.0),
    ("mark_mismatch_cost", lambda x: DistanceParams(mark_mismatch_cost=x), -1.0),
    ("indel_cost", lambda x: DistanceParams(indel_cost=x), -1.0),
    ("ratio", lambda x: split_train_test(CORPUS, x, 0), 1.5),
    ("fraction", lambda x: subsample(CORPUS, x, 0), -0.1),
    ("keep_prob", lambda x: thin_events(SEQS[0], x, 0), 2.0),
    ("gap", lambda x: stitch(SEQS[0], SEQS[1], gap=x), -1.0),
]
SCALAR_IDS = [
    "ExponentialKernel", "GaussianBasisKernel", "DiscretizedKernel", "Event",
    "EventSequence-t_start", "EventSequence-t_end", "Penalty", "LearnConfig", "SimConfig",
    "intensity", "compensator-t0", "compensator-t1", "kernel_lag_averages",
    "fit_ls-bin_width", "fit_ls-ridge", "fit_mle_ode", "fit_tvhp-beta", "fit_tvhp-decay",
    "granger_graph", "GrangerGraph", "TvhpModel", "DistanceParams-time",
    "DistanceParams-mismatch", "DistanceParams-indel", "split_train_test", "subsample",
    "thin_events", "stitch",
]

ARRAYS = [
    ("sequence 's': times",
     lambda x: EventSequence(full(2, x), [0, 0], -5.0, 5.0, 1, "s"), -1.0),
    ("centers", lambda x: GaussianBasisKernel(full(2, x), 0.5), -1.0),
    ("mu", lambda x: HawkesModel(mu=full(2, x), kernel=EXP, A=np.zeros((2, 2))), -1.0),
    ("A", lambda x: HawkesModel(mu=np.ones(2), kernel=EXP, A=full((2, 2), x)), -1.0),
    ("mu", lambda x: TvhpModel(full(1, x), [0.0, 1.0], np.zeros((2, 1, 1)), 1.0), -1.0),
    ("grid", lambda x: TvhpModel([0.1], full(2, x), np.zeros((2, 1, 1)), 1.0), None),
    ("A", lambda x: TvhpModel([0.1], [0.0, 1.0], full((2, 1, 1), x), 1.0), -1.0),
    ("infectivity",
     lambda x: GrangerGraph(full((1, 1), x), np.zeros((1, 1), bool), 0.5), -1.0),
    ("ts", lambda x: intensity_profile(MODEL, SEQS[0], full(2, x)), None),
    ("grid", lambda x: fit_tvhp(CORPUS, full(3, x), 1.0, CFG), None),
    ("weights", lambda x: fit_mle(CORPUS, EXP, CFG, weights=full(3, x)), -1.0),
    ("init mu0",
     lambda x: fit_mle(CORPUS, EXP, CFG, init=(full(2, x), np.ones((2, 2)))), -1.0),
    ("init A0",
     lambda x: fit_mle(CORPUS, EXP, CFG, init=(np.ones(2), full((2, 2), x))), -1.0),
]
ARRAY_IDS = [
    "EventSequence-times", "GaussianBasisKernel-centers", "HawkesModel-mu", "HawkesModel-A",
    "TvhpModel-mu", "TvhpModel-grid", "TvhpModel-A", "GrangerGraph-infectivity",
    "intensity_profile", "fit_tvhp-grid", "fit_mle-weights", "fit_mle-init-mu0",
    "fit_mle-init-A0",
]

BAD = {"nan": math.nan, "inf": math.inf, "bool": True, "str": "1"}


def _cases():
    for table, ids in ((SCALARS, SCALAR_IDS), (ARRAYS, ARRAY_IDS)):
        for (name, call, out_of_range), case in zip(table, ids, strict=True):
            for label, bad in BAD.items():
                yield pytest.param(call, name, bad, id=f"{case}-{label}")
            if out_of_range is not None:
                yield pytest.param(call, name, out_of_range, id=f"{case}-range")


@pytest.mark.parametrize("call, name, bad", _cases())
def test_bad_real_argument_is_a_validation_error(call, name, bad):
    with pytest.raises(ValidationError, match=re.escape(f"{name} must be finite")):
        call(bad)


@pytest.mark.parametrize("bad", [*BAD.values(), 0.0, -1.0], ids=[*BAD, "zero", "negative"])
def test_bad_intensity_grid_step_is_a_validation_error(bad, tmp_path):
    out = tmp_path / "grid.csv"
    with pytest.raises(ValidationError, match="--intensity-grid must be finite and > 0"):
        _write_intensity_csv(MODEL, CORPUS, bad, str(out), 1000)
    assert not out.exists()


def test_numpy_scalars_integer_arrays_and_lists_are_accepted():
    assert ExponentialKernel(np.float32(0.5)).decay == np.float32(0.5)
    assert LearnConfig(tol=np.float64(1e-3)).tol == 1e-3
    model = HawkesModel(mu=np.array([1, 2]), kernel=EXP, A=np.zeros((2, 2), dtype=np.int64))
    assert model.mu.dtype == model.A.dtype == np.float64
    model = HawkesModel(mu=[1, 0.5], kernel=EXP, A=[[0, 0.1], np.array([0.2, 0])])
    assert model.mu.dtype == model.A.dtype == np.float64
    assert model.A.tolist() == [[0.0, 0.1], [0.2, 0.0]]


def test_message_shows_the_first_bad_entry():
    with pytest.raises(ValidationError, match=r"A must be finite and >= 0, got -1\.0 at index \(1, 0\)"):
        HawkesModel(mu=np.ones(2), kernel=EXP, A=np.array([[0.1, 0.2], [-1.0, math.nan]]))


TVHP_DOC = {"dim": 1, "mu": [0.1], "grid": [0.0, 1.0], "A": [[[0.2]], [[0.3]]], "decay": 1.0}
GRANGER_DOC = {"threshold": 0.1, "infectivity": [[0.2]], "adjacency": [[True]]}


@pytest.mark.parametrize(
    "load, doc, key, value",
    [
        (load_tvhp, TVHP_DOC, "mu", [math.nan]),
        (load_tvhp, TVHP_DOC, "grid", [0.0, math.nan]),
        (load_tvhp, TVHP_DOC, "A", [[[0.2]], [[math.nan]]]),
        (load_tvhp, TVHP_DOC, "decay", math.nan),
        (load_granger, GRANGER_DOC, "infectivity", [[math.nan]]),
        (load_granger, GRANGER_DOC, "threshold", math.nan),
    ],
    ids=["tvhp-mu", "tvhp-grid", "tvhp-A", "tvhp-decay", "granger-infectivity",
         "granger-threshold"],
)
def test_json_nan_in_a_file_is_refused_by_name(load, doc, key, value, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**doc, key: value}))  # json writes NaN
    assert "NaN" in path.read_text()
    with pytest.raises(ValidationError, match=f"{key} must be finite"):
        load(str(path))


@pytest.mark.parametrize("bad", [math.nan, -math.inf, True, "1", 0.0, -1.0],
                         ids=["nan", "-inf", "bool", "str", "zero", "negative"])
def test_bad_basis_support_is_a_validation_error(bad):
    with pytest.raises(ValidationError, match="support must be finite and > 0"):
        GaussianBasisKernel(np.array([0.5]), 0.5, support=bad)


@pytest.mark.parametrize(
    "name, call",
    [
        ("mu", lambda: HawkesModel(mu=[0.1, True], kernel=EXP, A=np.zeros((2, 2)))),
        ("A", lambda: HawkesModel(mu=[0.1, 0.2], kernel=EXP, A=[[0.1, 0.0], [np.bool_(1), 0.0]])),
        ("A", lambda: HawkesModel(mu=[0.1], kernel=EXP, A=[np.array([True])])),
        ("mu", lambda: TvhpModel([0.1, "0.2"], [0.0, 1.0], np.zeros((2, 2, 2)), 1.0)),
        ("grid", lambda: TvhpModel([0.1], (0.0, None), np.zeros((2, 1, 1)), 1.0)),
        ("infectivity", lambda: GrangerGraph([[0.2, True]], np.zeros((1, 2), bool), 0.1)),
        ("sequence 's': times", lambda: EventSequence([1.0, True], [0, 0], 0.0, 5.0, 1, "s")),
        ("init mu0", lambda: fit_mle(CORPUS, EXP, CFG, init=([0.1, False], np.ones((2, 2))))),
    ],
    ids=["HawkesModel-mu", "HawkesModel-A-numpy-bool", "HawkesModel-A-bool-row",
         "TvhpModel-mu-str", "TvhpModel-grid-none", "GrangerGraph", "EventSequence",
         "fit_mle-init"],
)
def test_list_mixing_a_non_real_with_numbers_is_refused(name, call):
    with pytest.raises(ValidationError, match=re.escape(f"{name} must be finite")):
        call()


def _mutated(tmp_path, save, obj, edit):
    path = tmp_path / "doc.json"
    save(obj, str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _set_kernel(key, value):
    def edit(doc):
        doc["kernel"][key] = value
    return edit


def _set_seq(key, value):
    def edit(doc):
        doc["sequences"][0][key] = value
    return edit


def _set_event(i, value):
    def edit(doc):
        doc["sequences"][0]["events"][0][i] = value
    return edit


BASIS_MODEL = HawkesModel(mu=np.array([0.3]),
                          kernel=GaussianBasisKernel(np.array([0.5, 1.0]), 0.5, 5.0),
                          A=np.full((2, 1, 1), 0.1))
GRID_MODEL = HawkesModel(mu=np.array([0.3]), kernel=DiscretizedKernel(0.5, 3),
                         A=np.full((3, 1, 1), 0.1))
TVHP = TvhpModel([0.1], [0.0, 1.0], np.full((2, 1, 1), 0.2), 1.0)
GRAPH = GrangerGraph(np.array([[0.2]]), np.array([[True]]), 0.1)


@pytest.mark.parametrize(
    "load, save, obj, edit",
    [
        (load_corpus, save_corpus, CORPUS, _set_seq("t_start", "0")),
        (load_corpus, save_corpus, CORPUS, _set_seq("t_end", None)),
        (load_corpus, save_corpus, CORPUS, _set_event(0, "1.0")),
        (load_corpus, save_corpus, CORPUS, _set_event(1, "0")),
        (load_model, save_model, MODEL, _set("mu", ["0.3", 0.6])),
        (load_model, save_model, MODEL, _set("A", [[0.2, True], [0.2, 0.2]])),
        (load_model, save_model, MODEL, _set_kernel("decay", "1")),
        (load_model, save_model, MODEL, _set_kernel("decay", None)),
        (load_model, save_model, GRID_MODEL, _set_kernel("dt", "0.5")),
        (load_model, save_model, GRID_MODEL, _set_kernel("n_lags", "3")),
        (load_model, save_model, BASIS_MODEL, _set_kernel("centers", ["0.5", 1.0])),
        (load_model, save_model, BASIS_MODEL, _set_kernel("bandwidth", True)),
        (load_model, save_model, BASIS_MODEL, _set_kernel("support", "5")),
        (load_tvhp, save_tvhp, TVHP, _set("mu", ["0.1"])),
        (load_tvhp, save_tvhp, TVHP, _set("decay", "1")),
        (load_granger, save_granger, GRAPH, _set("threshold", "0.1")),
        (load_granger, save_granger, GRAPH, _set("threshold", True)),
        (load_granger, save_granger, GRAPH, _set("infectivity", [["0.2"]])),
        (load_granger, save_granger, GRAPH, _set("infectivity", [[True]])),
        (load_granger, save_granger, GRAPH, _set("infectivity", "abc")),
    ],
    ids=["corpus-t_start-str", "corpus-t_end-null", "corpus-time-str", "corpus-mark-str",
         "model-mu-str", "model-A-bool", "model-decay-str", "model-decay-null",
         "model-dt-str", "model-n_lags-str", "model-centers-str", "model-bandwidth-bool",
         "model-support-str", "tvhp-mu-str", "tvhp-decay-str", "granger-threshold-str",
         "granger-threshold-bool", "granger-infectivity-str", "granger-infectivity-bool",
         "granger-infectivity-text"],
)
def test_file_with_a_non_number_where_a_number_belongs_is_a_format_error(
        load, save, obj, edit, tmp_path):
    with pytest.raises(FormatError, match="malformed"):
        load(_mutated(tmp_path, save, obj, edit))
