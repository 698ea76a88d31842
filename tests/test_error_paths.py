"""Error paths and degenerate branches that the rest of the suite never reaches."""

import numpy as np
import pytest

from hawkeskit.analyze import cluster_distance, cluster_mixture, load_granger_dot, load_tvhp_csv
from hawkeskit.core import (
    EventSequence,
    ExponentialKernel,
    HawkesModel,
    ValidationError,
    compensator,
)
from hawkeskit.data import Corpus, FormatError
from hawkeskit.learn import LearnConfig


def _seq(sid, times=(1.0, 2.5, 4.0), marks=(0, 1, 0)):
    return EventSequence(np.array(times), np.array(marks), 0.0, 10.0, 2, sid)


def test_mixture_with_fewer_sequences_than_clusters_is_refused():
    corpus = Corpus((_seq("a"), _seq("b")), 2)
    with pytest.raises(ValidationError, match="fewer than K=3"):
        cluster_mixture(corpus, 3, ExponentialKernel(decay=1.0), LearnConfig(max_iters=5))


def test_medoids_seed_uniformly_when_every_distance_is_zero():
    # four identical sequences: every remaining seeding weight is 0, so the
    # seeding draws among the sequences not yet chosen
    corpus = Corpus(tuple(_seq(f"s{i}") for i in range(4)), 2)
    res = cluster_distance(corpus, 3, rng_seed=0)
    assert len(set(res.medoids)) == 3
    assert res.objective_trace == (0.0,)


@pytest.mark.parametrize(
    "text,named",
    [
        ("graph G {\n}\n", "not a digraph file"),
        ('digraph granger {\n  rankdir=LR;\n}\n', "unrecognized line"),
    ],
    ids=["not-a-digraph", "unrecognized-line"],
)
def test_malformed_dot_is_a_format_error(text, named, tmp_path):
    p = tmp_path / "g.dot"
    p.write_text(text)
    with pytest.raises(FormatError, match=named):
        load_granger_dot(str(p))


def test_tvhp_csv_with_a_wrong_header_is_a_format_error(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("s,v,u,b\n0.0,0,0,0.1\n")
    with pytest.raises(FormatError, match="expected header s,v,u,a"):
        load_tvhp_csv(str(p))


def test_compensator_over_a_reversed_window_is_refused():
    model = HawkesModel(mu=np.array([0.5, 0.5]), kernel=ExponentialKernel(1.0),
                        A=np.full((2, 2), 0.1))
    with pytest.raises(ValidationError, match="need t0 <= t1"):
        compensator(model, _seq("a"), 0, 5.0, 4.0)
