"""Integer and seed arguments of the public API end in ValidationError."""

import numpy as np
import pytest

from hawkeskit.analyze import cluster_distance, cluster_mixture
from hawkeskit.core import (
    EventSequence,
    ExponentialKernel,
    HawkesModel,
    ValidationError,
    kernel_lag_averages,
)
from hawkeskit.data import Corpus, split_train_test, subsample, thin_events
from hawkeskit.learn import fit_ls

SEQS = tuple(
    EventSequence(np.array([1.0, 2.5, 4.0]) + i, np.array([0, 1, 0]), 0.0, 20.0, 2, f"s{i}")
    for i in range(3)
)
CORPUS = Corpus(SEQS, 2, None)
MODEL = HawkesModel(
    mu=np.array([0.3, 0.6]), kernel=ExponentialKernel(decay=1.0), A=np.full((2, 2), 0.2)
)
EXP = ExponentialKernel(decay=1.0)

CASES = {
    "cluster_distance-seed": (lambda: cluster_distance(CORPUS, 2, rng_seed=-1), "rng_seed"),
    "cluster_distance-K": (lambda: cluster_distance(CORPUS, 2.5), "K"),
    "cluster_distance-max_iters": (lambda: cluster_distance(CORPUS, 2, max_iters=0.5), "max_iters"),
    "cluster_mixture-K": (lambda: cluster_mixture(CORPUS, 2.5, EXP), "K"),
    "cluster_mixture-inner_iters": (lambda: cluster_mixture(CORPUS, 2, EXP, inner_iters=0), "inner_iters"),
    "split_train_test-seed": (lambda: split_train_test(CORPUS, 0.5, -1), "rng_seed"),
    "split_train_test-fractional-seed": (lambda: split_train_test(CORPUS, 0.5, 1.5), "rng_seed"),
    "subsample-seed": (lambda: subsample(CORPUS, 0.5, -1), "rng_seed"),
    "thin_events-seed": (lambda: thin_events(SEQS[0], 0.5, -1), "rng_seed"),
    "fit_ls-lags": (lambda: fit_ls(CORPUS, 1.0, 2.5), "lags"),
    "kernel_lag_averages-n_lags": (lambda: kernel_lag_averages(MODEL, 0.5, 2.5), "n_lags"),
}


@pytest.mark.parametrize("call, name", CASES.values(), ids=CASES.keys())
def test_bad_integer_argument_is_a_validation_error(call, name):
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        call()
