"""Kernel parameters and grid widths at the edges of the float range.

- ``core._pair_arrays`` with a support below the resolution of the event
  times: ``q - support == q``, so no event lies within the support and every
  count is 0 (it was negative, and ``np.repeat`` raised).  The finite-support
  compensator then counts every strictly earlier event at full mass.
- ``fit_mle_ode``'s curvature penalty 2·alpha/dt³: dt³ overflows above
  dt ≈ 5.6e102 and underflows to 0 below dt ≈ 1e-108, so those dt are refused
  by name unless alpha = 0, which needs no scale.
- Kernel parameters must be finite: decay, bandwidth and grid width; a basis
  support may be infinite.  A basis with no mass inside its support (a
  support far below its centers) is refused too.

Each command-line case exits 2 with the parameter named, raises no
RuntimeWarning on the way, and writes nothing.
"""

import json
import math
import os
import warnings

import numpy as np
import pytest

from hawkeskit import (
    DiscretizedKernel,
    EventSequence,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesModel,
    LearnConfig,
    ValidationError,
    fit_mle_ode,
    save_corpus,
    save_model,
)
from hawkeskit.cli import main
from hawkeskit.core import _pair_arrays, compensator, event_compensators
from hawkeskit.simulate import SimConfig, simulate_branch

TRUTH = HawkesModel(np.array([0.3, 0.6]), ExponentialKernel(1.0),
                    np.array([[0.4, 0.1], [0.2, 0.3]]))


@pytest.fixture(scope="module")
def corpus():
    return simulate_branch(SimConfig(TRUTH, t_end=40.0, n_sequences=4, rng_seed=5))


@pytest.fixture(scope="module")
def corpus_file(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("range") / "corpus.json"
    save_corpus(corpus, str(path))
    return str(path)


# --- supports below the resolution of the times ------------------------------


TIMES = np.array([1.0, 2.0, 2.0, 3.5, 1e6])


@pytest.mark.parametrize("support", [1e-300, 1e-17, 1e-10])
def test_pair_arrays_of_a_support_below_the_resolution_are_empty(support):
    # 1e-10 is below the spacing of floats near 1e6 only
    src, tgt = _pair_arrays(TIMES, support)
    assert src.size == tgt.size == 0
    src, tgt = _pair_arrays(TIMES, support, np.array([2.0, 1e6, 0.5]))
    assert src.size == tgt.size == 0


def test_event_compensators_of_a_support_below_the_resolution():
    # every strictly earlier event has spent its whole mass; tied ones none
    kern = GaussianBasisKernel(np.array([0.0]), bandwidth=1e-301, support=1e-300)
    model = HawkesModel(np.array([0.2, 0.1]), kern, np.full((1, 2, 2), 0.3))
    seq = EventSequence(TIMES, np.array([0, 1, 0, 1, 0]), 0.0, 2e6, 2)
    got = event_compensators(model, seq)
    want = [compensator(model, seq, int(u), 0.0, float(t)) for t, u in zip(seq.times, seq.marks)]
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert got[2] == pytest.approx(0.2 * 2.0 + 0.3)  # the tied event at 2.0 adds nothing


# --- the curvature penalty's scale -----------------------------------------------


@pytest.mark.parametrize("dt", [1e-110, 1e-105, 1e150])
def test_mle_ode_refuses_a_penalty_scale_out_of_range(corpus, dt):
    with pytest.raises(ValidationError, match=r"dt=.*alpha="):
        fit_mle_ode(corpus, dt, 3, LearnConfig(max_iters=2))


@pytest.fixture(scope="module")
def corpus_200():
    return simulate_branch(SimConfig(TRUTH, t_end=200.0, n_sequences=4, rng_seed=501))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dt", [1e-10, 1e-20, 1e-30, 1e-60])
def test_mle_ode_without_a_pair_in_its_support_fits_zero(corpus_200, dt):
    # no pair lies within 3·dt, so the M-step's N is zero and its minimizer is
    # A = 0; the stiff curvature penalty must not hold the random start
    report = fit_mle_ode(corpus_200, dt, 3, LearnConfig(max_iters=5))
    assert not np.any(report.model.A)
    assert np.all(np.isfinite(report.objective_trace[1:]))


@pytest.mark.parametrize("dt", [1e-110, 1e150])
def test_mle_ode_without_penalty_fits_at_any_dt(corpus, dt):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # unidentifiable grid values
        report = fit_mle_ode(corpus, dt, 3, LearnConfig(max_iters=2), alpha=0.0)
    assert np.all(np.isfinite(report.model.A))


# --- kernel parameters must be finite ----------------------------------------------


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize(
    "make,name",
    [
        (lambda x: ExponentialKernel(decay=x), "decay"),
        (lambda x: GaussianBasisKernel(np.array([0.5]), bandwidth=x), "bandwidth"),
        (lambda x: DiscretizedKernel(dt=x, n_lags=3), "dt"),
    ],
)
def test_kernel_parameters_must_be_finite(make, name, bad):
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        make(bad)


def test_basis_support_may_be_infinite():
    kern = GaussianBasisKernel(np.array([0.5, 2.0]), bandwidth=0.5, support=math.inf)
    np.testing.assert_allclose(kern.mass(np.inf), 1.0)


def test_basis_without_mass_inside_its_support_is_refused():
    with pytest.raises(ValidationError, match="no mass inside"):
        GaussianBasisKernel(np.array([0.0, 0.5]), bandwidth=1e-301, support=1e-300)


# --- the commands ---------------------------------------------------------------------


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv,named",
    [
        (["fit", "--learner", "mle-ode", "--dt", "1e-110", "--n-lags", "3"], "dt=1e-110"),
        (["eval", "--learners", "mle-ode", "--dt", "1e-110", "--n-lags", "3"], "dt=1e-110"),
        (["fit", "--learner", "mle-ode", "--dt", "1e150"], "dt=1e+150"),
        (["granger", "--kernel", "grid", "--dt", "1e200"], "dt=1e+200"),
        (["fit", "--kernel", "basis", "--support", "1e-300", "--bandwidth", "1e-301"],
         "no mass inside"),
        (["fit", "--decay", "inf"], "decay must be finite"),
        (["fit", "--kernel", "basis", "--bandwidth", "inf"], "bandwidth must be finite"),
        (["fit", "--learner", "ls", "--dt", "inf"], "dt must be finite"),
    ],
)
def test_out_of_range_flags_exit_2_writing_nothing(argv, named, corpus_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    data = (["--train", corpus_file, "--test", corpus_file] if argv[0] == "eval"
            else ["--data", corpus_file])
    assert main([argv[0], *data, *argv[1:], "--out", str(out_dir / "o")]) == 2
    assert named in capsys.readouterr().err
    assert os.listdir(out_dir) == []


def test_basis_fit_with_a_support_below_the_resolution(corpus_file, tmp_path):
    # no pair lies inside the support, so the fitted coefficients are zero
    out = tmp_path / "m.json"
    rc = main(["fit", "--data", corpus_file, "--kernel", "basis", "--centers", "0",
               "--support", "1e-300", "--bandwidth", "1e-301", "--max-iters", "3",
               "--out", str(out)])
    assert rc == 0
    assert not np.any(json.loads(out.read_text())["A"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_model_file_with_an_infinite_decay_exits_2(corpus_file, tmp_path, capsys):
    path = tmp_path / "model.json"
    save_model(TRUTH, str(path))
    path.write_text(path.read_text().replace('"decay": 1.0', '"decay": 1e999'))
    assert "1e999" in path.read_text()
    out = tmp_path / "c.json"
    assert main(["simulate", "--model", str(path), "--t-end", "10", "--out", str(out)]) == 2
    assert "decay must be finite" in capsys.readouterr().err
    assert not out.exists()


# --- a starting objective outside the float range ------------------------------------


def test_mle_ode_refuses_a_non_finite_starting_objective(corpus):
    # dt = 1e-100 keeps the penalty scale finite, but the random start's
    # penalty 0.5·x'Px (x of order 1/dt, P of order 1/dt³) evaluates to inf - inf
    with pytest.raises(ValidationError, match="starting objective is nan"):
        fit_mle_ode(corpus, 1e-100, 3, LearnConfig(max_iters=2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_starting_objective_exits_2_writing_nothing(corpus_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = main(["fit", "--data", corpus_file, "--learner", "mle-ode", "--kernel", "grid",
               "--dt", "1e-100", "--n-lags", "3", "--out", str(out_dir / "m.json"),
               "--report", str(out_dir / "r.json")])
    assert rc == 2
    assert "starting objective" in capsys.readouterr().err
    assert os.listdir(out_dir) == []
