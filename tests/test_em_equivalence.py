"""Golden values for the EM learners: fit_mle, fit_mle_ode, fit_tvhp and
cluster_mixture.

``em_golden.json`` holds two small fixed-seed corpora and, for each case,
the objective trace, iteration count, ``mu`` and ``A`` that the learners
produced when each still ran its own EM loop.  The shared loop must
reproduce them: iteration counts exactly, traces elementwise to RTOL
relative, and ``mu`` and ``A`` to RTOL relative to the largest entry of the
recorded array (entries that a penalty drives towards zero carry no
relative precision of their own).

RTOL is 1e-12, except for the two roughness learners, mle_ode and tvhp.
Their M-step is the projected Newton solve ``_projected_newton``, which
accepts a step only if it lowers a column's objective by more than 1e-15 of
its value, and stops a column whose predicted decrease is within that
margin, so whether a last, tiny step is taken can flip on a one-ulp change
of its inputs, and the step moves the solution by up to about 1e-7
relative.  Any change of summation order upstream therefore moves these
fits by that much: the recorded learners themselves, run on the same corpus
with its sequences in reverse order, differ from their own golden values by
up to 3e-10 in the trace and 1e-9 in ``A``.  Those two cases use
NEWTON_RTOL.

low_rank runs the same solver and still matches at RTOL, because the solver
keeps the operation order of the per-column low-rank solve that recorded
its golden values: the penalty gradient k * (Q b) as a stacked
matrix-vector product, the surrogate's quadratic as ((k/2) b Q) b and the
Newton decrement as one dot product per column.  Computing the gradient as
b @ Q.T instead moves this trace by about 6e-10; the surrogate's order
decides acceptance in ill-conditioned columns, which
``test_lowrank_batched.py`` checks against the per-column reference.

Rewrite the file only on purpose, from a checkout whose learners are the
reference: ``PYTHONPATH=src python tests/test_em_equivalence.py --write``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hawkeskit import (
    Corpus,
    EventSequence,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesModel,
    LearnConfig,
    Penalty,
    SimConfig,
    cluster_mixture,
    fit_mle,
    fit_mle_ode,
    fit_tvhp,
    simulate_branch,
)

GOLDEN = Path(__file__).with_name("em_golden.json")
RTOL = 1e-12
NEWTON_RTOL = 1e-6
NEWTON_CASES = ("mle_ode", "tvhp")

EXP = ExponentialKernel(decay=1.0)
BASIS = GaussianBasisKernel(centers=np.array([0.5, 1.5]), bandwidth=0.5, support=3.0)


def _simulated_corpora() -> dict:
    exp_truth = HawkesModel(
        mu=np.array([0.3, 0.2, 0.4]),
        kernel=EXP,
        A=np.array([[0.3, 0.1, 0.0], [0.0, 0.2, 0.2], [0.1, 0.0, 0.3]]),
    )
    A = np.zeros((2, 2, 2))
    A[0] = [[0.3, 0.0], [0.1, 0.1]]
    A[1] = [[0.0, 0.2], [0.0, 0.2]]
    lag_truth = HawkesModel(mu=np.array([0.4, 0.3]), kernel=BASIS, A=A)
    return {
        "exp": simulate_branch(SimConfig(exp_truth, t_end=60.0, n_sequences=4, rng_seed=11)),
        "lag": simulate_branch(SimConfig(lag_truth, t_end=80.0, n_sequences=3, rng_seed=12)),
    }


def _fit_record(rep) -> dict:
    return {
        "trace": list(rep.objective_trace),
        "iterations": rep.iterations,
        "mu": rep.model.mu.tolist(),
        "A": rep.model.A.tolist(),
    }


def _mixture_record(res) -> dict:
    return {
        "trace": list(res.objective_trace),
        "iterations": len(res.objective_trace),
        "mu": [m.mu.tolist() for m in res.models],
        "A": [m.A.tolist() for m in res.models],
    }


def _structural(kind):
    def run(corpora):
        cfg = LearnConfig(max_iters=300, tol=1e-7, penalty=Penalty(kind, 0.5), rng_seed=3)
        return _fit_record(fit_mle(corpora["exp"], EXP, cfg))

    return run


def _basis(corpora):
    return _fit_record(fit_mle(corpora["lag"], BASIS, LearnConfig(max_iters=300, tol=1e-7)))


def _ode(corpora):
    cfg = LearnConfig(max_iters=100, tol=1e-6, rng_seed=1)
    return _fit_record(fit_mle_ode(corpora["lag"], 0.5, 6, cfg, alpha=1.0))


def _tvhp(corpora):
    corpus = corpora["lag"]
    t_end = max(seq.t_end for seq in corpus)
    fit = fit_tvhp(corpus, np.linspace(0.0, t_end, 4), 1.0,
                   LearnConfig(max_iters=100, tol=1e-6, rng_seed=2), beta=0.5)
    return _fit_record(fit)


def _mixture(corpora):
    res = cluster_mixture(corpora["exp"], 2, EXP, LearnConfig(max_iters=40, tol=1e-6))
    return _mixture_record(res)


CASES = {
    "mle_exp_none": _structural("none"),
    "mle_exp_sparse": _structural("sparse"),
    "mle_exp_group_sparse": _structural("group_sparse"),
    "mle_exp_low_rank": _structural("low_rank"),
    "mle_basis": _basis,
    "mle_ode": _ode,
    "tvhp": _tvhp,
    "mixture": _mixture,
}


def _corpus_doc(corpus: Corpus) -> dict:
    return {
        "dim": corpus.dim,
        "sequences": [
            {"id": s.id, "t_start": s.t_start, "t_end": s.t_end,
             "times": s.times.tolist(), "marks": s.marks.tolist()}
            for s in corpus
        ],
    }


def _corpus_from_doc(doc: dict) -> Corpus:
    seqs = tuple(
        EventSequence(np.array(s["times"]), np.array(s["marks"], dtype=np.int64),
                      s["t_start"], s["t_end"], doc["dim"], s["id"])
        for s in doc["sequences"]
    )
    return Corpus(seqs, doc["dim"])


def _write_golden() -> None:
    corpora = _simulated_corpora()
    doc = {
        "corpora": {name: _corpus_doc(c) for name, c in corpora.items()},
        "cases": {name: run(corpora) for name, run in CASES.items()},
    }
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    corpora = {name: _corpus_from_doc(c) for name, c in doc["corpora"].items()}
    return corpora, doc["cases"]


def _assert_scaled_close(got, want, rtol, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    scale = float(np.abs(want).max()) if want.size else 0.0
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale, err_msg=what)


@pytest.mark.parametrize("case", sorted(CASES))
def test_learner_matches_golden_values(golden, case):
    corpora, cases = golden
    got, want = CASES[case](corpora), cases[case]
    rtol = NEWTON_RTOL if case in NEWTON_CASES else RTOL
    assert got["iterations"] == want["iterations"]
    np.testing.assert_allclose(got["trace"], want["trace"], rtol=rtol, atol=0.0,
                               err_msg=f"{case}: objective trace")
    _assert_scaled_close(got["mu"], want["mu"], rtol, f"{case}: mu")
    _assert_scaled_close(got["A"], want["A"], rtol, f"{case}: A")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_em_equivalence.py --write")
    _write_golden()
