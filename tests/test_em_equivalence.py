"""Golden values for the EM learners: fit_mle, fit_mle_ode, fit_tvhp and
cluster_mixture.

``em_golden.json`` holds two small fixed-seed corpora and, for each case,
the objective trace, iteration count, ``mu`` and ``A`` of the reference
learners.  The learners must reproduce them: iteration counts exactly,
traces elementwise to RTOL relative, and ``mu`` and ``A`` to RTOL relative
to the largest entry of the recorded array (entries that a penalty drives
towards zero carry no relative precision of their own).  RTOL is 1e-12 for
every case.

That holds for the learners whose M-step is one projected Newton step,
``_newton_step`` (low rank, mle_ode and tvhp), because the step is a
continuous function of its inputs near the optimum.  There is no stop on
step size, so this rests on the pure-step rule alone: there the step is the
full Newton step, taken untested, and no decision hangs on two values that
agree to rounding.  A change of summation order upstream, such as the order
of the corpus's sequences, moves every fit by rounding only; each case but
the mixture (whose two clusters may swap labels) is also run on the corpora
with their sequences reversed and must match the forward run to RTOL.

One Newton step per M-step makes those three learners generalized EM: the
step lowers the M-step's surrogate where the former inner solve minimized
it, with the same fixed points.  So, fitted to tol 1e-13, they must reach
the optimum that the inner solve reaches (``_inner_solve`` below, the
former 30-iteration loop, kept as the reference): final objectives within
1e-12 relative, and ``A`` within 1e-5 of its largest entry, the accuracy
to which plain EM's slow approach pins the optimum at that tolerance.

Rewrite the file only on purpose, from a checkout whose learners are the
reference: ``PYTHONPATH=src python tests/test_em_equivalence.py --write
[CASE ...]``.  Named cases are rerun and every other case keeps its stored
values byte for byte, so a rewrite of one learner's case does not also record
rounding drift in the others; a bare ``--write`` reruns every case.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import hawkeskit.learn as learn
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
from hawkeskit.learn import _newton_directions, _rowdot, _surrogate

GOLDEN = Path(__file__).with_name("em_golden.json")
RTOL = 1e-12

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
    def run(corpora, max_iters=300, tol=1e-7):
        cfg = LearnConfig(max_iters=max_iters, tol=tol, penalty=Penalty(kind, 0.5), rng_seed=3)
        return _fit_record(fit_mle(corpora["exp"], EXP, cfg))

    return run


def _basis(corpora):
    return _fit_record(fit_mle(corpora["lag"], BASIS, LearnConfig(max_iters=300, tol=1e-7)))


def _ode(corpora, max_iters=100, tol=1e-6):
    cfg = LearnConfig(max_iters=max_iters, tol=tol, rng_seed=1)
    return _fit_record(fit_mle_ode(corpora["lag"], 0.5, 6, cfg, alpha=1.0))


def _tvhp(corpora, max_iters=100, tol=1e-6):
    corpus = corpora["lag"]
    t_end = max(seq.t_end for seq in corpus)
    fit = fit_tvhp(corpus, np.linspace(0.0, t_end, 4), 1.0,
                   LearnConfig(max_iters=max_iters, tol=tol, rng_seed=2), beta=0.5)
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


def _write_golden(names=()) -> None:
    """Record the named cases (every case if none is named, or if the file does not
    exist yet), on the stored corpora once the file exists, so that a rewrite moves
    only the learners' values, not their inputs; the other cases keep theirs."""
    stored = {"cases": {}}
    if GOLDEN.exists():
        stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
        corpora = {name: _corpus_from_doc(c) for name, c in stored["corpora"].items()}
    else:
        corpora = _simulated_corpora()
    rerun = set(names or CASES) | (CASES.keys() - stored["cases"].keys())
    doc = {
        "corpora": {name: _corpus_doc(c) for name, c in corpora.items()},
        "cases": {name: run(corpora) if name in rerun else stored["cases"][name]
                  for name, run in CASES.items()},
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


def _assert_same_fit(got, want, case):
    assert got["iterations"] == want["iterations"]
    np.testing.assert_allclose(got["trace"], want["trace"], rtol=RTOL, atol=0.0,
                               err_msg=f"{case}: objective trace")
    _assert_scaled_close(got["mu"], want["mu"], RTOL, f"{case}: mu")
    _assert_scaled_close(got["A"], want["A"], RTOL, f"{case}: A")


@pytest.mark.parametrize("case", sorted(CASES))
def test_learner_matches_golden_values(golden, case):
    corpora, cases = golden
    _assert_same_fit(CASES[case](corpora), cases[case], case)


@pytest.mark.parametrize("case", sorted(set(CASES) - {"mixture"}))
def test_reversed_sequence_order_gives_the_same_fit(golden, case):
    corpora, _ = golden
    reversed_corpora = {name: Corpus(c.sequences[::-1], c.dim) for name, c in corpora.items()}
    _assert_same_fit(CASES[case](reversed_corpora), CASES[case](corpora), case)


def _inner_solve(x, N, E, Q, k):
    """The former M-step solver: projected Newton iterated per column until a
    step-size stop (max|s| <= 1e-13 * max(1, max|x|)) or 30 iterations, with
    the backtracking rule of ``_newton_step`` and a pure step wherever the
    predicted decrease is below 1e-9 of the surrogate, as it was (later
    iterations made up for an ascent direction taken there)."""
    m, C, K = x.shape
    N = np.ascontiguousarray(N)
    E = np.ascontiguousarray(E)
    x = np.maximum(np.ascontiguousarray(x), 0.0)
    pos = N > 0
    kQ = np.tile(k * Q, (C, C))
    eye = np.eye(C * K)
    x[pos & (x <= 0)] = 1e-12
    f = _surrogate(x, N, E, Q, k, pos)
    active = np.arange(m)
    for _ in range(30):
        xa, Na, pa = x[active], N[active], pos[active]
        grad = E[active] + k * np.matmul(Q, xa.sum(axis=1)[:, :, None]).transpose(0, 2, 1)
        grad = grad - np.where(pa, Na / np.maximum(xa, 1e-300), 0.0)
        curv = np.where(pa, Na / np.maximum(xa * xa, 1e-300), 0.0)
        free = ((xa > 0) | (grad <= 0)).reshape(-1, C * K)
        H = kQ * (free[:, :, None] & free[:, None, :])
        H += np.where(free, curv.reshape(-1, C * K) + 1e-12, 1.0)[:, :, None] * eye
        step = _newton_directions(H, np.where(free, grad.reshape(-1, C * K), 0.0))
        step = np.where(free, step, 0.0).reshape(grad.shape)
        scale = np.maximum(1.0, np.abs(f[active]))
        go = np.abs(step).max(axis=(1, 2)) > 1e-13 * np.maximum(1.0, xa.max(axis=(1, 2)))
        full = xa + step
        decrease = -0.5 * _rowdot(grad.reshape(-1, C * K), step.reshape(-1, C * K))
        pure = go & (decrease <= 1e-9 * scale)
        pure &= np.where(pa, full > 0, full >= 0).all(axis=(1, 2))
        took = active[pure]
        x[took] = full[pure]
        f[took] = _surrogate(full[pure], Na[pure], E[took], Q, k, pa[pure])
        moved = [took]
        search = go & ~pure
        cols, step = active[search], step[search]
        bar = f[cols] - 1e-15 * scale[search]
        t = 1.0
        for _ in range(40):
            if cols.size == 0:
                break
            cand = np.maximum(x[cols] + t * step, 0.0)
            fc = _surrogate(cand, N[cols], E[cols], Q, k, pos[cols])
            ok = fc < bar
            acc = cols[ok]
            x[acc], f[acc] = cand[ok], fc[ok]
            moved.append(acc)
            cols, step, bar = cols[~ok], step[~ok], bar[~ok]
            t *= 0.5
        active = np.concatenate(moved)
        if active.size == 0:
            break
    return x, 0, 0, 0


@pytest.mark.parametrize("case", ["mle_exp_low_rank", "mle_ode", "tvhp"])
def test_one_newton_step_reaches_the_inner_solve_optimum(golden, monkeypatch, case):
    corpora, _ = golden
    got = CASES[case](corpora, max_iters=5000, tol=1e-13)
    monkeypatch.setattr(learn, "_newton_step", _inner_solve)
    want = CASES[case](corpora, max_iters=5000, tol=1e-13)
    assert got["iterations"] < 5000 and want["iterations"] < 5000
    f_got, f_want = got["trace"][-1], want["trace"][-1]
    assert abs(f_got - f_want) <= 1e-12 * abs(f_want)
    A_got, A_want = np.asarray(got["A"]), np.asarray(want["A"])
    assert np.abs(A_got - A_want).max() <= 1e-5 * np.abs(A_want).max()


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or not CASES.keys() >= set(sys.argv[2:]):
        sys.exit("usage: PYTHONPATH=src python tests/test_em_equivalence.py --write [CASE ...]"
                 f"\ncases: {' '.join(CASES)}")
    _write_golden(sys.argv[2:])
