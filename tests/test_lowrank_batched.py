"""The low-rank M-step on the shared projected Newton against the per-column
solve it replaced.

``_mstep_lowrank`` majorizes the nuclear norm by k/2 tr(B' M^-1 B) and hands
all D target columns A[:, :, u] to ``_projected_newton`` at once, with
Q = M^-1.  The reference below is the former implementation: one projected
Newton per target column with its own Kronecker Hessian, line search and a
30-iteration cap.  Both minimize the same convex surrogate from the same
start, so the shared solve must agree with the reference to 1e-9 of its
scale, and no column's surrogate may exceed the reference's by more than
1e-12 relative.  The weights include k = 0.3, which is not a power of two:
there k * (Q b) and (k Q) b round differently.  Where B is rank deficient,
Q reaches 1e13 and the surrogate's own rounding decides which steps are
accepted, so these bounds hold only while the shared solve keeps the
reference's order of products.
"""

import numpy as np
import pytest

from hawkeskit.learn import Penalty, _mstep


def ref_lowrank_column(Ncol, Gcol, x0, Q, k):
    """Minimize sum(-N log x + G x) + 0.5 k b'Qb over x >= 0, b = x.sum(axis=0).

    Ncol, Gcol and x0 have shape (C, D).  Projected Newton with backtracking;
    never accepts an increase.
    """
    C, D = Ncol.shape
    x = np.maximum(x0, 0.0)
    bad = (Ncol > 0) & (x <= 0)
    x[bad] = 1e-12

    def obj(xx):
        if np.any(xx[Ncol > 0] <= 0):
            return np.inf
        with np.errstate(divide="ignore"):
            logs = np.where(Ncol > 0, -Ncol * np.log(np.maximum(xx, 1e-300)), 0.0)
        b = xx.sum(axis=0)
        return float(logs.sum() + (Gcol * xx).sum() + 0.5 * k * b @ Q @ b)

    f = obj(x)
    for _ in range(30):
        b = x.sum(axis=0)
        grad = Gcol + k * (Q @ b)[None, :]
        grad = grad - np.where(Ncol > 0, Ncol / np.maximum(x, 1e-300), 0.0)
        curv = np.where(Ncol > 0, Ncol / np.maximum(x * x, 1e-300), 0.0)
        H = np.kron(np.ones((C, C)), k * Q) + np.diag(curv.ravel() + 1e-12)
        try:
            step = np.linalg.solve(H, -grad.ravel()).reshape(C, D)
        except np.linalg.LinAlgError:
            step = -grad
        margin = 1e-15 * max(1.0, abs(f))
        if -0.5 * float(grad.ravel() @ step.ravel()) <= margin:
            break
        improved = False
        t = 1.0
        for _ in range(40):
            cand = np.clip(x + t * step, 0.0, None)
            fc = obj(cand)
            if fc < f - margin:
                x, f = cand, fc
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return x


def trace_bound_inverse(A):
    """M_eps^-1 of the variational nuclear-norm bound at the iterate A."""
    B = A.sum(axis=0)
    d, V = np.linalg.eigh(B @ B.T)
    sig = np.sqrt(np.maximum(d, 0.0))
    eps = 1e-13 * max(float(sig.max()), 1e-3)
    return (V / np.maximum(sig, eps)[None, :]) @ V.T


def ref_mstep(N, G, A, k):
    Q = trace_bound_inverse(A)
    out = np.empty_like(N)
    for u in range(A.shape[2]):
        out[:, :, u] = ref_lowrank_column(N[:, :, u], G, A[:, :, u], Q, k)
    return out, Q


def surrogate(x, N, G, Q, k):
    with np.errstate(divide="ignore"):
        logs = np.where(N > 0, -N * np.log(np.maximum(x, 1e-300)), 0.0)
    b = x.sum(axis=0)
    return float(logs.sum() + (G * x).sum() + 0.5 * k * b @ Q @ b)


def make_problem(D, C, seed):
    """An EM-shaped problem: warm start A with exact zeros, exposures G, and
    attributions N = A * S, so N is zero wherever A is and wherever the
    contraction S is."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 0.3, size=(C, D, D)) * (rng.uniform(size=(C, D, D)) > 0.25)
    S = rng.gamma(2.0, 20.0, size=(C, D, D)) * (rng.uniform(size=(C, D, D)) > 0.2)
    G = rng.uniform(5.0, 50.0, size=(C, D))
    return A * S, G, A


def check_against_reference(N, G, A, k):
    want, Q = ref_mstep(N, G, A, k)
    got = _mstep(N, G, A.copy(), Penalty("low_rank", k))
    assert got.shape == A.shape
    assert np.all(got >= 0.0)
    scale = max(float(np.abs(want).max()), 1e-300)
    assert np.max(np.abs(got - want)) <= 1e-9 * scale
    for u in range(A.shape[2]):
        args = (N[:, :, u], G, Q, k)
        f_got, f_want = surrogate(got[:, :, u], *args), surrogate(want[:, :, u], *args)
        assert f_got <= f_want + 1e-12 * abs(f_want)


@pytest.mark.parametrize("k", [0.5, 0.3, 2.0])
@pytest.mark.parametrize("C", [1, 3])
@pytest.mark.parametrize("D", [1, 2, 5])
def test_shared_solver_matches_per_column_reference(D, C, k):
    for seed in range(3):
        N, G, A = make_problem(D, C, seed=100 * D + 10 * C + seed)
        check_against_reference(N, G, A, k)


@pytest.mark.parametrize("k", [0.5, 0.3, 2.0])
@pytest.mark.parametrize("C", [1, 3])
def test_columns_without_attributions_and_zero_starts(C, k):
    # as in EM, an entry that starts at zero gets no attributions (N = A * S)
    D = 3
    N, G, A = make_problem(D, C, seed=7)
    N[:, :, 0] = 0.0  # no attributions: the column decays to zero
    A[:, :, 1] = 0.0  # a column that starts and stays at zero
    N[:, :, 1] = 0.0
    A[:, 0, 2] = 0.0  # and a source row of a live column
    N[:, 0, 2] = 0.0
    check_against_reference(N, G, A, k)


@pytest.mark.parametrize("C", [1, 3])
def test_all_zero_start(C):
    # B = 0 gives M_eps = eps I, the bound's largest weight on the quadratic
    N, G, A = make_problem(3, C, seed=9)
    check_against_reference(np.zeros_like(N), G, np.zeros_like(A), 0.3)


def test_restart_at_zero_against_its_barrier_descends():
    # N > 0 where the start is zero never arises in EM; both solvers restart
    # such entries at 1e-12, from where a Newton step about doubles them, so
    # the 12-iteration cap ends far from the optimum (the reference's 30 get
    # close).  What holds is descent from the restart.
    C, D, k = 2, 3, 0.3
    N, G, A = make_problem(D, C, seed=11)
    A[:, :, 1] = 0.0
    N[:, :, 1] = np.linspace(1.0, 6.0, C * D).reshape(C, D)
    Q = trace_bound_inverse(A)
    got = _mstep(N, G, A.copy(), Penalty("low_rank", k))
    start = np.where(N[:, :, 1] > 0, 1e-12, 0.0)
    assert np.all(got[:, :, 1] > start)
    args = (N[:, :, 1], G, Q, k)
    assert surrogate(got[:, :, 1], *args) < surrogate(start, *args)
