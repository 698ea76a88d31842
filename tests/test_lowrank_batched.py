"""The low-rank M-step on the shared projected Newton against the per-column
solve it replaced.

``_mstep_lowrank`` majorizes the nuclear norm by k/2 tr(B' M^-1 B) and hands
all D target columns A[:, :, u] to ``_projected_newton`` at once, with
Q = M^-1.  The reference below is one projected Newton per target column
with its own Kronecker Hessian, line search and the shared solver's rules:
the same 30-iteration cap, entries at zero with a positive gradient held
out of the Newton system, a stop on step size, full Newton steps near the
optimum and backtracking elsewhere.  Both minimize the same convex
surrogate from the same start, so the shared solve must agree with the
reference to 1e-9 of its scale, and no column's surrogate may exceed the
reference's by more than 1e-12 relative.  The weights include k = 0.3,
which is not a power of two: there k * (Q b) and (k Q) b round differently.

Where every entry that starts positive has attributions (N > 0), as in EM
wherever the contraction is positive, the solve must also reach the
optimum: the projected gradient within 1e-8 of the gradient's terms.  A
positive entry without attributions can stall the solve short of it
(marked xfail below).
"""

import numpy as np
import pytest

from hawkeskit.learn import Penalty, _mstep


def ref_lowrank_column(Ncol, Gcol, x0, Q, k):
    """Minimize sum(-N log x + G x) + 0.5 k b'Qb over x >= 0, b = x.sum(axis=0).

    Ncol, Gcol and x0 have shape (C, D).  Projected Newton with the shared
    solver's rules: entries at zero with a positive gradient stay there; stop
    when the Newton step is below 1e-13 of the column's largest entry; take
    a feasible full step untested when its predicted decrease is within 1e-9
    of the objective; else backtrack and accept only a decrease by more than
    1e-15 of the objective.
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
        free = ((x > 0) | (grad <= 0)).ravel()
        H = np.kron(np.ones((C, C)), k * Q) + np.diag(curv.ravel() + 1e-12)
        step = np.zeros(C * D)
        try:
            step[free] = np.linalg.solve(H[np.ix_(free, free)], -grad.ravel()[free])
        except np.linalg.LinAlgError:
            step[free] = -grad.ravel()[free]
        step = step.reshape(C, D)
        if np.abs(step).max() <= 1e-13 * max(1.0, x.max()):
            break
        full = x + step
        if (-0.5 * float(grad.ravel() @ step.ravel()) <= 1e-9 * max(1.0, abs(f))
                and np.all(np.where(Ncol > 0, full > 0, full >= 0))):
            x, f = full, obj(full)
            continue
        margin = 1e-15 * max(1.0, abs(f))
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


def make_problem(D, C, seed, dense=False):
    """An EM-shaped problem: warm start A with exact zeros, exposures G, and
    attributions N = A * S, so N is zero wherever A is and, unless
    ``dense``, wherever the contraction S is."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 0.3, size=(C, D, D)) * (rng.uniform(size=(C, D, D)) > 0.25)
    S = rng.gamma(2.0, 20.0, size=(C, D, D))
    S *= rng.uniform(size=(C, D, D)) > (0.0 if dense else 0.2)
    G = rng.uniform(5.0, 50.0, size=(C, D))
    return A * S, G, A


def kkt_residual(x, N, E, g_quad):
    """Largest projected gradient of sum(-N log x + E x) + quadratic over
    x >= 0, per entry relative to the largest term of its gradient;
    ``g_quad`` is the quadratic's gradient."""
    inv = np.where(N > 0, N / np.maximum(x, 1e-300), 0.0)
    grad = E + g_quad - inv
    pg = np.where(x > 0, grad, np.minimum(grad, 0.0))
    return float(np.max(np.abs(pg) / np.maximum(np.abs(E) + np.abs(g_quad) + inv, 1e-300)))


def worst_kkt(N, G, A, k):
    Q = trace_bound_inverse(A)
    got = _mstep(N, G, A.copy(), Penalty("low_rank", k))
    return max(kkt_residual(got[:, :, u], N[:, :, u], G, k * (Q @ got[:, :, u].sum(axis=0)))
               for u in range(A.shape[2]))


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
@pytest.mark.parametrize("D", [1, 2, 5])
def test_kkt_holds_where_every_positive_start_has_attributions(D, C, k):
    # as in EM wherever every contraction entry S is positive
    for seed in range(3):
        N, G, A = make_problem(D, C, seed=100 * D + 10 * C + seed, dense=True)
        assert worst_kkt(N, G, A, k) <= 1e-8


@pytest.mark.xfail(strict=True, reason="a positive entry with N = 0 stalls the solve")
def test_kkt_where_positive_starts_lack_attributions():
    # such an entry has no curvature of its own, so trading it against the
    # same source in another block is a direction of curvature 1e-12: the
    # Newton step is huge there, and no halving of it lowers the surrogate
    worst = max(worst_kkt(*make_problem(D, C, seed=100 * D + 10 * C + seed), k)
                for D in (1, 2, 5) for C in (1, 3) for k in (0.5, 0.3, 2.0)
                for seed in range(3))
    assert worst <= 1e-8


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
    # the 30-iteration cap ends far from the optimum.  What holds is descent
    # from the restart.
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
