"""Learners: penalized EM for any kernel's coefficients, a smoothness-penalized
EM for step kernels on a lag grid, and binned least squares.

fit_mle, fit_mle_ode, and (in analyze) fit_tvhp and cluster_mixture run one
EM loop, ``_fit_from_stats``, over one statistics class, ``_EmStats``.  The
statistics hold per-event excitation features R, stored event-major as
(n, C·D) with column c·D + v for channel c and source v, and per-sequence
exposures G (n_seq, C, D).  For a kernel's coefficients both come from
``core``: R is ``core._excitation`` at the events, the features intensity
grids read too, and G is ``core._exposures``; TVHP builds its own with one
channel per grid node.  The events are stored sorted by mark, so each
target's events are one row block of R: the intensities of a target's
events are one matrix-vector product with its coefficients, and its
attribution totals one vector-matrix product, O(n·C·D) per E-step.  An
expectation pass attributes each event to the baseline or to one past
event; the attribution totals N feed the learner's minimization step, which
is passed to the loop together with the matching penalty term of the
recorded objective: a structural penalty (``_mstep``) or a quadratic
roughness (``_Roughness``).  The group-sparse step is closed form per entry,
from a bound made separable by De Pierro's weighting.  Where the step is a
convex quadratic plus sum(-N log x + E x) over x >= 0, as under the low-rank
trace bound and every roughness penalty, one batched projected Newton,
``_projected_newton``, solves all columns at once; it ends in full Newton
steps and a stop on step size, so its result moves by rounding when its
inputs do.  Each step minimizes or lowers a majorizer, which keeps the
recorded objective nonincreasing up to the rounding of full Newton steps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    DiscretizedKernel,
    EventSequence,
    HawkesError,
    HawkesModel,
    KernelSpec,
    ValidationError,
    _check_int,
    _check_real,
    _excitation,
    _expected_coeff_shape,
    _exposures,
    branching_matrix,
    kernel_lag_averages,
)
from ._util import make_rng

if TYPE_CHECKING:
    from .analyze import TvhpModel

_PENALTY_KINDS = ("none", "sparse", "group_sparse", "low_rank")

# ``_projected_newton``, the M-step of low rank and of every roughness
# penalty: its iteration cap, backtracking halvings, the relative margin by
# which a backtracked step must lower a column's surrogate to be accepted,
# the step size (relative to the column's largest entry) below which a
# column stops, and the predicted decrease (relative to the surrogate) below
# which a feasible full step is taken untested
_NEWTON_ITERS = 30
_NEWTON_HALVINGS = 40
_ACCEPT_RTOL = 1e-15
_STEP_RTOL = 1e-13
_PURE_RTOL = 1e-9


class RankDeficiencyError(HawkesError):
    """The least-squares normal equations are singular without ridge."""


@dataclass(frozen=True)
class Penalty:
    kind: str = "none"
    weight: float = 0.0

    def __post_init__(self):
        if self.kind not in _PENALTY_KINDS:
            raise ValidationError(
                f"penalty kind {self.kind!r} not one of {_PENALTY_KINDS}"
            )
        _check_real("penalty weight", self.weight, 0)


@dataclass(frozen=True)
class LearnConfig:
    max_iters: int = 200
    tol: float = 1e-6
    penalty: Penalty = Penalty()
    rng_seed: int = 0

    def __post_init__(self):
        _check_int("max_iters", self.max_iters, 1)
        _check_int("rng_seed", self.rng_seed, 0)
        _check_real("tol", self.tol, 0, above=True)


@dataclass
class FitReport:
    """What a learner returns; ``model`` is a ``TvhpModel`` from ``fit_tvhp``."""

    model: HawkesModel | TvhpModel
    objective_trace: tuple[float, ...]
    converged: bool
    iterations: int
    details: dict = field(default_factory=dict)


def _em_report(model, trace, converged, **details) -> FitReport:
    """An EM learner's report: one trace entry per iteration after the first."""
    return FitReport(model, tuple(trace), converged, len(trace) - 1, details)


class _Converge:
    """Declares convergence after 3 consecutive small relative changes."""

    def __init__(self, tol: float):
        self.tol = tol
        self.streak = 0

    def step(self, prev: float, new: float) -> bool:
        rel = abs(new - prev) / max(abs(prev), 1.0)
        self.streak = self.streak + 1 if rel < self.tol else 0
        return self.streak >= 3


# ---------------------------------------------------------------------------
# sufficient statistics and the EM loop shared by every EM learner


class _EmStats:
    """Per-corpus quantities that never change across EM iterations.

    ``features(seq)`` returns one sequence's features R (n, C·D) and
    exposures G (C, D), so that lambda_j = mu[u_j] + sum_{c,v} A[c,v,u_j] *
    R[j, c·D + v] and the compensator is T * sum(mu) + sum_{c,v,u} A[c,v,u] *
    G[c,v].  Exposures and durations are stored per sequence so callers can
    reweight sequences without recomputation.

    Events are stored sorted by mark (a stable sort of the corpus order), so
    the events of target u fill one row block ``R[a:b]``; ``blocks`` lists
    (u, a, b) for every mark that has events.  ``R``, ``marks`` and
    ``seq_idx`` are all in that order.  Marks never change during a fit, so
    every E-step works block by block: one matrix-vector product per target.
    """

    def __init__(self, corpus, features):
        if len(corpus) == 0:
            raise ValidationError("corpus is empty")
        self.dim = D = corpus.dim
        parts = [features(seq) for seq in corpus]
        self.G_s = np.stack([G for _, G in parts])
        self.C = self.G_s.shape[1]
        marks = np.concatenate([seq.marks for seq in corpus])
        order = np.argsort(marks, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        # each sequence's rows go to their sorted places, and each block is
        # dropped once written, so the build holds at most two copies of R
        self.R = np.empty((order.size, parts[0][0].shape[1]))
        start = 0
        for i, seq in enumerate(corpus):
            self.R[rank[start:start + len(seq)]] = parts[i][0]
            parts[i] = None
            start += len(seq)
        self.T_s = np.array([seq.duration for seq in corpus], dtype=np.float64)
        self.counts_s = np.stack(
            [np.bincount(seq.marks, minlength=D) for seq in corpus]
        ).astype(np.float64)
        self.marks = marks[order]
        self.seq_idx = np.repeat(np.arange(len(corpus)), [len(seq) for seq in corpus])[order]
        counts = np.bincount(marks, minlength=D)
        ends = np.cumsum(counts)
        self.blocks = [(int(u), int(ends[u] - counts[u]), int(ends[u]))
                       for u in np.flatnonzero(counts)]

    def weighted(self, weights: np.ndarray | None):
        n_seq = self.T_s.size
        w = np.ones(n_seq) if weights is None else np.asarray(_check_real("weights", weights, 0))
        if w.shape != (n_seq,):
            raise ValidationError(f"weights must hold one entry per sequence ({n_seq}), "
                                  f"got shape {w.shape}")
        G = np.einsum("s,scv->cv", w, self.G_s)
        T_w = float(w @ self.T_s)
        counts_w = w @ self.counts_s
        ev_w = w[self.seq_idx]
        return G, T_w, counts_w, ev_w

    def rates(self, mu: np.ndarray, A: np.ndarray) -> np.ndarray:
        """Event intensities lambda_j under coefficients A of shape (C, D, D).

        Row u of At holds target u's coefficients in R's column order, so
        each target's block is one matrix-vector product.
        """
        At = np.ascontiguousarray(A.reshape(self.R.shape[1], self.dim).T)
        lam = np.empty(self.R.shape[0])
        for u, a, b in self.blocks:
            lam[a:b] = mu[u] + self.R[a:b] @ At[u]
        return lam

    def contract(self, w: np.ndarray) -> np.ndarray:
        """S[c, v, u] = sum_j R[j, c·D + v] * w[j] * [u_j = u], shape (C, D, D).

        One vector-matrix product per target's block, w[a:b] @ R[a:b]: R is
        read once, O(n·C·D), and marks without events give zero columns.
        """
        S = np.zeros((self.R.shape[1], self.dim))
        for u, a, b in self.blocks:
            S[:, u] = w[a:b] @ self.R[a:b]
        return S.reshape(self.C, self.dim, self.dim)

    def nll(self, mu, A, lam, ev_w, G, T_w) -> float:
        # the 1e-300 floor is the one guard against zero intensity at an event.
        # numpy's pairwise sum errs by about log2(n) * 2**-53 * sum|x|, far
        # below the 1e-12 at which traces are compared; the objective feeds
        # only the recorded trace and the tolerance stop, never mu or A
        logs = np.where(ev_w > 0, np.log(np.maximum(lam, 1e-300)), 0.0)
        comp = T_w * float(mu.sum()) + float(np.einsum("cvu,cv->", A, G))
        return -float((ev_w * logs).sum()) + comp

    def per_seq_loglik(self, mu, A) -> np.ndarray:
        lam = self.rates(mu, A)
        n_seq = self.T_s.size
        logs = np.bincount(
            self.seq_idx, weights=np.log(np.maximum(lam, 1e-300)), minlength=n_seq
        )
        comp = self.T_s * mu.sum() + np.einsum("cvu,scv->s", A, self.G_s)
        return logs - comp


def _kernel_stats(corpus, kernel: KernelSpec) -> _EmStats:
    """Statistics for EM on a kernel's coefficients, C = n_components."""
    return _EmStats(corpus, lambda seq: (_excitation(kernel, seq), _exposures(kernel, seq)))


def _check_corpus_dim(dim: int, corpus) -> None:
    if corpus.dim != dim:
        raise ValidationError(f"model dimension {dim} != corpus dimension {corpus.dim}")


def _init_params(stats: _EmStats, seed: int, scale: float):
    """Half the empirical rates as baselines; coefficients uniform on [0, scale)."""
    _, T_w, counts_w, _ = stats.weighted(None)
    mu0 = 0.5 * counts_w / max(T_w, 1e-300)
    rng = make_rng(seed)
    A0 = rng.uniform(0.0, scale, size=(stats.C, stats.dim, stats.dim))
    return mu0, A0


def _fit_from_stats(stats: _EmStats, cfg: LearnConfig, init, mstep, penalty,
                    weights=None, max_iters=None):
    """The EM loop of every learner; returns (mu, A, trace, converged).

    ``mstep(N, G, A)`` minimizes the attribution surrogate sum(-N log A + A G)
    plus the penalty from the current A, which it may overwrite;
    ``penalty(A)`` is the penalty term of the recorded objective.
    """
    D = stats.dim
    G, T_w, _, ev_w = stats.weighted(weights)
    if T_w <= 0:
        raise ValidationError("total weighted observation time is zero")
    mu = np.array(init[0], dtype=np.float64)
    A = np.array(init[1], dtype=np.float64)
    iters = max_iters if max_iters is not None else cfg.max_iters

    lam = stats.rates(mu, A)
    obj = stats.nll(mu, A, lam, ev_w, G, T_w) + penalty(A)
    if not math.isfinite(obj):
        raise ValidationError(f"the starting objective is {obj}: its terms overflow floats")
    trace = [obj]
    checker = _Converge(cfg.tol)
    converged = False
    for _ in range(iters):
        wl = ev_w / np.maximum(lam, 1e-300)
        base = np.bincount(stats.marks, weights=wl * mu[stats.marks], minlength=D)
        N = A * stats.contract(wl)
        mu = base / T_w
        A = mstep(N, G, A)
        lam = stats.rates(mu, A)
        obj_new = stats.nll(mu, A, lam, ev_w, G, T_w) + penalty(A)
        trace.append(obj_new)
        if checker.step(obj, obj_new):
            converged = True
            break
        obj = obj_new
    return mu, A, trace, converged


def _penalty_value(pen: Penalty, A: np.ndarray) -> float:
    if pen.kind == "none" or pen.weight == 0.0:
        return 0.0
    B = A.sum(axis=0)
    if pen.kind == "sparse":
        return pen.weight * float(B.sum())
    if pen.kind == "group_sparse":
        return pen.weight * float(np.linalg.norm(B, axis=1).sum())
    return pen.weight * float(np.linalg.svd(B, compute_uv=False).sum())


def _mstep(N: np.ndarray, G: np.ndarray, A_old: np.ndarray, pen: Penalty) -> np.ndarray:
    """Lower the attribution surrogate plus penalty over A >= 0.

    N and A have shape (C, D, D); G has shape (C, D) and broadcasts over the
    target axis.  The surrogate is sum(-N log A + A G).  No penalty and
    sparse are solved exactly; low rank and group sparse are majorized at
    A_old and the bound minimized, or for group sparse with C > 1 lowered,
    so the outer penalized objective cannot increase.
    """
    Gb = np.broadcast_to(G[:, :, None], N.shape)
    if pen.kind == "none" or pen.weight == 0.0:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(N > 0, N / np.maximum(Gb, 1e-300), 0.0)
    k = pen.weight
    if pen.kind == "sparse":
        return N / (Gb + k)
    if pen.kind == "group_sparse":
        return _mstep_group(N, Gb, A_old, k)
    return _mstep_lowrank(N, Gb, A_old, k)


def _mstep_group(N, Gb, A_old, k):
    # majorize k*||B_v|| by its tangent quadratic 0.5*q_v*||B_v||^2 at the
    # current row norms, and each (sum_c x_c)^2 by sum_c (b0 / x0_c) x_c^2
    # (equal at A_old); every entry is then the positive root of
    # d x^2 + G x - N = 0 with d = q_v b0 / x0_c, and N = 0 wherever A_old
    # is.  d N is formed through N / A_old, which stays finite as A_old -> 0
    B_old = A_old.sum(axis=0)
    q = k / np.maximum(np.linalg.norm(B_old, axis=1), 1e-12)  # (D,)
    with np.errstate(invalid="ignore", divide="ignore"):
        dN = q[:, None] * B_old * (N / A_old)
        x = 2.0 * N / (Gb + np.sqrt(Gb * Gb + 4.0 * dN))
    return np.where(N > 0, x, 0.0)


def _mstep_lowrank(N, Gb, A_old, k):
    # variational trace bound of the nuclear norm: with M from the current
    # iterate, k*||B||_* <= k/2 (tr(B' M^-1 B) + tr(M)); the quadratic couples
    # the rows of each target column u, so column u is x = A[:, :, u], C
    # blocks over the D sources with b = B[:, u], and Q = M^-1
    B_old = A_old.sum(axis=0)
    S = B_old @ B_old.T
    d, V = np.linalg.eigh(S)
    sig = np.sqrt(np.maximum(d, 0.0))
    eps = 1e-13 * max(float(sig.max()), 1e-3)
    Q = (V / np.maximum(sig, eps)[None, :]) @ V.T  # M_eps^{-1}, symmetric PD
    cols = partial(np.transpose, axes=(2, 0, 1))
    x = _projected_newton(cols(A_old), cols(N), cols(Gb), Q, k)[0]
    return np.ascontiguousarray(x.transpose(1, 2, 0))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] . b[i] for each row of (m, n) arrays, one BLAS dot per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _surrogate(x, N, E, Q, k, pos):
    """Column surrogates of x (m, C, K); inf where x leaves the log's domain.

    ``pos`` is the mask N > 0, built once per solve.
    """
    logs = np.where(pos, -N * np.log(np.maximum(x, 1e-300)), 0.0)
    b = x.sum(axis=1)
    bQ = np.matmul((0.5 * k * b)[:, None, :], Q)[:, 0, :]
    f = logs.sum(axis=(1, 2)) + (E * x).sum(axis=(1, 2)) + _rowdot(bQ, b)
    f[(pos & (x <= 0)).any(axis=(1, 2))] = np.inf
    return f


def _projected_newton(x, N, E, Q, k):
    """Minimize sum(-N log x + E x) + 0.5 k b'Qb over x >= 0, per column.

    x, N and E have shape (m, C, K): m independent columns of C blocks over
    K rows, with b = x[i].sum(axis=0), so a column's Hessian is
    kron(11', kQ) + diag(curvature).  Starting from x, an iteration solves
    every active column's Newton system in one batched call, over the
    entries that are not held at zero (an entry at zero whose gradient is
    positive stays there, the active set of a projected Newton), then per
    column:

    - stops it when the Newton step s is below rounding of the column,
      max|s| <= 1e-13 * max(1, max|x|);
    - near the optimum, where the predicted decrease -0.5 g's is within
      1e-9 * max(1, |f|) and x + s stays feasible, takes the full step with
      no function-value test (a pure Newton step);
    - otherwise backtracks from the full step, accepting only a step that
      lowers the surrogate by 1e-15 of its value, and drops the column when
      no step does.

    Near the optimum a column ends in pure steps and the step-size stop,
    and neither compares two surrogate values that agree to rounding, so
    the result is a continuous function of N, E and x: inputs that differ
    by rounding give results that differ by rounding.  A pure step is a
    Newton step where the quadratic model holds, so it lowers the surrogate
    up to rounding, and the EM objective trace stays nonincreasing within
    the 1e-10 relative slack its checks allow.  Each column's products round
    as in a per-column solve: k * (Q b) in the gradient, ((k/2) b Q) . b in
    the surrogate, one dot for the predicted decrease.

    Returns (x, clamps, newton_steps, objective_evals), the counts summed
    over columns: entries pinned at zero from below, steps taken, and
    surrogate evaluations (each column's starting value and each pure step
    included).
    """
    m, C, K = x.shape
    # C order, so that every sum over a column's entries runs in one order
    N = np.ascontiguousarray(N)
    E = np.ascontiguousarray(E)
    x = np.maximum(np.ascontiguousarray(x), 0.0)
    # constants of the solve, built once: the log terms' support and the
    # Hessian's coupling and diagonal
    pos = N > 0
    kQ = np.tile(k * Q, (C, C))  # kron(11', kQ)
    eye = np.eye(C * K)
    # restart entries an earlier clamp left at zero against their log barrier
    x[pos & (x <= 0)] = 1e-12
    f = _surrogate(x, N, E, Q, k, pos)
    evals, clamps, steps = m, 0, 0
    active = np.arange(m)
    for _ in range(_NEWTON_ITERS):
        xa, Na, pa = x[active], N[active], pos[active]
        grad = E[active] + k * np.matmul(Q, xa.sum(axis=1)[:, :, None]).transpose(0, 2, 1)
        grad = grad - np.where(pa, Na / np.maximum(xa, 1e-300), 0.0)
        curv = np.where(pa, Na / np.maximum(xa * xa, 1e-300), 0.0)
        # held entries get a unit diagonal, no coupling and a zero step
        free = ((xa > 0) | (grad <= 0)).reshape(-1, C * K)
        H = kQ * (free[:, :, None] & free[:, None, :])
        H += np.where(free, curv.reshape(-1, C * K) + 1e-12, 1.0)[:, :, None] * eye
        step = _newton_directions(H, np.where(free, grad.reshape(-1, C * K), 0.0))
        step = np.where(free, step, 0.0).reshape(grad.shape)
        scale = np.maximum(1.0, np.abs(f[active]))
        go = np.abs(step).max(axis=(1, 2)) > _STEP_RTOL * np.maximum(1.0, xa.max(axis=(1, 2)))
        full = xa + step
        decrease = -0.5 * _rowdot(grad.reshape(-1, C * K), step.reshape(-1, C * K))
        pure = go & (decrease <= _PURE_RTOL * scale)
        pure &= np.where(pa, full > 0, full >= 0).all(axis=(1, 2))
        took = active[pure]
        if took.size:
            x[took] = full[pure]
            f[took] = _surrogate(full[pure], Na[pure], E[took], Q, k, pa[pure])
            evals += took.size
        moved = [took]
        search = go & ~pure
        cols, step = active[search], step[search]
        bar = f[cols] - _ACCEPT_RTOL * scale[search]
        t = 1.0
        for _ in range(_NEWTON_HALVINGS):
            if cols.size == 0:
                break
            cand = x[cols] + t * step
            low = cand < 0
            cand[low] = 0.0
            fc = _surrogate(cand, N[cols], E[cols], Q, k, pos[cols])
            evals += cols.size
            ok = fc < bar
            acc = cols[ok]
            x[acc], f[acc] = cand[ok], fc[ok]
            clamps += int(np.count_nonzero(low[ok] & (N[acc] == 0)))
            moved.append(acc)
            cols, step, bar = cols[~ok], step[~ok], bar[~ok]
            t *= 0.5
        active = np.concatenate(moved)
        steps += active.size
        if active.size == 0:
            break
    return x, clamps, steps, evals


def _newton_directions(H: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve H[k] s[k] = -grad[k] for a (m, n, n) stack; -grad where H[k] is singular."""
    try:
        # b as (m, n, 1): stacked-matrix semantics under numpy 1.x and 2.x alike
        return np.linalg.solve(H, -grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        step = -grad
        for k in range(len(H)):
            try:
                step[k] = np.linalg.solve(H[k], -grad[k])
            except np.linalg.LinAlgError:
                pass
        return step


def _structural(pen: Penalty):
    """fit_mle's (M-step, penalty term) pair for a structural penalty."""
    return partial(_mstep, pen=pen), partial(_penalty_value, pen)


def fit_mle(
    corpus,
    kernel_template: KernelSpec,
    cfg: LearnConfig | None = None,
    weights=None,
    init=None,
) -> FitReport:
    """Penalized maximum likelihood for exponential, basis or grid kernels.

    Kernel hyperparameters (decay; centers, bandwidth and support; dt and
    n_lags) are fixed; only the baseline rates and the nonnegative
    coefficients are estimated.  For a grid kernel these are the step values,
    and the structural penalties act on their sum over lags.
    ``weights`` (one >= 0 per sequence) scale each sequence's log-likelihood
    term: a weight of 2 counts it twice and 0 drops it.  ``init`` may carry
    (mu0, A0) to warm-start, with A0 in the fitted model's layout, e.g. a
    previous fit's ``model.mu`` and ``model.A``.

    The objective floors each event's intensity at 1e-300, so an event with
    zero intensity adds ``-log(1e-300)`` (about 690.8) to the negative
    log-likelihood; ``core.log_likelihood`` returns ``-inf`` for it.
    """
    cfg = cfg or LearnConfig()
    layout = _expected_coeff_shape(kernel_template, corpus.dim)
    stats = _kernel_stats(corpus, kernel_template)
    if init is None:
        init = _init_params(stats, cfg.rng_seed, 0.1 / stats.dim)
    else:
        init = _warm_start(stats, layout, init)
    mu, A, trace, converged = _fit_from_stats(
        stats, cfg, init, *_structural(cfg.penalty), weights=weights
    )
    model = HawkesModel(mu=mu, kernel=kernel_template, A=A.reshape(layout))
    return _em_report(model, trace, converged)


def _warm_start(stats: _EmStats, want: tuple[int, ...], init):
    """(mu0, A0) given in the model's layout ``want``, as the loop's (C, D, D)."""
    try:
        mu0, A0 = init
    except (TypeError, ValueError) as exc:
        raise ValidationError("init must be a pair (mu0, A0)") from exc
    mu0 = np.asarray(_check_real("init mu0", mu0, 0))
    A0 = np.asarray(_check_real("init A0", A0, 0))
    D = stats.dim
    if mu0.shape != (D,) or A0.shape != want:
        raise ValidationError(
            f"init shapes {mu0.shape} and {A0.shape}, expected {(D,)} and {want}"
        )
    return mu0, A0.reshape(stats.C, D, D)


def exp_nll_and_grad(model: HawkesModel, corpus):
    """Negative log-likelihood and its exact gradient, for every kernel.

    Returns (nll, grad_mu, grad_A), with grad_A in the layout of ``model.A``.
    The objective floors event intensities at 1e-300; events with zero
    intensity give undefined gradient entries, so callers keep parameters
    strictly positive.
    """
    _check_corpus_dim(model.dim, corpus)
    stats = _kernel_stats(corpus, model.kernel)
    G, T_w, _, ev_w = stats.weighted(None)
    A = model.coeffs
    lam = stats.rates(model.mu, A)
    nll = stats.nll(model.mu, A, lam, ev_w, G, T_w)
    inv = 1.0 / lam
    grad_mu = T_w - np.bincount(stats.marks, weights=inv, minlength=model.dim)
    grad_A = (G[:, :, None] - stats.contract(inv)).reshape(model.A.shape)
    return nll, grad_mu, grad_A


# ---------------------------------------------------------------------------
# discretized-kernel EM with curvature smoothing


def _diff_gram(L: int, order: int) -> np.ndarray:
    """Gram matrix of the order-th difference operator on L grid values."""
    Dk = np.diff(np.eye(L), n=order, axis=0)
    return Dk.T @ Dk


class _Roughness:
    """Quadratic roughness 0.5 * sum_{v,u} A[:, v, u]' P A[:, v, u] along the
    channel axis, with its M-step: ``_projected_newton`` over the D² columns
    A[:, v, u], each a single block (C = 1) with E = G[:, v], Q = P and k = 1.
    Each column starts at the warm start A[:, v, u] or at N/E (zero where
    N = 0), the minimizer without the penalty, whichever has the lower
    surrogate; a non-finite surrogate loses and a tie keeps the warm start.
    Where the log terms outweigh the penalty N/E lies a step or two from the
    optimum; where the penalty dominates the warm start wins.

    Counters, summed over columns and M-steps: ``clamps`` entries pinned at
    zero from below, ``newton_steps`` accepted steps, ``objective_evals``
    surrogate evaluations (each column's starting value included, the
    comparison of the two starts not).
    """

    def __init__(self, P: np.ndarray):
        self.P = P
        self.clamps = 0
        self.newton_steps = 0
        self.objective_evals = 0

    def value(self, A: np.ndarray) -> float:
        return 0.5 * float(np.einsum("cvu,ck,kvu->", A, self.P, A))

    def counters(self) -> dict:
        return {
            "clamp_count": self.clamps,
            "newton_steps": self.newton_steps,
            "objective_evals": self.objective_evals,
        }

    def mstep(self, N: np.ndarray, G: np.ndarray, A: np.ndarray) -> np.ndarray:
        C, D, _ = A.shape
        cols = lambda a: a.transpose(1, 2, 0).reshape(D * D, 1, C)  # column v * D + u
        E = np.repeat(G.T, D, axis=0)[:, None, :]
        # a source with no exposure has N = E = 0, so zero minimises its columns'
        # surrogate 0.5 x'Px (P PSD); the solve would stop anywhere in P's null space
        A = np.where((G.sum(axis=0) == 0)[None, :, None], 0.0, A)
        x, N = cols(A), cols(N)
        twice = lambda a: np.concatenate([a, a])
        with np.errstate(all="ignore"):
            plain = np.divide(N, E, out=np.zeros_like(N), where=N > 0)
            f = _surrogate(np.concatenate([x, plain]), twice(N), twice(E), self.P, 1.0,
                           twice(N > 0))
        f_warm, f_plain = f[:D * D], f[D * D:]
        x = np.where((np.isfinite(f_plain) & ~(f_warm <= f_plain))[:, None, None], plain, x)
        x, clamps, steps, evals = _projected_newton(x, N, E, self.P, 1.0)
        self.clamps += clamps
        self.newton_steps += steps
        self.objective_evals += evals
        return np.ascontiguousarray(x.reshape(D, D, C).transpose(2, 0, 1))


def _ode_grid(dt: float, n_lags: int, alpha: float):
    """``fit_mle_ode``'s lag grid and curvature matrix (2·alpha/dt³ times the
    second-difference Gram), or ValidationError for arguments it cannot use."""
    kernel = DiscretizedKernel(dt=dt, n_lags=n_lags)
    if n_lags < 2:
        raise ValidationError("need n_lags >= 2 for a curvature-smoothed grid")
    _check_real("alpha", alpha, 0)
    # in floats dt³ overflows above dt ≈ 5.6e102 and underflows to zero
    # below dt ≈ 1e-108, leaving no finite positive scale
    try:
        scale = 2.0 * alpha / float(dt) ** 3 if alpha else 0.0
    except (OverflowError, ZeroDivisionError):
        scale = math.nan
    with np.errstate(over="ignore"):
        P = scale * _diff_gram(n_lags, 2)
    if not (np.all(np.isfinite(P)) and (scale > 0 or alpha == 0)):
        raise ValidationError(
            f"curvature penalty 2*alpha/dt**3 is out of floating-point range "
            f"for dt={dt:g} and alpha={alpha:g}"
        )
    return kernel, P


def fit_mle_ode(
    corpus,
    dt: float,
    n_lags: int,
    cfg: LearnConfig | None = None,
    alpha: float = 10.0,
) -> FitReport:
    """EM for a step kernel on a lag grid with a curvature penalty.

    Each kernel update minimizes, for every source/target pair, the
    attribution surrogate plus alpha * integral of squared second derivative
    (free boundaries), by one projected Newton solve over all pairs at once
    (``_Roughness``), each pair started at whichever of its warm start and
    its unpenalized minimizer N/E has the lower surrogate.  Penalty kinds
    from cfg are not supported here; smoothing is the regularizer.
    ``details`` carries the M-step counters ``clamp_count``,
    ``newton_steps`` and ``objective_evals``.
    """
    cfg = cfg or LearnConfig()
    if cfg.penalty.kind != "none":
        raise ValidationError(
            f"penalty {cfg.penalty.kind!r} is not supported on a grid kernel: "
            "fit_mle_ode uses curvature smoothing; structural penalties apply to fit_mle"
        )
    kernel, P = _ode_grid(dt, n_lags, alpha)
    D, L = corpus.dim, n_lags
    stats = _kernel_stats(corpus, kernel)
    if kernel.support > stats.T_s.max():
        warnings.warn(
            f"grid support {kernel.support:g} exceeds every observation window; "
            "tail values are unidentifiable and will follow the smoother",
            stacklevel=2,
        )
    if alpha == 0.0 and np.any(stats.G_s.sum(axis=0) <= 0):
        warnings.warn(
            "unidentifiable grid values with alpha=0; adding a tiny ridge",
            stacklevel=2,
        )
        P = P + 1e-9 * np.eye(L)
    smooth = _Roughness(P)
    init = _init_params(stats, cfg.rng_seed, 0.1 / (D * L * dt))
    mu, phi, trace, converged = _fit_from_stats(stats, cfg, init, smooth.mstep, smooth.value)
    model = HawkesModel(mu=mu, kernel=kernel, A=phi)
    return _em_report(model, trace, converged, **smooth.counters(), alpha=alpha)


# ---------------------------------------------------------------------------
# least squares on binned counts


def _bin_counts(seq: EventSequence, edges: np.ndarray) -> np.ndarray:
    """Events per mark and bin, (D, K), as ``np.histogram`` counts them: bins are
    half-open except the last, which holds an event on its right edge."""
    K = edges.size - 1
    j = np.searchsorted(edges, seq.times, side="right") - 1
    j[seq.times == edges[-1]] = K - 1
    keep = (j >= 0) & (j < K)
    return np.bincount(seq.marks[keep] * K + j[keep], minlength=seq.dim * K).reshape(seq.dim, K)


def fit_ls(
    corpus,
    bin_width: float,
    lags: int,
    ridge: float = 0.0,
) -> FitReport:
    """Binned autoregression: counts on each bin against the previous L bins.

    Solves the row-averaged normal equations jointly over sequences, with
    ridge on kernel coefficients only, and returns a step-kernel model.
    Averaging makes the estimate invariant to duplicating the corpus.
    """
    _check_real("bin_width", bin_width, 0, above=True)
    _check_int("lags", lags, 1)
    _check_real("ridge", ridge, 0)
    if len(corpus) == 0:
        raise ValidationError("corpus is empty")
    D, L, dt = corpus.dim, lags, bin_width
    for seq in corpus:
        if seq.duration < (L + 1) * dt:
            raise ValidationError(
                f"sequence {seq.id!r}: window {seq.duration:g} shorter than "
                f"(lags+1)*bin_width = {(L + 1) * dt:g}"
            )
        if not seq.duration / dt < np.iinfo(np.intp).max:  # before any allocation; inf, NaN too
            raise ValidationError(f"sequence {seq.id!r}: too many bins of width {dt:g} to index")
    p = 1 + D * L
    gram = np.zeros((p, p))
    rhs = np.zeros((p, D))
    rows = 0
    sse_const = np.zeros(D)
    for seq in corpus:
        K = int(seq.duration / dt)
        X = _bin_counts(seq, seq.t_start + np.arange(K + 1) * dt).astype(np.float64)  # (D, K)
        k_rows = K - L
        if k_rows <= 0:
            continue
        # column 1 + v * L + (l - 1) holds dt * X[v, r + L - l] on row r
        lagged = dt * sliding_window_view(X, L, axis=1)[:, :k_rows, ::-1]
        Z = np.empty((k_rows, p))
        Z[:, 0] = dt
        Z[:, 1:] = lagged.transpose(1, 0, 2).reshape(k_rows, D * L)
        Y = X[:, L:].T  # (k_rows, D)
        gram += Z.T @ Z
        rhs += Z.T @ Y
        sse_const += (Y * Y).sum(axis=0)
        rows += k_rows
    if rows == 0:
        raise ValidationError("no usable bins after lag trimming")
    gram /= rows
    rhs /= rows
    sse_const /= rows
    reg = np.ones(p)
    reg[0] = 0.0
    if ridge == 0.0:
        if np.linalg.matrix_rank(gram, tol=1e-10) < p:
            raise RankDeficiencyError(
                "normal equations are rank deficient; pass ridge > 0"
            )
    system = gram + ridge * np.diag(reg)
    try:
        theta = np.linalg.solve(system, rhs)  # (p, D)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(
            f"normal equations could not be solved ({exc}); pass ridge > 0"
        ) from exc
    clamps = int(np.count_nonzero(theta < 0))
    theta = np.clip(theta, 0.0, None)
    mu = theta[0]
    phi = np.ascontiguousarray(theta[1:].reshape(D, L, D).transpose(1, 0, 2))
    # mean squared residual plus ridge, as the recorded objective
    fit_sse = float(
        (sse_const - 2.0 * (rhs * theta).sum(axis=0)
         + np.einsum("pd,pq,qd->d", theta, gram, theta)).sum()
    )
    objective = fit_sse + ridge * float((reg[:, None] * theta**2).sum())
    model = HawkesModel(mu=mu, kernel=DiscretizedKernel(dt=dt, n_lags=L), A=phi)
    details = {"clamp_count": clamps, "rows": rows}
    return FitReport(model, (objective,), converged=True, iterations=1, details=details)


# ---------------------------------------------------------------------------
# estimation error


def estimation_error(fitted: HawkesModel, truth: HawkesModel) -> dict:
    """Relative L2 errors of baselines and branching matrices.

    For a fitted lag grid, a pointwise kernel error over that grid is
    included, comparing against the truth's exact per-bin averages on it,
    whatever the truth's kernel.  Zero-norm references flip
    the corresponding value to an absolute error and set the flag.
    """
    if fitted.dim != truth.dim:
        raise ValidationError(
            f"dimension mismatch: fitted {fitted.dim}, truth {truth.dim}"
        )
    out: dict = {}
    mu_num = float(np.linalg.norm(fitted.mu - truth.mu))
    mu_den = float(np.linalg.norm(truth.mu))
    out["mu_absolute"] = mu_den == 0.0
    out["mu_relerr"] = mu_num if mu_den == 0.0 else mu_num / mu_den
    bf = branching_matrix(fitted)
    bt = branching_matrix(truth)
    k_num = float(np.linalg.norm(bf - bt))
    k_den = float(np.linalg.norm(bt))
    out["kernel_absolute"] = k_den == 0.0
    out["kernel_relerr"] = k_num if k_den == 0.0 else k_num / k_den
    if isinstance(fitted.kernel, DiscretizedKernel):
        kern = fitted.kernel
        ref = kernel_lag_averages(truth, kern.dt, kern.n_lags)
        num = float(np.linalg.norm((fitted.A - ref).ravel()))
        den = float(np.linalg.norm(ref.ravel()))
        out["kernel_grid_l2"] = num if den == 0.0 else num / den
        out["kernel_grid_absolute"] = den == 0.0
    return out
