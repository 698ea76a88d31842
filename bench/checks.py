"""Output checks for the benchmark, with plain reference implementations.

Every check raises ``CheckFailed`` with a one-line reason.  The references
here are deliberately simple (Python loops, no shared code with the
package) so that an optimisation of the package is checked against an
independent computation.
"""

from __future__ import annotations

import math

import numpy as np

# relative slack on objective traces, as in the EM monotonicity criterion
TRACE_SLACK = 1e-10
# agreement of the rescaling KS statistic with the cumulative reference
KS_TOL = 1e-9
# agreement of alignment distances with the plain DP (different rounding order)
DP_RTOL = 1e-12
# agreement of log-likelihoods with the recursion reference
LL_RTOL = 1e-9


class CheckFailed(Exception):
    """An output did not pass its check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_trace(trace, what: str) -> None:
    """Objective traces are finite and never increase beyond the slack."""
    t = np.asarray(trace, dtype=np.float64)
    require(t.size >= 1, f"{what}: empty objective trace")
    require(bool(np.all(np.isfinite(t))), f"{what}: non-finite objective")
    if t.size > 1:
        rise = np.diff(t) - TRACE_SLACK * np.maximum(np.abs(t[:-1]), 1.0)
        worst = int(np.argmax(rise))
        require(
            rise[worst] <= 0.0,
            f"{what}: objective rose from {t[worst]!r} to {t[worst + 1]!r} at step {worst + 1}",
        )


def check_error(err: dict, bounds: dict, what: str) -> None:
    """Relative errors from ``estimation_error`` stay under stated bounds."""
    for key, bound in bounds.items():
        val = err.get(key)
        require(
            val is not None and math.isfinite(val) and val <= bound,
            f"{what}: {key}={val} exceeds bound {bound}",
        )


def stationary_rate(branching: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Per-dimension stationary event rate (I - Phi^T)^-1 mu."""
    D = mu.size
    return np.linalg.solve(np.eye(D) - branching.T, mu)


def check_simulated(corpus, expected_total: float, band: float, what: str) -> None:
    """Sorted, inside the window, and a total count near the stationary mean."""
    total = 0
    for seq in corpus:
        t = seq.times
        require(bool(np.all(np.diff(t) >= 0)), f"{what}: sequence {seq.id} not sorted")
        if t.size:
            require(
                t[0] >= seq.t_start and t[-1] <= seq.t_end,
                f"{what}: sequence {seq.id} has events outside [{seq.t_start}, {seq.t_end}]",
            )
        require(
            bool(np.all((seq.marks >= 0) & (seq.marks < corpus.dim))),
            f"{what}: sequence {seq.id} has marks outside [0, {corpus.dim})",
        )
        total += t.size
    lo, hi = (1.0 - band) * expected_total, (1.0 + band) * expected_total
    require(
        lo <= total <= hi,
        f"{what}: {total} events outside [{lo:.0f}, {hi:.0f}] (stationary mean {expected_total:.0f})",
    )


# ---------------------------------------------------------------------------
# exponential-kernel references: one strict-past recursion gives both the
# log-likelihood and the cumulative compensator at every event


def _exp_states(times, marks, t_start, dim, decay):
    """Per event, the strict-past counts N[j, v] and decayed sums S[j, v]."""
    n = times.size
    N = np.zeros((n, dim))
    S = np.zeros((n, dim))
    cnt = np.zeros(dim)
    dec = np.zeros(dim)
    pending = np.zeros(dim)
    t_last = t_start
    for j in range(n):
        t = float(times[j])
        if t > t_last:
            dec = (dec + pending) * math.exp(-decay * (t - t_last))
            cnt = cnt + pending
            pending = np.zeros(dim)
            t_last = t
        N[j] = cnt
        S[j] = dec
        pending[int(marks[j])] += 1.0
    return N, S, cnt + pending, dec + pending, t_last


def _exp_cumulative(model, seq):
    """Cumulative compensator of each event's own dimension, at its left limit."""
    decay = model.kernel.decay
    N, S, _, _, _ = _exp_states(seq.times, seq.marks, seq.t_start, seq.dim, decay)
    u = seq.marks
    excited = np.einsum("jv,jv->j", N - S, model.A[:, u].T)
    return model.mu[u] * (seq.times - seq.t_start) + excited


def ref_exp_loglik(model, seq) -> float:
    """Log-likelihood of an exponential-kernel model by the O(n D) recursion."""
    decay = model.kernel.decay
    _, S, cnt, dec, t_last = _exp_states(
        seq.times, seq.marks, seq.t_start, seq.dim, decay
    )
    u = seq.marks
    lam = model.mu[u] + decay * np.einsum("jv,jv->j", S, model.A[:, u].T)
    dec_end = dec * math.exp(-decay * (seq.t_end - t_last))
    comp = model.mu * (seq.t_end - seq.t_start) + (cnt - dec_end) @ model.A
    return math.fsum(np.log(lam).tolist()) - math.fsum(comp.tolist())


def ref_ks_statistic(increments) -> float:
    """Two-sided KS distance of the sample to Exp(1), from its ECDF corners."""
    x = sorted(float(v) for v in increments)
    n = len(x)
    worst = 0.0
    for i, v in enumerate(x):
        f = 1.0 - math.exp(-v)
        worst = max(worst, (i + 1) / n - f, f - i / n)
    return worst


def ref_exp_rescaling(model, seq) -> tuple[float, int]:
    """KS statistic of pooled per-dimension increments of cumulative compensators."""
    lam_cum = _exp_cumulative(model, seq)
    increments = []
    for u in range(seq.dim):
        sel = seq.marks == u
        cum_u = lam_cum[sel]
        prev = np.concatenate(([0.0], cum_u[:-1]))
        increments.extend((cum_u - prev).tolist())
    if not increments:
        return 0.0, 0
    return ref_ks_statistic(increments), len(increments)


def check_rescaling(model, seq, result: dict, what: str, reference: bool) -> None:
    n = result.get("n_transformed")
    require(n == len(seq), f"{what}: n_transformed={n}, sequence has {len(seq)} events")
    ks = result.get("ks_statistic")
    require(ks is not None and 0.0 <= ks <= 1.0, f"{what}: KS statistic {ks} not in [0, 1]")
    if reference:
        ref, ref_n = ref_exp_rescaling(model, seq)
        require(ref_n == n, f"{what}: reference has {ref_n} increments, result {n}")
        require(
            abs(ref - ks) <= KS_TOL,
            f"{what}: KS {ks!r} differs from cumulative reference {ref!r}",
        )


def check_heldout(model, corpus, result: dict, sample, what: str) -> None:
    per_seq = result.get("per_sequence")
    require(
        per_seq is not None and len(per_seq) == len(corpus),
        f"{what}: per_sequence has the wrong length",
    )
    require(not result.get("undefined"), f"{what}: held-out likelihood undefined")
    total = result.get("total")
    require(math.isfinite(total), f"{what}: total {total} not finite")
    require(
        abs(total - math.fsum(per_seq)) <= LL_RTOL * max(abs(total), 1.0),
        f"{what}: total {total!r} is not the sum of per_sequence",
    )
    n = corpus.n_events
    require(
        abs(result.get("per_event") - total / n) <= LL_RTOL * max(abs(total / n), 1.0),
        f"{what}: per_event is not total / {n}",
    )
    for i in sample:
        ref = ref_exp_loglik(model, corpus[i])
        got = per_seq[i]
        require(
            abs(got - ref) <= LL_RTOL * max(abs(ref), 1.0),
            f"{what}: sequence {i} log-likelihood {got!r} != reference {ref!r}",
        )


# ---------------------------------------------------------------------------
# alignment distance reference


def _canonical(seq):
    return (len(seq), seq.times.tobytes(), seq.marks.tobytes())


def ref_alignment(seq_a, seq_b, time_cost=1.0, mark_cost=1.0, indel=1.0) -> float:
    """Textbook O(n m) edit-distance DP on canonically ordered arguments."""
    if _canonical(seq_b) < _canonical(seq_a):
        seq_a, seq_b = seq_b, seq_a
    ta, ma = seq_a.times.tolist(), seq_a.marks.tolist()
    tb, mb = seq_b.times.tolist(), seq_b.marks.tolist()
    m = len(tb)
    prev = [indel * j for j in range(m + 1)]
    for i in range(1, len(ta) + 1):
        cur = [indel * i] + [0.0] * m
        for j in range(1, m + 1):
            match = time_cost * abs(ta[i - 1] - tb[j - 1]) + mark_cost * (ma[i - 1] != mb[j - 1])
            cur[j] = min(prev[j] + indel, cur[j - 1] + indel, prev[j - 1] + match)
        prev = cur
    return prev[m]


def check_distance_matrix(dm, corpus, pairs, what: str) -> None:
    n = len(corpus)
    require(dm.shape == (n, n), f"{what}: shape {dm.shape}, expected {(n, n)}")
    require(bool(np.array_equal(dm, dm.T)), f"{what}: matrix is not exactly symmetric")
    require(bool(np.all(np.diag(dm) == 0.0)), f"{what}: diagonal is not zero")
    require(bool(np.all(np.isfinite(dm)) and np.all(dm >= 0)), f"{what}: entries not finite and >= 0")
    for i, j in pairs:
        ref = ref_alignment(corpus[i], corpus[j])
        require(
            abs(dm[i, j] - ref) <= DP_RTOL * max(ref, 1.0),
            f"{what}: entry ({i}, {j}) = {dm[i, j]!r}, plain DP gives {ref!r}",
        )


def purity(assignments, labels) -> float:
    assignments = np.asarray(assignments)
    labels = np.asarray(labels)
    hit = 0
    for k in np.unique(assignments):
        hit += int(np.bincount(labels[assignments == k]).max())
    return hit / labels.size


def check_partition(res, labels, min_purity: float, what: str) -> None:
    n = len(labels)
    a = np.asarray(res.assignments)
    require(a.shape == (n,), f"{what}: {a.shape[0]} assignments for {n} sequences")
    require(bool(np.all((a >= 0) & (a < res.K))), f"{what}: assignment out of range")
    p = purity(a, labels)
    require(p >= min_purity, f"{what}: purity {p:.3f} below {min_purity}")
