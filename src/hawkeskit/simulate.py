"""Event-sequence simulators.

Three samplers for the same model family:

* ``simulate_branch``: cluster expansion, Poisson immigrants first, then
  offspring generation by generation, each parent spawning children from its
  window-truncated kernel mass.  Requires a subcritical model.
* ``simulate_ogata``: thinning against an adaptive upper bound on the total
  intensity, refreshed after every proposal.  Works for every kernel; with
  finite support the history lives in two arrays that grow by doubling.
* ``simulate_exact_exp``: rejection-free interarrival inversion for
  exponential kernels, using the Markov decay of the excitation state.  One
  path for every dimension: O(D) plain-float work per event, randoms drawn
  in (rows, D) blocks whose size doubles.

All samplers derive one child seed per sequence from the config seed, so
corpora are reproducible and sequences are independent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ._util import atomic_write_text, read_csv_rows, spawn_rngs
from .core import (
    EventSequence,
    ExponentialKernel,
    HawkesError,
    HawkesModel,
    UnsupportedKernelError,
    ValidationError,
    _check_int,
    branching_matrix,
    spectral_radius,
)
from .data import Corpus, FormatError


class SimulationOverflowError(HawkesError):
    """A sequence hit the max_events cap; ``partial`` holds what was kept."""

    def __init__(self, message: str, partial: EventSequence | None = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class SimConfig:
    model: HawkesModel
    t_end: float
    n_sequences: int = 1
    rng_seed: int = 0
    max_events: int = 1_000_000

    def __post_init__(self):
        if not 0 < self.t_end < np.inf:
            raise ValidationError(f"t_end must be finite and > 0, got {self.t_end}")
        _check_int("n_sequences", self.n_sequences, 0)
        _check_int("rng_seed", self.rng_seed, 0)
        _check_int("max_events", self.max_events, 1)


def _finish(times_parts, marks_parts, T, dim, sid) -> EventSequence:
    times = np.concatenate(times_parts) if times_parts else np.empty(0)
    marks = np.concatenate(marks_parts) if marks_parts else np.empty(0, dtype=np.int64)
    idx = np.argsort(times, kind="stable")
    return EventSequence(times[idx], marks[idx].astype(np.int64), 0.0, T, dim, sid)


def _overflow(times_parts, marks_parts, T, dim, sid, cap) -> SimulationOverflowError:
    seq = _finish(times_parts, marks_parts, T, dim, sid)
    trunc = EventSequence(seq.times[:cap], seq.marks[:cap], 0.0, T, dim, sid)
    return SimulationOverflowError(
        f"sequence {sid!r} exceeded max_events={cap}", partial=trunc
    )


def simulate_branch(cfg: SimConfig) -> Corpus:
    """Sample sequences by the immigrant/offspring cluster construction."""
    model = cfg.model
    rho = spectral_radius(branching_matrix(model))
    if rho >= 1.0:
        raise ValidationError(
            f"branch sampler requires spectral radius < 1, got {rho:.4f}: "
            "offspring cascade may not terminate"
        )
    rngs = spawn_rngs(cfg.rng_seed, cfg.n_sequences)
    seqs = tuple(
        _branch_one(model, cfg.t_end, rng, cfg.max_events, f"s{i}")
        for i, rng in enumerate(rngs)
    )
    return Corpus(seqs, model.dim)


def _branch_one(model, T, rng, max_events, sid) -> EventSequence:
    D = model.dim
    times_parts: list[np.ndarray] = []
    marks_parts: list[np.ndarray] = []
    total = 0

    imm_t, imm_m = [], []
    for u in range(D):
        n = int(rng.poisson(model.mu[u] * T))
        imm_t.append(rng.uniform(0.0, T, size=n))
        imm_m.append(np.full(n, u, dtype=np.int64))
    cur_t = np.concatenate(imm_t)
    cur_m = np.concatenate(imm_m)

    while cur_t.size:
        times_parts.append(cur_t)
        marks_parts.append(cur_m)
        total += cur_t.size
        if total > max_events:
            raise _overflow(times_parts, marks_parts, T, D, sid, max_events)
        cur_t, cur_m = _offspring(model, cur_t, cur_m, T, rng)
    return _finish(times_parts, marks_parts, T, D, sid)


def _offspring(model, pt, pm, T, rng):
    """One generation of children for parents at times pt with marks pm."""
    kern = model.kernel
    rem = T - pt
    w = kern.mass(rem)  # (C, n) window-truncated component mass
    means = model.coeffs[:, pm, :] * w[:, :, None]  # (C, n, D)
    counts = rng.poisson(means)
    k = counts.sum()
    if k == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    n, D = pt.size, model.dim
    flat = np.repeat(np.arange(counts.size), counts.ravel())
    comp = flat // (n * D)
    parent = (flat // D) % n
    marks = flat % D
    u01 = rng.random(k)
    return pt[parent] + kern.quantile(comp, u01, rem[parent]), marks


def simulate_ogata(cfg: SimConfig) -> Corpus:
    """Sample by thinning with a per-proposal refreshed intensity bound."""
    model = cfg.model
    rngs = spawn_rngs(cfg.rng_seed, cfg.n_sequences)
    seqs = tuple(
        _ogata_one(model, cfg.t_end, rng, cfg.max_events, f"s{i}")
        for i, rng in enumerate(rngs)
    )
    return Corpus(seqs, model.dim)


def _ogata_one(model, T, rng, max_events, sid) -> EventSequence:
    D = model.dim
    mu = model.mu
    mu_total = float(mu.sum())
    kern = model.kernel
    t = 0.0

    if isinstance(kern, ExponentialKernel):
        times: list[float] = []
        marks: list[int] = []
        omega = kern.decay
        R = np.zeros(D)  # per-source excitation state at current t
        AT = model.A.T  # (u, v) for fast lam = mu + AT @ R
        while True:
            lam_now = mu + AT @ R
            lbar = float(lam_now.sum())
            if lbar <= 0.0:
                break
            dt = rng.exponential(1.0 / lbar)
            t_new = t + dt
            if t_new > T:
                break
            R = R * np.exp(-omega * dt)
            lam = mu + AT @ R
            total = float(lam.sum())
            v01 = rng.random()
            if v01 * lbar < total:
                u = int(np.searchsorted(np.cumsum(lam), v01 * lbar, side="right"))
                u = min(u, D - 1)
                times.append(t_new)
                marks.append(u)
                R[u] += omega
                if len(times) > max_events:
                    raise _overflow(
                        [np.array(times)], [np.array(marks, dtype=np.int64)],
                        T, D, sid, max_events,
                    )
            t = t_new
        return EventSequence(
            np.array(times), np.array(marks, dtype=np.int64), 0.0, T, D, sid
        )

    support = kern.support
    coeffs = model.coeffs
    bound_contrib = kern.thinning_bound(coeffs)

    # history: the first n slots of two buffers that grow by doubling
    ts_arr = np.empty(64)
    ms_arr = np.empty(64, dtype=np.int64)
    n = 0
    w0 = 0  # history window start: events older than `support` are spent
    while True:
        while w0 < n and ts_arr[w0] <= t - support:
            w0 += 1
        lbar = mu_total + bound_contrib(t - ts_arr[w0:n], ms_arr[w0:n])
        if lbar <= 0.0:
            break
        dt = rng.exponential(1.0 / lbar)
        t_new = t + dt
        if t_new > T:
            break
        while w0 < n and ts_arr[w0] <= t_new - support:
            w0 += 1
        # intensities at t_new from the strict past inside the window
        past = slice(w0, int(ts_arr[:n].searchsorted(t_new)))
        dens = kern.density(t_new - ts_arr[past])  # (C, W)
        lam = mu + dens.reshape(-1) @ coeffs[:, ms_arr[past], :].reshape(-1, D)
        total = float(lam.sum())
        v01 = rng.random()
        if v01 * lbar < total:
            u = int(np.searchsorted(np.cumsum(lam), v01 * lbar, side="right"))
            u = min(u, D - 1)
            if n == ts_arr.size:
                ts_arr = np.concatenate((ts_arr, np.empty_like(ts_arr)))
                ms_arr = np.concatenate((ms_arr, np.empty_like(ms_arr)))
            ts_arr[n] = t_new
            ms_arr[n] = u
            n += 1
            if n > max_events:
                raise _overflow([ts_arr[:n]], [ms_arr[:n]], T, D, sid, max_events)
        t = t_new
    return EventSequence(ts_arr[:n].copy(), ms_arr[:n].copy(), 0.0, T, D, sid)


def simulate_exact_exp(cfg: SimConfig) -> Corpus:
    """Sample exponential-kernel models without rejection.

    Per dimension the next-arrival time splits into a baseline part
    (exponential at rate mu[u]) and an excited part sampled by inverting the
    decaying-intensity survival function, which has a defect: with
    probability exp(-g_u / decay) the excitation never fires.  The earliest
    candidate across dimensions is the next event; the excitation state then
    updates with no history scan.  One path serves every dimension: each
    event costs O(D) plain-float work, and the randoms come in (rows, D)
    blocks whose size doubles from 64 rows, so short paths draw little and
    long ones make few numpy calls.
    """
    model = cfg.model
    if not isinstance(model.kernel, ExponentialKernel):
        raise UnsupportedKernelError(
            "exact sampler requires an exponential kernel; "
            "use simulate_ogata or simulate_branch for other kernels"
        )
    rngs = spawn_rngs(cfg.rng_seed, cfg.n_sequences)
    seqs = tuple(
        _exact_exp_one(model, cfg.t_end, rng, cfg.max_events, f"s{i}")
        for i, rng in enumerate(rngs)
    )
    return Corpus(seqs, model.dim)


def _exact_exp_draws(rng, mu, omega):
    """Per-event rows of (baseline waits, excitation thresholds).

    A baseline wait is Exp(1) / mu[u] (infinite where mu[u] = 0).  The
    excited part fires iff its threshold omega * Exp(1) is below the excited
    intensity g[u]; that is the survival inversion u01 > exp(-g / omega) with
    -log(u01) drawn as Exp(1).
    """
    pos = mu > 0
    rate = np.where(pos, mu, 1.0)
    rows = 64
    while True:
        e = rng.standard_exponential((2, rows, mu.size))
        base = np.where(pos, e[0] / rate, np.inf)
        yield from zip(base.tolist(), (omega * e[1]).tolist())
        rows *= 2


def _exact_exp_one(model, T, rng, max_events, sid) -> EventSequence:
    D = model.dim
    omega = float(model.kernel.decay)
    jump = (omega * model.A).tolist()  # jump[u][v]: excitation an event in u adds to v
    g = [0.0] * D  # excited intensity per target dim
    t = 0.0
    times: list[float] = []
    marks: list[int] = []
    for base, thr in _exact_exp_draws(rng, model.mu, omega):
        w, u = math.inf, 0
        for v in range(D):
            wv = base[v]
            if g[v] > thr[v]:
                we = -math.log1p(-thr[v] / g[v]) / omega
                if we < wv:
                    wv = we
            if wv < w:
                w, u = wv, v
        if w == math.inf or t + w > T:
            break
        t += w
        decay = math.exp(-omega * w)
        g = [gv * decay + j for gv, j in zip(g, jump[u])]
        times.append(t)
        marks.append(u)
        if len(times) > max_events:
            raise _overflow(
                [np.array(times)], [np.array(marks, dtype=np.int64)],
                T, D, sid, max_events,
            )
    return EventSequence(
        np.array(times), np.array(marks, dtype=np.int64), 0.0, T, D, sid
    )


_METHODS = {
    "branch": simulate_branch,
    "ogata": simulate_ogata,
    "exact-exp": simulate_exact_exp,
}


def benchmark_simulators(
    model: HawkesModel,
    horizons,
    rng_seed: int = 0,
    n_sequences: int = 1,
    max_events: int = 1_000_000,
    methods: tuple[str, ...] = ("branch", "ogata", "exact-exp"),
    real_timing: bool = True,
) -> list[dict]:
    """Run each simulator over a horizon grid; one result row per (method, t_end).

    With real_timing=False the wall_time_s column is fixed at 0.0 so output
    files are byte-stable across runs.
    """
    rows = []
    for method in methods:
        if method not in _METHODS:
            raise ValidationError(
                f"unknown method {method!r}; valid: {sorted(_METHODS)}"
            )
        fn = _METHODS[method]
        for t_end in horizons:
            cfg = SimConfig(model, float(t_end), n_sequences, rng_seed, max_events)
            row = {
                "method": method,
                "t_end": float(t_end),
                "seed": rng_seed,
                "wall_time_s": 0.0,
                "event_count": "n/a",
            }
            start = time.perf_counter()
            try:
                corpus = fn(cfg)
                row["event_count"] = corpus.n_events
            except UnsupportedKernelError:
                pass  # stays n/a
            except HawkesError as exc:
                row["event_count"] = f"error:{type(exc).__name__}"
            if real_timing:
                row["wall_time_s"] = time.perf_counter() - start
            rows.append(row)
    return rows


def write_benchmark_csv(rows: list[dict], path: str) -> None:
    lines = ["method,t_end,seed,wall_time_s,event_count"]
    for r in rows:
        lines.append(
            f"{r['method']},{r['t_end']:g},{r['seed']},"
            f"{r['wall_time_s']:.6f},{r['event_count']}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_benchmark_csv(path: str) -> list[dict]:
    header, raw = read_csv_rows(path)
    if header != ["method", "t_end", "seed", "wall_time_s", "event_count"]:
        raise FormatError(f"{path}: unexpected benchmark header {header}")
    rows = []
    try:
        for cells in raw:
            count: object = cells[4]
            if count not in ("n/a",) and not str(count).startswith("error:"):
                count = int(count)
            rows.append(
                {
                    "method": cells[0],
                    "t_end": float(cells[1]),
                    "seed": int(cells[2]),
                    "wall_time_s": float(cells[3]),
                    "event_count": count,
                }
            )
    except ValueError as exc:
        raise FormatError(f"{path}: malformed benchmark row ({exc})") from exc
    return rows
