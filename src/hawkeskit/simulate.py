"""Event-sequence simulators.

Three samplers for the same model family:

* ``simulate_branch``: cluster expansion, Poisson immigrants first, then
  offspring generation by generation, each parent spawning children from its
  window-truncated kernel mass.  Requires a subcritical model.
* ``simulate_ogata``: thinning against an adaptive upper bound on the total
  intensity, refreshed after every proposal.  One loop serves every kernel: it
  keeps the history in two lists, which the kernel's ``thinning`` closures
  read for the bound and the intensities, and picks each mark in plain floats.
* ``simulate_exact_exp``: rejection-free interarrival inversion for
  exponential kernels, using the Markov decay of the excitation state.  One
  path for every dimension: O(D) plain-float work per event, randoms drawn
  in (rows, D) blocks whose size doubles.

All three run through one driver, ``_sample``: it derives one child seed
per sequence from the config seed (so corpora are reproducible and
sequences independent), names the sequences ``s0``, ``s1``, ..., and
enforces ``max_events``.  Each per-sequence sampler only returns its times
and marks in time order, stopping once it holds more than the cap.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

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
    _check_real,
    branching_matrix,
    spectral_radius,
)
from .data import Corpus, FormatError


class SimulationOverflowError(HawkesError):
    """A sequence exceeded the max_events cap.

    The message names the sequence id (``s0``, ``s1``, ...); ``partial`` is
    that sequence cut to its first max_events events in time order.  Thinning
    and the exact sampler draw the same randoms up to the cap, so theirs is
    the uncapped run's prefix; the branch sampler stops after the generation
    that crosses the cap, so its partial is the earliest max_events events of
    the generations drawn so far.
    """

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
        _check_real("t_end", self.t_end, 0, above=True)
        _check_int("n_sequences", self.n_sequences, 0)
        _check_int("rng_seed", self.rng_seed, 0)
        _check_int("max_events", self.max_events, 1)


def _sample(cfg: SimConfig, one) -> Corpus:
    """Run ``one(model, T, rng, max_events) -> (times, marks)`` per sequence.

    Sequence i gets the i-th child seed of ``cfg.rng_seed`` and the id
    ``f"s{i}"``; the first sequence holding more than max_events events
    raises SimulationOverflowError with its first max_events events.
    """
    model, T, cap = cfg.model, cfg.t_end, cfg.max_events
    seqs = []
    for i, rng in enumerate(spawn_rngs(cfg.rng_seed, cfg.n_sequences)):
        times, marks = one(model, T, rng, cap)
        seq = EventSequence(times[:cap], marks[:cap], 0.0, T, model.dim, f"s{i}")
        if times.size > cap:
            raise SimulationOverflowError(
                f"sequence {seq.id!r} exceeded max_events={cap}", partial=seq
            )
        seqs.append(seq)
    return Corpus(tuple(seqs), model.dim)


def simulate_branch(cfg: SimConfig) -> Corpus:
    """Sample sequences by the immigrant/offspring cluster construction."""
    rho = spectral_radius(branching_matrix(cfg.model))
    if rho >= 1.0:
        raise ValidationError(
            f"branch sampler requires spectral radius < 1, got {rho:.4f}: "
            "offspring cascade may not terminate"
        )
    return _sample(cfg, _branch_one)


def _branch_one(model, T, rng, max_events):
    """Generation by generation until a generation is empty or the cap is
    crossed; the stable sort keeps each generation's draw order on ties."""
    imm_t, imm_m = [], []
    for u in range(model.dim):
        n = int(rng.poisson(model.mu[u] * T))
        imm_t.append(rng.uniform(0.0, T, size=n))
        imm_m.append(np.full(n, u, dtype=np.int64))
    gens = [(np.concatenate(imm_t), np.concatenate(imm_m))]
    total = gens[0][0].size
    while gens[-1][0].size and total <= max_events:
        gens.append(_offspring(model, *gens[-1], T, rng))
        total += gens[-1][0].size
    times, marks = (np.concatenate(parts) for parts in zip(*gens))
    idx = np.argsort(times, kind="stable")
    return times[idx], marks[idx]


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
    return _sample(cfg, _ogata_one)


def _ogata_one(model, T, rng, max_events):
    D = model.dim
    mu_list = model.mu.tolist()
    mu_total = float(model.mu.sum())
    ts: list[float] = []  # history, in time order
    ms: list[int] = []
    bound, excite = model.kernel.thinning(model.coeffs, ts, ms)
    t = 0.0
    while True:
        lbar = mu_total + bound(t)
        if lbar <= 0.0:
            break
        t_new = t + rng.exponential(1.0 / lbar)
        if t_new > T:
            break
        # intensities at t_new, cumulated over targets: the last is the total
        cum = list(accumulate(m + e for m, e in zip(mu_list, excite(t_new))))
        x = rng.random() * lbar
        if x < cum[-1]:
            ts.append(t_new)
            ms.append(min(bisect_right(cum, x), D - 1))
            if len(ts) > max_events:
                break
        t = t_new
    return np.array(ts), np.array(ms, dtype=np.int64)


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
    if not isinstance(cfg.model.kernel, ExponentialKernel):
        raise UnsupportedKernelError(
            "exact sampler requires an exponential kernel; "
            "use simulate_ogata or simulate_branch for other kernels"
        )
    return _sample(cfg, _exact_exp_one)


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


def _exact_exp_one(model, T, rng, max_events):
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
            break
    return np.array(times), np.array(marks, dtype=np.int64)


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
