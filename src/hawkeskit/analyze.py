"""Analysis tools: excitation-graph extraction, sequence clustering by
mixture models and by pairwise alignment distance, and a model whose
infectivity drifts along the observation axis.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np

from ._util import atomic_write_text, dump_json, load_json, logsumexp, make_rng, read_csv_rows
from .core import (
    DiscretizedKernel,
    EventSequence,
    HawkesModel,
    KernelSpec,
    ValidationError,
    _check_int,
    _check_real,
    _expected_coeff_shape,
    branching_matrix,
    exp_weighted_excitation,
)
from .data import Corpus, FormatError, _is_int, _json_reals
from .learn import (
    FitReport,
    LearnConfig,
    _Converge,
    _EmStats,
    _Roughness,
    _check_corpus_dim,
    _diff_gram,
    _em_report,
    _fit_from_stats,
    _init_params,
    _kernel_stats,
    _structural,
    fit_mle,
    fit_mle_ode,
)


@dataclass(frozen=True, eq=False)
class GrangerGraph:
    """Thresholded excitation structure: edge v->u iff infectivity exceeds it."""

    infectivity: np.ndarray
    adjacency: np.ndarray
    threshold: float

    def __post_init__(self):
        inf = np.asarray(_check_real("infectivity", self.infectivity, 0))
        adj = np.asarray(self.adjacency, dtype=bool)
        inf.setflags(write=False)
        adj.setflags(write=False)
        object.__setattr__(self, "infectivity", inf)
        object.__setattr__(self, "adjacency", adj)
        if inf.ndim != 2 or inf.shape[0] != inf.shape[1]:
            raise ValidationError("infectivity must be a square matrix")
        if adj.shape != inf.shape:
            raise ValidationError("adjacency shape must match infectivity")
        _check_real("threshold", self.threshold)
        if not np.array_equal(adj, inf > self.threshold):
            raise ValidationError("adjacency must equal infectivity > threshold")

    @property
    def dim(self) -> int:
        return int(self.infectivity.shape[0])


def granger_graph(
    corpus: Corpus,
    kernel_template: KernelSpec,
    cfg: LearnConfig | None = None,
    threshold: float = 0.01,
) -> GrangerGraph:
    """Fit the configured learner and threshold the branching matrix.

    Discretized templates go through the grid learner, which takes no
    penalty (a penalized cfg raises ValidationError); continuous templates
    through direct EM with whatever penalty cfg carries.
    """
    _check_real("threshold", threshold)
    if isinstance(kernel_template, DiscretizedKernel):
        report = fit_mle_ode(
            corpus, kernel_template.dt, kernel_template.n_lags, cfg
        )
    else:
        report = fit_mle(corpus, kernel_template, cfg)
    phi = branching_matrix(report.model)
    return GrangerGraph(phi, phi > threshold, float(threshold))


def save_granger(graph: GrangerGraph, path: str) -> None:
    dump_json(
        {
            "threshold": graph.threshold,
            "infectivity": graph.infectivity.tolist(),
            "adjacency": graph.adjacency.tolist(),
        },
        path,
    )


def load_granger(path: str) -> GrangerGraph:
    doc = load_json(path)
    try:
        return GrangerGraph(
            np.asarray(_json_reals(doc["infectivity"]), dtype=np.float64),
            np.asarray(doc["adjacency"], dtype=bool),
            float(_json_reals(doc["threshold"])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed graph document ({exc})") from exc


def granger_to_dot(graph: GrangerGraph, labels: list[str] | None = None) -> str:
    """DOT digraph with one edge per adjacency entry, labeled to 3 decimals."""
    D = graph.dim
    if labels is None:
        labels = [str(u) for u in range(D)]
    if len(labels) != D:
        raise ValidationError(f"need {D} labels, got {len(labels)}")
    lines = ["digraph granger {"]
    for u in range(D):
        lines.append(f'  "{labels[u]}";')
    for v in range(D):
        for u in range(D):
            if graph.adjacency[v, u]:
                lines.append(
                    f'  "{labels[v]}" -> "{labels[u]}" '
                    f'[label="{graph.infectivity[v, u]:.3f}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_granger_dot(graph: GrangerGraph, path: str, labels=None) -> None:
    atomic_write_text(path, granger_to_dot(graph, labels))


_DOT_EDGE = re.compile(r'^\s*"(.*)" -> "(.*)" \[label="([0-9.]+)"\];$')
_DOT_NODE = re.compile(r'^\s*"(.*)";$')


def load_granger_dot(path: str) -> tuple[list[str], dict[tuple[str, str], float]]:
    """Parse a digraph we emitted back into (node labels, edge -> weight)."""
    nodes: list[str] = []
    edges: dict[tuple[str, str], float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        body = fh.read()
    if not body.startswith("digraph"):
        raise FormatError(f"{path}: not a digraph file")
    for line in body.splitlines()[1:]:
        if line.strip() == "}":
            break
        m = _DOT_EDGE.match(line)
        if m:
            edges[(m.group(1), m.group(2))] = float(m.group(3))
            continue
        m = _DOT_NODE.match(line)
        if m:
            nodes.append(m.group(1))
            continue
        raise FormatError(f"{path}: unrecognized line {line!r}")
    return nodes, edges


# ---------------------------------------------------------------------------
# clustering


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Soft or hard partition of a corpus into K groups.

    ``models`` is empty for the distance route; ``medoids`` is None for the
    mixture route.  ``objective_trace`` follows the minimization convention
    (negative penalized mixture log-likelihood), nonincreasing between reseeds.
    """

    K: int
    responsibilities: np.ndarray
    assignments: np.ndarray
    models: tuple[HawkesModel, ...]
    mixing: np.ndarray
    medoids: tuple[int, ...] | None = None
    objective_trace: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "objective_trace", tuple(self.objective_trace))
        resp = np.asarray(self.responsibilities, dtype=np.float64)
        assign = np.asarray(self.assignments, dtype=np.int64)
        mixing = np.asarray(self.mixing, dtype=np.float64)
        for arr in (resp, assign, mixing):
            arr.setflags(write=False)
        object.__setattr__(self, "responsibilities", resp)
        object.__setattr__(self, "assignments", assign)
        object.__setattr__(self, "mixing", mixing)
        n, k = resp.shape
        if k != self.K or mixing.shape != (self.K,) or assign.shape != (n,):
            raise ValidationError("cluster result shapes are inconsistent")
        if n and np.max(np.abs(resp.sum(axis=1) - 1.0)) > 1e-9:
            raise ValidationError("responsibility rows must sum to 1")
        if abs(float(mixing.sum()) - 1.0) > 1e-9:
            raise ValidationError("mixing must sum to 1")
        if n and not np.array_equal(assign, np.argmax(resp, axis=1)):
            raise ValidationError("assignments must be the responsibility argmax")


def _round_objective(lse: np.ndarray, penalties: list[float]) -> float:
    """A mixture round's objective: -sum(lse) plus every cluster's penalty."""
    return -float(lse.sum()) + float(np.sum(penalties))


def cluster_mixture(
    corpus: Corpus,
    K: int,
    kernel_template: KernelSpec,
    cfg: LearnConfig | None = None,
    inner_iters: int = 3,
) -> ClusterResult:
    """Mixture of models over sequences, fitted by generalized EM.

    Each round reweights every sequence by its cluster responsibility,
    advances each cluster's fit a few warm-started iterations, then
    recomputes responsibilities with log-sum-exp normalization.  A cluster
    whose total responsibility collapses is reseeded from the sequence the
    current mixture explains worst.
    """
    cfg = cfg or LearnConfig()
    n_seq = len(corpus)
    _check_int("K", K, 1)
    _check_int("inner_iters", inner_iters, 1)
    if n_seq < K:
        raise ValidationError(f"corpus has {n_seq} sequences, fewer than K={K}")
    layout = _expected_coeff_shape(kernel_template, corpus.dim)
    stats = _kernel_stats(corpus, kernel_template)
    mstep, penalty = _structural(cfg.penalty)
    init = _init_params(stats, cfg.rng_seed, 0.1 / stats.dim)
    rng = make_rng(cfg.rng_seed)
    resp = rng.uniform(0.5, 1.0, size=(n_seq, K))
    resp /= resp.sum(axis=1, keepdims=True)

    params: list[tuple | None] = [None] * K
    trace: list[float] = []
    checker = _Converge(cfg.tol)
    converged = False
    obj_prev = None
    for _ in range(cfg.max_iters):
        for k in range(K):
            mu_k, A_k, _, _ = _fit_from_stats(
                stats, cfg, init if params[k] is None else params[k], mstep, penalty,
                weights=resp[:, k], max_iters=inner_iters,
            )
            params[k] = (mu_k, A_k)
        mixing = resp.mean(axis=0)
        ll = np.stack(
            [stats.per_seq_loglik(mu_k, A_k) for (mu_k, A_k) in params], axis=1
        )
        logw = np.log(np.maximum(mixing, 1e-300))[None, :] + ll
        lse = logsumexp(logw, axis=1)
        resp = np.exp(logw - lse[:, None])
        obj = _round_objective(lse, [penalty(A_k) for (_, A_k) in params])
        trace.append(obj)
        col = resp.sum(axis=0)
        if np.any(col < 1e-12):
            k_dead = int(np.argmin(col))
            worst = int(np.argmin(lse))
            warnings.warn(
                f"cluster {k_dead} collapsed; reseeding from sequence "
                f"{corpus[worst].id!r}",
                stacklevel=2,
            )
            resp[worst] = 0.0
            resp[worst, k_dead] = 1.0
            checker.streak = 0
            obj_prev = None
            continue
        if obj_prev is not None and checker.step(obj_prev, obj):
            converged = True
            break
        obj_prev = obj

    assignments = np.argmax(resp, axis=1) if n_seq else np.empty(0, np.int64)
    models = []
    for mu_k, A_k in params:
        models.append(HawkesModel(mu=mu_k, kernel=kernel_template, A=A_k.reshape(layout)))
    return ClusterResult(
        K=K,
        responsibilities=resp,
        assignments=assignments,
        models=tuple(models),
        mixing=resp.mean(axis=0) / max(float(resp.mean(axis=0).sum()), 1e-300),
        objective_trace=trace,
    )


def save_cluster(res: ClusterResult, sequence_ids, path: str, config=None) -> None:
    """The clustering document of ``hawkeskit cluster`` and of the demo."""
    dump_json(
        {
            "method": "mixture" if res.medoids is None else "distance",
            "K": int(res.K),
            "assignments": res.assignments.tolist(),
            "mixing": res.mixing.tolist(),
            "responsibilities": res.responsibilities.tolist(),
            "medoids": None if res.medoids is None else [int(i) for i in res.medoids],
            "objective_trace": [float(x) for x in res.objective_trace],
            "sequence_ids": list(sequence_ids),
            "config": config or {},
        },
        path,
    )


def cluster_purity(assignments: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of points whose cluster's dominant true label matches theirs."""
    assignments = np.asarray(assignments)
    labels = np.asarray(labels)
    if assignments.shape != labels.shape or assignments.size == 0:
        raise ValidationError("assignments and labels must be equal-length, nonempty")
    hit = 0
    for k in np.unique(assignments):
        sub = labels[assignments == k]
        hit += int(np.bincount(sub).max())
    return hit / labels.size


# ---------------------------------------------------------------------------
# alignment distance


@dataclass(frozen=True)
class DistanceParams:
    time_cost: float = 1.0
    mark_mismatch_cost: float = 1.0
    indel_cost: float = 1.0

    def __post_init__(self):
        for name in ("time_cost", "mark_mismatch_cost", "indel_cost"):
            _check_real(name, getattr(self, name), 0)


# Largest padded DP row block (partners x columns) one batch may hold.
_DP_BATCH_CELLS = 1 << 18


def _dp_distance(ta, ma, partners, params: DistanceParams) -> np.ndarray:
    """Alignment costs of one sequence (times ta, marks ma) against each partner.

    ``partners`` is a list of (times, marks) pairs; the sequence is the row
    side of every DP.  Partners are padded to a common width and each row of
    the recurrence runs for a whole batch at once.  A column only ever reads
    columns to its left, so padding never reaches a partner's own last
    column, and every entry is computed by the same operations as a
    pair-at-a-time DP.
    """
    out = np.empty(len(partners))
    ind = params.indel_cost
    start = 0
    while start < len(partners):
        stop = start + 1
        width = partners[start][0].size
        while stop < len(partners):
            w = max(width, partners[stop][0].size)
            if (stop + 1 - start) * (w + 1) > _DP_BATCH_CELLS:
                break
            width, stop = w, stop + 1
        batch = partners[start:stop]
        lens = np.array([tb.size for tb, _ in batch])
        tb = np.zeros((len(batch), width))
        mb = np.zeros((len(batch), width), dtype=np.int64)
        for k, (times, marks) in enumerate(batch):
            tb[k, : times.size] = times
            mb[k, : marks.size] = marks
        ladder = ind * np.arange(width + 1, dtype=np.float64)
        prev = np.tile(ladder, (len(batch), 1))
        cand = np.empty_like(prev)
        for i in range(1, ta.size + 1):
            match = params.time_cost * np.abs(ta[i - 1] - tb) + (
                params.mark_mismatch_cost * (ma[i - 1] != mb)
            )
            cand[:, 0] = i * ind
            np.minimum(prev[:, 1:] + ind, prev[:, :-1] + match, out=cand[:, 1:])
            cand -= ladder
            np.minimum.accumulate(cand, axis=1, out=prev)
            prev += ladder
        out[start:stop] = prev[np.arange(len(batch)), lens]
        start = stop
    return out


def _canonical_key(seq: EventSequence) -> tuple:
    return (len(seq), seq.times.tobytes(), seq.marks.tobytes())


def sequence_distance(
    seq_a: EventSequence, seq_b: EventSequence, params: DistanceParams = DistanceParams()
) -> float:
    """Minimal-cost monotone alignment between two event sequences.

    Matching two events costs time_cost times their time gap plus a mark
    mismatch charge; every unmatched event costs indel_cost.  Because both
    inputs are time-sorted, the optimal alignment is order-preserving and
    exact dynamic programming applies.  Arguments are canonicalized first so
    the result is symmetric to the last bit.
    """
    if seq_a.dim != seq_b.dim:
        raise ValidationError(
            f"cannot compare sequences of dim {seq_a.dim} and {seq_b.dim}"
        )
    if _canonical_key(seq_b) < _canonical_key(seq_a):
        seq_a, seq_b = seq_b, seq_a
    partner = [(seq_b.times, seq_b.marks)]
    return float(_dp_distance(seq_a.times, seq_a.marks, partner, params)[0])


def distance_matrix(corpus: Corpus, params: DistanceParams = DistanceParams()) -> np.ndarray:
    """All pairwise ``sequence_distance`` values, one batched DP per sequence.

    Sequences are ranked by the canonical key of ``sequence_distance``, so
    the sequence at each rank is the row side against every later rank,
    exactly as in the pairwise call.
    """
    n = len(corpus)
    out = np.zeros((n, n))
    order = sorted(range(n), key=lambda i: _canonical_key(corpus[i]))
    seqs = [(corpus[i].times, corpus[i].marks) for i in order]
    for r in range(n - 1):
        ta, ma = seqs[r]
        rest = np.array(order[r + 1:])
        out[order[r], rest] = out[rest, order[r]] = _dp_distance(ta, ma, seqs[r + 1:], params)
    return out


def save_distance_csv(matrix: np.ndarray, ids: list[str], path: str) -> None:
    n = matrix.shape[0]
    if len(ids) != n:
        raise ValidationError("one id per matrix row required")
    lines = ["," + ",".join(ids)]
    for i in range(n):
        lines.append(ids[i] + "," + ",".join(repr(float(x)) for x in matrix[i]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_distance_csv(path: str) -> tuple[list[str], np.ndarray]:
    header, rows = read_csv_rows(path)
    if header[0] != "":
        raise FormatError(f"{path}: expected empty corner cell")
    ids = header[1:]
    try:
        mat = np.array([[float(c) for c in row[1:]] for row in rows], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric distance ({exc})") from exc
    if mat.shape != (len(ids), len(ids)):
        raise FormatError(f"{path}: matrix shape does not match id count")
    return ids, mat


def cluster_distance(
    corpus: Corpus,
    K: int,
    params: DistanceParams = DistanceParams(),
    rng_seed: int = 0,
    max_iters: int = 100,
) -> ClusterResult:
    """k-medoids over the pairwise alignment distances.

    Seeding follows the usual spread-out rule (next medoid drawn with
    probability proportional to squared distance from the chosen set), then
    alternates nearest-medoid assignment with per-cluster medoid refresh.
    """
    n = len(corpus)
    _check_int("K", K, 1)
    _check_int("rng_seed", rng_seed, 0)
    _check_int("max_iters", max_iters, 1)
    if K > n:
        raise ValidationError(f"K={K} exceeds corpus size {n}")
    dm = distance_matrix(corpus, params)
    rng = make_rng(rng_seed)
    medoids = [int(rng.integers(n))]
    while len(medoids) < K:
        dmin = dm[:, medoids].min(axis=1)
        w = dmin * dmin
        w[medoids] = 0.0
        total = float(w.sum())
        if total <= 0.0:
            remaining = [i for i in range(n) if i not in medoids]
            medoids.append(remaining[int(rng.integers(len(remaining)))])
        else:
            medoids.append(int(rng.choice(n, p=w / total)))
    med = np.array(sorted(medoids), dtype=np.int64)
    for _ in range(max_iters):
        assign = np.argmin(dm[:, med], axis=1)
        new_med = med.copy()
        for k in range(K):
            members = np.flatnonzero(assign == k)
            if members.size:
                inner = dm[np.ix_(members, members)].sum(axis=0)
                new_med[k] = members[int(np.argmin(inner))]
        if np.array_equal(new_med, med):
            break
        med = new_med
    assign = np.argmin(dm[:, med], axis=1)
    resp = np.zeros((n, K))
    resp[np.arange(n), assign] = 1.0
    mixing = np.bincount(assign, minlength=K).astype(np.float64) / n
    cost = float(dm[np.arange(n), med[assign]].sum())
    return ClusterResult(
        K=K,
        responsibilities=resp,
        assignments=assign,
        models=(),
        mixing=mixing,
        medoids=tuple(int(i) for i in med),
        objective_trace=(cost,),
    )


# ---------------------------------------------------------------------------
# drifting infectivity


@dataclass(frozen=True, eq=False)
class TvhpModel:
    """Exponential-decay model whose infectivity interpolates over a grid.

    ``A[g]`` is the matrix in force for parents at grid time ``grid[g]``;
    between nodes it varies linearly in the parent's event time.
    """

    mu: np.ndarray
    grid: np.ndarray
    A: np.ndarray
    decay: float

    def __post_init__(self):
        mu = np.asarray(_check_real("mu", self.mu, 0))
        grid = np.asarray(_check_real("grid", self.grid))
        A = np.asarray(_check_real("A", self.A, 0))
        for arr in (mu, grid, A):
            arr.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "A", A)
        D = mu.size
        if grid.ndim != 1 or grid.size < 2:
            raise ValidationError("grid must hold at least 2 nodes")
        if np.any(np.diff(grid) <= 0):
            raise ValidationError("grid must be strictly increasing")
        if A.shape != (grid.size, D, D):
            raise ValidationError(
                f"node coefficients must have shape {(grid.size, D, D)}, got {A.shape}"
            )
        _check_real("decay", self.decay, 0, above=True)

    @property
    def dim(self) -> int:
        return int(self.mu.size)

    @property
    def n_nodes(self) -> int:
        return int(self.grid.size)


def _tvhp_features(seq: EventSequence, grid: np.ndarray, decay: float):
    """Exponential features (n, nodes·D) and exposures (nodes, D) of one sequence.

    Each event's weight is split between the two nodes bracketing its time
    by linear interpolation, so the features carry it to its children: its
    two entries sit in channels ``node·D + mark``.
    """
    if len(seq) and (seq.times[0] < grid[0] or seq.times[-1] > grid[-1]):
        raise ValidationError(
            f"sequence {seq.id!r} has events outside the grid span "
            f"[{grid[0]:g}, {grid[-1]:g}]"
        )
    D, n_nodes = seq.dim, grid.size
    pos = np.clip(np.searchsorted(grid, seq.times, side="right") - 1, 0, n_nodes - 2)
    frac = (seq.times - grid[pos]) / (grid[pos + 1] - grid[pos])
    cols = np.stack([pos * D, (pos + 1) * D], axis=1) + seq.marks[:, None]
    vals = np.stack([1.0 - frac, frac], axis=1)
    R = exp_weighted_excitation(seq.times, cols, vals, n_nodes * D, decay)
    mass = 1.0 - np.exp(-decay * (seq.t_end - seq.times))
    G = np.bincount(cols.ravel(), (vals * mass[:, None]).ravel(), n_nodes * D)
    return R, G.reshape(n_nodes, D)


def _tvhp_stats(corpus: Corpus, grid: np.ndarray, decay: float) -> _EmStats:
    """Exponential statistics with one channel per grid node and source."""
    return _EmStats(corpus, lambda seq: _tvhp_features(seq, grid, decay))


def fit_tvhp(
    corpus: Corpus,
    grid,
    decay: float,
    cfg: LearnConfig | None = None,
    beta: float = 1.0,
) -> FitReport:
    """EM for node infectivities with a squared-difference drift penalty.

    Each event's excitation evidence lands on the two grid nodes bracketing
    its PARENT's time with linear weights; node updates solve the chain
    systems of every source/target pair by one batched projected Newton
    (``_Roughness``), each pair started at whichever of its warm start and
    its unpenalized minimizer N/E has the lower surrogate, keeping the
    penalized objective nonincreasing, and ``details`` carries its counters.
    Large beta ties all nodes together and recovers the stationary fit.
    """
    cfg = cfg or LearnConfig()
    if cfg.penalty.kind != "none":
        raise ValidationError("structural penalties are not supported here")
    _check_real("beta", beta, 0)
    _check_real("decay", decay, 0, above=True)
    grid = np.asarray(_check_real("grid", grid))
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be strictly increasing with >= 2 nodes")
    stats = _tvhp_stats(corpus, grid, decay)
    smooth = _Roughness(2.0 * beta * _diff_gram(grid.size, 1))
    init = _init_params(stats, cfg.rng_seed, 0.1 / stats.dim)
    mu, A, trace, converged = _fit_from_stats(stats, cfg, init, smooth.mstep, smooth.value)
    model = TvhpModel(mu=mu, grid=grid, A=A, decay=decay)
    return _em_report(model, trace, converged, **smooth.counters(), beta=beta)


def tvhp_log_likelihood(model: TvhpModel, corpus: Corpus) -> float:
    """Exact log-likelihood of a corpus under interpolated node infectivities."""
    _check_corpus_dim(model.dim, corpus)
    stats = _tvhp_stats(corpus, model.grid, model.decay)
    lam = stats.rates(model.mu, model.A)
    if np.any(lam <= 0):
        return float("-inf")
    G, T_w, _, ev_w = stats.weighted(None)
    return -stats.nll(model.mu, model.A, lam, ev_w, G, T_w)


def tvhp_variation(model: TvhpModel) -> float:
    """Largest Frobenius deviation of any node matrix from the first node."""
    diffs = model.A - model.A[0]
    return float(np.sqrt((diffs * diffs).sum(axis=(1, 2))).max())


def save_tvhp(model: TvhpModel, path: str) -> None:
    dump_json(
        {
            "dim": model.dim,
            "decay": model.decay,
            "mu": model.mu.tolist(),
            "grid": model.grid.tolist(),
            "A": model.A.tolist(),
        },
        path,
    )


def load_tvhp(path: str) -> TvhpModel:
    doc = load_json(path)
    try:
        dim = doc["dim"]
        model = TvhpModel(
            mu=np.asarray(_json_reals(doc["mu"]), dtype=np.float64),
            grid=np.asarray(_json_reals(doc["grid"]), dtype=np.float64),
            A=np.asarray(_json_reals(doc["A"]), dtype=np.float64),
            decay=float(_json_reals(doc["decay"])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed document ({exc})") from exc
    if not _is_int(dim) or dim != model.dim:
        raise FormatError(f"{path}: dim field does not match mu length")
    return model


def save_tvhp_csv(model: TvhpModel, path: str) -> None:
    """Long-form node table (s, v, u, a), one row per node and pair."""
    lines = ["s,v,u,a"]
    for g in range(model.n_nodes):
        for v in range(model.dim):
            for u in range(model.dim):
                lines.append(
                    f"{float(model.grid[g])!r},{v},{u},{float(model.A[g, v, u])!r}"
                )
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_tvhp_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild (grid, node coefficients) from the long-form table."""
    header, rows = read_csv_rows(path)
    if header != ["s", "v", "u", "a"]:
        raise FormatError(f"{path}: expected header s,v,u,a")
    if not rows:
        raise FormatError(f"{path}: no node rows")
    try:
        recs = [(float(s), int(v), int(u), float(a)) for s, v, u, a in rows]
    except ValueError as exc:
        raise FormatError(f"{path}: malformed node row ({exc})") from exc
    if min(min(r[1], r[2]) for r in recs) < 0:
        raise FormatError(f"{path}: negative node index")
    grid = sorted({r[0] for r in recs})
    D = 1 + max(max(r[1], r[2]) for r in recs)
    A = np.zeros((len(grid), D, D))
    pos = {s: g for g, s in enumerate(grid)}
    for s, v, u, a in recs:
        A[pos[s], v, u] = a
    return np.asarray(grid), A
