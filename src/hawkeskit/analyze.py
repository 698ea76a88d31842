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
    _em_map,
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
    advances each cluster ``inner_iters`` EM steps (``learn._em_map``) from
    where the last round left it, then recomputes responsibilities with
    log-sum-exp normalization.  A cluster whose total responsibility
    collapses is reseeded from the sequence the current mixture explains
    worst.
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
    mu0, A0 = _init_params(stats, cfg.rng_seed, 0.1 / stats.dim)
    lam0 = stats.rates(mu0, A0)
    rng = make_rng(cfg.rng_seed)
    resp = rng.uniform(0.5, 1.0, size=(n_seq, K))
    resp /= resp.sum(axis=1, keepdims=True)

    # each cluster's (mu, A, lam), carried from round to round
    states = [(mu0, A0.copy(), lam0) for _ in range(K)]
    trace: list[float] = []
    checker = _Converge(cfg.tol)
    obj_prev = None
    for _ in range(cfg.max_iters):
        for k in range(K):
            step = _em_map(stats, resp[:, k], mstep, penalty)[0]
            for _ in range(inner_iters):
                states[k] = step(*states[k])
        mixing = resp.mean(axis=0)
        ll = np.stack([stats.per_seq_loglik(*state) for state in states], axis=1)
        logw = np.log(np.maximum(mixing, 1e-300))[None, :] + ll
        lse = logsumexp(logw, axis=1)
        resp = np.exp(logw - lse[:, None])
        obj = _round_objective(lse, [penalty(A_k) for (_, A_k, _) in states])
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
            break
        obj_prev = obj

    assignments = np.argmax(resp, axis=1) if n_seq else np.empty(0, np.int64)
    models = tuple(HawkesModel(mu=mu_k, kernel=kernel_template, A=A_k.reshape(layout))
                   for mu_k, A_k, _ in states)
    return ClusterResult(
        K=K,
        responsibilities=resp,
        assignments=assignments,
        models=models,
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


# Largest padded DP block, pairs x (columns + 1), that one batch of more
# than _DP_BATCH_PAIRS pairs may hold: about 60 KB of buffers (ROADMAP
# item 2 says why it is not larger yet).  Every batch but the last holds at
# least _DP_BATCH_PAIRS pairs, however wide, so that pairs of long
# sequences still share each row step's numpy calls.
_DP_BATCH_CELLS = 1280
_DP_BATCH_PAIRS = 8


def _dp_distance(pairs, params: DistanceParams) -> np.ndarray:
    """Alignment costs of (row, column) sequence pairs, one row loop per batch.

    ``pairs`` is a list of ((times, marks), (times, marks)) pairs, the row
    sequence first; ``distance_matrix`` and ``sequence_distance`` put the
    shorter sequence there, so a batch's table of row events is no larger
    than its DP buffers.  Pairs are sorted by row length, longest first,
    then by column length, and cut into batches: a batch holds at least
    ``_DP_BATCH_PAIRS`` pairs, and more while it stays within
    ``_DP_BATCH_CELLS`` padded cells.  A batch keeps one DP row per pair,
    side by side in one flat buffer, so each step of the recurrence is one
    numpy call over the whole batch: reading the flat buffer one cell to the
    left gives every pair its left neighbours, and the cell that crosses
    into the next pair lands in column 0, which each row then sets.  The
    row event's time and mark are one value per pair.  The row loop runs to
    the batch's longest row.  Row i updates only the prefix of pairs with at
    least i rows, over the columns that prefix needs; a pair's cost is read
    as it leaves the prefix, and the buffers are then packed to the new
    prefix.  A column only ever reads columns to its left, so padding never
    reaches a pair's own last column, and every entry is computed by the
    same floating-point operations as a pair-at-a-time DP.
    """
    ind, tc, mc = params.indel_cost, params.time_cost, params.mark_mismatch_cost
    rows = np.array([r[0].size for r, _ in pairs], dtype=np.int64)
    cols = np.array([c[0].size for _, c in pairs], dtype=np.int64)
    order = np.lexsort((cols, -rows))
    batches, start = [], 0
    while start < order.size:
        stop, width = start + 1, int(cols[order[start]])
        while stop < order.size:
            w = max(width, int(cols[order[stop]]))
            if stop - start >= _DP_BATCH_PAIRS and (stop + 1 - start) * (w + 1) > _DP_BATCH_CELLS:
                break
            width, stop = w, stop + 1
        batches.append((order[start:stop], width))
        start = stop
    cells = max((b.size * (w + 1) for b, w in batches), default=0)
    prev_buf, cand_buf, tb_buf, tmp_buf, lad_buf = (np.empty(cells) for _ in range(5))
    mb_buf = np.empty(cells, dtype=np.int64)
    ladder = ind * np.arange(max((w for _, w in batches), default=0) + 1, dtype=np.float64)
    out = np.empty(len(pairs))

    def view(buf, n_pairs, n_cols):
        return buf[: n_pairs * n_cols].reshape(n_pairs, n_cols)

    def pack(buf, a, n_pairs, n_cols):
        # the leading block of a, moved to the front of its own buffer;
        # numpy copies through a temporary where the two overlap
        packed = view(buf, n_pairs, n_cols)
        packed[:] = a[:n_pairs, :n_cols]
        return packed

    for batch, width in batches:
        size, n_rows, n_cols = batch.size, rows[batch], cols[batch]
        # column j + 1 of a pair holds its column event j, column 0 is spare
        tb, mb = view(tb_buf, size, width + 1), view(mb_buf, size, width + 1)
        tb[:], mb[:] = 0, 0
        # ta[i - 1, k] is pair k's row event i
        ta = np.zeros((int(n_rows[0]), size))
        ma = np.zeros((int(n_rows[0]), size), dtype=np.int64)
        for k, p in enumerate(batch):
            (t_row, m_row), (t_col, m_col) = pairs[p]
            ta[: t_row.size, k], ma[: m_row.size, k] = t_row, m_row
            tb[k, 1 : t_col.size + 1], mb[k, 1 : m_col.size + 1] = t_col, m_col
        w, live, fresh = width, size, True
        prev = view(prev_buf, live, w + 1)
        prev[:] = ladder[: w + 1]
        # active[i] is how many pairs have at least i rows
        active = np.searchsorted(-n_rows, -np.arange(n_rows[0] + 2), side="right").tolist()
        for i in range(1, n_rows[0] + 2):
            if active[i] < live:
                gone = np.arange(active[i], live)
                out[batch[gone]] = prev[gone, n_cols[gone]]
                live = active[i]
                if not live:
                    break
                w, fresh = int(n_cols[:live].max()), True
                moves = ((prev_buf, prev), (tb_buf, tb), (mb_buf, mb))
                prev, tb, mb = (pack(b, a, live, w + 1) for b, a in moves)
            if fresh:  # views change only with the prefix
                fresh = False
                cand, tmp, lad = (view(b, live, w + 1) for b in (cand_buf, tmp_buf, lad_buf))
                lad[:] = ladder[: w + 1]
                # the elementwise steps run on flat views of the buffers
                bufs = (cand_buf, prev_buf, tb_buf, mb_buf, tmp_buf, lad_buf)
                cand_f, prev_f, tb_f, mb_f, tmp_f, lad_f = (b[: live * (w + 1)] for b in bufs)
                diag, up, left = cand_f[1:], prev_f[1:], prev_f[:-1]
                col0, t_rows, m_rows = cand[:, 0], ta[:, :live, None], ma[:, :live, None]
            cand[:] = t_rows[i - 1]
            np.subtract(cand_f, tb_f, out=cand_f)
            np.not_equal(m_rows[i - 1], mb, out=tmp)
            np.abs(cand_f, out=cand_f)
            np.multiply(cand_f, tc, out=cand_f)
            np.multiply(tmp_f, mc, out=tmp_f)
            np.add(cand_f, tmp_f, out=cand_f)
            np.add(left, diag, out=diag)
            np.add(up, ind, out=up)
            np.minimum(up, diag, out=diag)
            col0.fill(i * ind)
            np.subtract(cand_f, lad_f, out=cand_f)
            np.minimum.accumulate(cand, axis=1, out=prev)
            np.add(prev_f, lad_f, out=prev_f)
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
    pair = ((seq_a.times, seq_a.marks), (seq_b.times, seq_b.marks))
    return float(_dp_distance([pair], params)[0])


def distance_matrix(corpus: Corpus, params: DistanceParams = DistanceParams()) -> np.ndarray:
    """All pairwise ``sequence_distance`` values, from one DP over every pair.

    Sequences are ranked by the canonical key of ``sequence_distance``, and
    each of the n(n-1)/2 pairs puts its lower rank on the row side, exactly
    as the pairwise call does; ``_dp_distance`` then runs all of them at once.
    """
    n = len(corpus)
    order = sorted(range(n), key=lambda i: _canonical_key(corpus[i]))
    seqs = [(corpus[i].times, corpus[i].marks) for i in order]
    values = _dp_distance([(seqs[r], seqs[c]) for r in range(n) for c in range(r + 1, n)], params)
    rank = np.array(order, dtype=np.int64)
    first, second = np.triu_indices(n, 1)
    out = np.zeros((n, n))
    out[rank[first], rank[second]] = out[rank[second], rank[first]] = values
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
    """k-medoids over ``distance_matrix``; K, rng_seed and max_iters are checked first."""
    n = len(corpus)
    _check_int("K", K, 1)
    _check_int("rng_seed", rng_seed, 0)
    _check_int("max_iters", max_iters, 1)
    if K > n:
        raise ValidationError(f"K={K} exceeds corpus size {n}")
    return _kmedoids(distance_matrix(corpus, params), K, rng_seed, max_iters)


def _kmedoids(dm: np.ndarray, K: int, rng_seed: int, max_iters: int) -> ClusterResult:
    """k-medoids over an n x n matrix from ``distance_matrix``, with valid K <= n.

    Seeding follows the usual spread-out rule (next medoid drawn with
    probability proportional to squared distance from the chosen set), then
    alternates nearest-medoid assignment with per-cluster medoid refresh.
    Each medoid is assigned to its own cluster whatever the distance ties,
    so no cluster is empty.
    """
    n = dm.shape[0]
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

    def nearest(med):
        assign = np.argmin(dm[:, med], axis=1)
        assign[med] = np.arange(K)
        return assign

    med = np.array(sorted(medoids), dtype=np.int64)
    for _ in range(max_iters):
        assign = nearest(med)
        new_med = med.copy()
        for k in range(K):
            members = np.flatnonzero(assign == k)
            inner = dm[np.ix_(members, members)].sum(axis=0)
            new_med[k] = members[int(np.argmin(inner))]
        if np.array_equal(new_med, med):
            break
        med = new_med
    assign = nearest(med)
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
    its PARENT's time with linear weights; node updates lower the chain
    surrogates of every source/target pair by one batched projected Newton
    step (``_Roughness``), each pair started at whichever of its warm start
    and its unpenalized minimizer N/E has the lower surrogate: a generalized
    EM step that keeps the penalized objective nonincreasing, and
    ``details`` carries its counters.
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
