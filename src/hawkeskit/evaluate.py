"""Model assessment: held-out likelihood, residual goodness of fit, and
side-by-side learner comparison tables.
"""

from __future__ import annotations

import math

import numpy as np

from ._util import atomic_write_text, read_csv_rows
from .core import (
    EventSequence,
    HawkesError,
    HawkesModel,
    ValidationError,
    event_compensators,
    log_likelihood,
)
from .data import Corpus, FormatError
from .learn import estimation_error


def heldout_loglik(model: HawkesModel, corpus: Corpus) -> dict:
    """Exact log-likelihood of held-out data under a fitted model.

    per_event divides by the total event count; a sequence containing an
    event the model gives zero intensity sends the total to -inf and flips
    the undefined flag.
    """
    per_seq = tuple(log_likelihood(model, seq) for seq in corpus)
    total = math.fsum(per_seq) if per_seq else 0.0
    n_events = corpus.n_events
    per_event = total / n_events if n_events else 0.0
    return {
        "total": total,
        "per_event": per_event,
        "per_sequence": per_seq,
        "undefined": not math.isfinite(total),
    }


def _ks_exp1(x: np.ndarray) -> float:
    """Exact one-sample Kolmogorov statistic of x against the unit exponential."""
    n = x.size
    z = np.sort(1.0 - np.exp(-x))
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - z))
    d_minus = float(np.max(z - (grid - 1.0 / n)))
    return max(d_plus, d_minus, 0.0)


def _rescaled_increments(model: HawkesModel, seq: EventSequence) -> np.ndarray:
    """Compensator increments between consecutive events of each dimension.

    Grouped by dimension, in time order within each; the first increment of
    a dimension starts at ``t_start``.
    """
    order = np.argsort(seq.marks, kind="stable")
    cum = event_compensators(model, seq)[order]
    increments = np.diff(cum, prepend=0.0)
    first = np.diff(seq.marks[order], prepend=-1) != 0
    increments[first] = cum[first]
    # differences of cumulative sums can dip below zero by rounding
    return np.maximum(increments, 0.0)


def rescaling_test(model: HawkesModel, seq: EventSequence) -> dict:
    """Time-rescaling residual test.

    For each dimension, integrated-intensity increments between that
    dimension's consecutive events are unit exponential when the model is
    the true generator.  Increments are pooled across dimensions and
    compared to Exp(1) with the exact KS statistic.  The increments are
    differences of one cumulative-compensator pass (``event_compensators``),
    so the test costs O(n D) for exponential kernels and O(n D + pairs
    within the support) for basis and grid kernels.
    """
    if model.dim != seq.dim:
        raise ValidationError(f"model dim {model.dim} != sequence dim {seq.dim}")
    n = len(seq)
    if n == 0:
        return {"ks_statistic": 0.0, "n_transformed": 0}
    return {
        "ks_statistic": _ks_exp1(_rescaled_increments(model, seq)),
        "n_transformed": n,
    }


def ks_bound(n: int) -> float:
    """Acceptance envelope for the pooled residual KS statistic."""
    if n <= 0:
        return float("inf")
    return 1.36 / math.sqrt(n) + 0.01


_COMPARE_HEADER = [
    "name",
    "per_event_ll",
    "mu_relerr",
    "kernel_relerr",
    "wall_time_s",
    "iterations",
    "error",
]


def compare_learners(
    corpus_train: Corpus,
    corpus_test: Corpus,
    specs,
    truth: HawkesModel | None = None,
) -> list[dict]:
    """Fit each (name, fit_fn) pair on train, score on test, one row per pair.

    fit_fn takes the training corpus and returns a FitReport.  A learner
    raising a package error gets its name in the error column and the run
    continues; other exceptions propagate.  The timing column is fixed at
    0.0 so emitted tables are byte-stable.
    """
    rows = []
    for name, fit_fn in specs:
        row = {
            "name": name,
            "per_event_ll": None,
            "mu_relerr": None,
            "kernel_relerr": None,
            "wall_time_s": 0.0,
            "iterations": None,
            "error": "",
        }
        try:
            report = fit_fn(corpus_train)
        except HawkesError as exc:
            row["error"] = type(exc).__name__
            rows.append(row)
            continue
        row["iterations"] = report.iterations
        row["per_event_ll"] = heldout_loglik(report.model, corpus_test)["per_event"]
        if truth is not None:
            err = estimation_error(report.model, truth)
            row["mu_relerr"] = err["mu_relerr"]
            row["kernel_relerr"] = err["kernel_relerr"]
        rows.append(row)
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_compare_csv(rows: list[dict], path: str) -> None:
    lines = [",".join(_COMPARE_HEADER)]
    for r in rows:
        lines.append(",".join(_cell(r[k]) for k in _COMPARE_HEADER))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_compare_csv(path: str) -> list[dict]:
    header, raw = read_csv_rows(path)
    if header != _COMPARE_HEADER:
        raise FormatError(f"{path}: unexpected comparison header {header}")
    rows = []
    try:
        for cells in raw:
            rec = dict(zip(header, cells))
            for key in ("per_event_ll", "mu_relerr", "kernel_relerr", "wall_time_s"):
                rec[key] = float(rec[key]) if rec[key] != "" else None
            rec["iterations"] = int(rec["iterations"]) if rec["iterations"] != "" else None
            rows.append(rec)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed comparison row ({exc})") from exc
    return rows
