"""Wrapper-based span recorder for the traced benchmark run.

``Tracer.install`` wraps every public function of every hawkeskit module in
each module namespace that holds it (and in the simulators' method table),
so nested calls get parent links, e.g. ``evaluate.rescaling_test`` ->
``core.compensator``.  A span is ``(id, trace_id, parent_id, name, t0, t1)``;
spans under one top-level call share its trace id.  Spans stay in memory
until the run writes them out.  Nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# module -> layer; `_util` belongs to the data layer
LAYERS = {
    "core": "core",
    "_util": "data",
    "data": "data",
    "simulate": "simulate",
    "learn": "learn",
    "analyze": "analyze",
    "evaluate": "evaluate",
    "cli": "cli",
}
LAYER_ORDER = ("core", "data", "simulate", "learn", "analyze", "evaluate", "cli")
IMPORT_SPAN = "cli.import"
PROCESS_SPAN = "cli.process"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _dm_cells(args, kwargs, result):
    lengths = [len(s) for s in _arg(args, kwargs, 0, "corpus")]
    total = sum(lengths)
    return {"cells": (total * total - sum(n * n for n in lengths)) // 2}


def _pairs(corpus, support) -> int:
    """Lag pairs (earlier, later event) closer than a kernel's support."""
    total = 0
    for seq in corpus:
        t = seq.times
        lo = np.searchsorted(t, t - support, side="right")
        total += int((np.searchsorted(t, t, side="left") - lo).sum())
    return total


def _fit_counts(args, kwargs, result):
    corpus = _arg(args, kwargs, 0, "corpus")
    template = _arg(args, kwargs, 1, "kernel_template")
    support = getattr(template, "support", None)
    return {
        "iters": result.iterations,
        "event_iters": corpus.n_events * result.iterations,
        "pairs": 0 if support is None else _pairs(corpus, support),
    }


def _ode_counts(args, kwargs, result):
    corpus = _arg(args, kwargs, 0, "corpus")
    support = _arg(args, kwargs, 1, "dt") * _arg(args, kwargs, 2, "n_lags")
    return {"iters": result.iterations, "pairs": _pairs(corpus, support)}


def _intensity_counts(args, kwargs, result):
    support = getattr(_arg(args, kwargs, 0, "model").kernel, "support", None)
    seq = _arg(args, kwargs, 1, "seq")
    return {"pairs": 0 if support is None else _pairs([seq], support)}


# Work counters recorded at the same boundaries as the spans, from each
# call's inputs and outputs: hook(args, kwargs, result) -> {counter: value}.
COUNTERS = {
    "learn.fit_mle": _fit_counts,
    "learn.fit_mle_ode": _ode_counts,
    "core.event_intensities": _intensity_counts,
    "analyze.fit_tvhp": lambda a, k, r: {"iters": r.iterations},
    "analyze.cluster_mixture": lambda a, k, r: {"rounds": len(r.objective_trace)},
    "analyze.distance_matrix": _dm_cells,
    "evaluate.rescaling_test": lambda a, k, r: {"increments": r["n_transformed"]},
    "evaluate.heldout_loglik": lambda a, k, r: {"events": _arg(a, k, 1, "corpus").n_events},
    "simulate.simulate_branch": lambda a, k, r: {"events": r.n_events},
    "simulate.simulate_ogata": lambda a, k, r: {"events": r.n_events},
    "simulate.simulate_exact_exp": lambda a, k, r: {"events": r.n_events},
    "data.save_corpus": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "data.load_corpus": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
}


class Tracer:
    """Records spans for calls into hawkeskit while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict = defaultdict(float)
        self._stack: list[tuple[int, int]] = []
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name):
        hook = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent, root = stack[-1] if stack else (None, sid)
            stack.append((sid, root))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, root, parent, name, t0, t1))
            if hook is not None:
                for key, val in hook(args, kwargs, result).items():
                    counts[(name, key)] += val
            return result

        return wrapper

    def add_span(self, name, t0, t1):
        """Record a top-level span measured elsewhere (e.g. an import)."""
        sid = self._next
        self._next = sid + 1
        self.spans.append((sid, sid, None, name, t0, t1))

    def merge(self, spans, counts, t_spawn: float, t_exit: float) -> None:
        """Adopt spans and counters recorded by a child process.

        The child's top-level spans become children of one PROCESS_SPAN
        running from spawn to exit as seen here, so interpreter start-up
        and shutdown are covered too.  perf_counter is system-wide on Linux.
        """
        proc = self._next
        self.spans.append((proc, proc, None, PROCESS_SPAN, t_spawn, t_exit))
        base = proc + 1
        self._next = base
        for sid, root, parent, name, t0, t1 in spans:
            parent = proc if parent is None else parent + base
            self.spans.append((sid + base, proc, parent, name, t0, t1))
            self._next = max(self._next, sid + base + 1)
        for name, key, val in counts:
            self.counts[(name, key)] += val

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        # cleared in place: installed wrappers hold these containers
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        self._next = 0
        return spans, counts

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        wrappers = {}
        for short in LAYERS:
            mod = sys.modules.get(f"hawkeskit.{short}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hawkeskit" or modname.startswith("hawkeskit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        sim = sys.modules.get("hawkeskit.simulate")
        if sim is not None:
            table = sim._METHODS
            for key, obj in list(table.items()):
                if obj in wrappers:
                    self._patches.append((table, key, obj))
                    table[key] = wrappers[obj]

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches = []


def _layer(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


def pass_metrics(spans, counts, wall: float) -> dict:
    """Per-layer metrics for one traced pass of ``wall`` seconds."""
    child = defaultdict(float)
    for _, _, parent, _, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    incl = defaultdict(float)
    calls = defaultdict(int)
    self_by_layer = defaultdict(float)
    top = 0.0
    import_s = 0.0
    process_s = 0.0
    cli_cmd = defaultdict(float)
    for sid, _, parent, name, t0, t1 in spans:
        dur = t1 - t0
        if parent is None:
            top += dur
        if name == IMPORT_SPAN:
            import_s += dur
            continue
        if name == PROCESS_SPAN:
            process_s += dur - child[sid]
            continue
        if name.startswith("cli.main:"):
            cli_cmd[name.split(":", 1)[1]] += dur
            name = "cli.main"
        incl[name] += dur
        calls[name] += 1
        self_by_layer[_layer(name)] += dur - child[sid]

    def c(name, key):
        return counts.get((name, key), 0.0)

    def per(num, den, scale):
        return scale * num / den if den else 0.0

    m = {}
    fit_mle = incl["learn.fit_mle"]
    m["learn.fit_mle.s"] = fit_mle
    m["learn.fit_mle.iters"] = c("learn.fit_mle", "iters")
    m["learn.fit_mle.us_per_event_iter"] = per(fit_mle, c("learn.fit_mle", "event_iters"), 1e6)
    for name in ("learn.fit_mle_ode", "analyze.fit_tvhp"):
        m[f"{name}.s"] = incl[name]
        m[f"{name}.iters"] = c(name, "iters")
        m[f"{name}.ms_per_iter"] = per(incl[name], c(name, "iters"), 1e3)
    m["learn.fit_ls.s"] = incl["learn.fit_ls"]
    m["analyze.granger_graph.s"] = incl["analyze.granger_graph"]
    m["analyze.cluster_mixture.s"] = incl["analyze.cluster_mixture"]
    m["analyze.cluster_mixture.rounds"] = c("analyze.cluster_mixture", "rounds")
    dm = incl["analyze.distance_matrix"]
    m["analyze.distance_matrix.s"] = dm
    m["analyze.distance_matrix.cells"] = c("analyze.distance_matrix", "cells")
    m["analyze.distance_matrix.ns_per_cell"] = per(dm, c("analyze.distance_matrix", "cells"), 1e9)
    m["analyze.cluster_distance.s"] = incl["analyze.cluster_distance"]
    rt = incl["evaluate.rescaling_test"]
    m["evaluate.rescaling_test.s"] = rt
    m["evaluate.rescaling_test.increments"] = c("evaluate.rescaling_test", "increments")
    m["evaluate.rescaling_test.us_per_increment"] = per(rt, c("evaluate.rescaling_test", "increments"), 1e6)
    hl = incl["evaluate.heldout_loglik"]
    m["evaluate.heldout_loglik.s"] = hl
    m["evaluate.heldout_loglik.us_per_event"] = per(hl, c("evaluate.heldout_loglik", "events"), 1e6)
    m["core.compensator.calls"] = calls["core.compensator"]
    m["core.compensator.us_per_call"] = per(incl["core.compensator"], calls["core.compensator"], 1e6)
    for fn in (
        "log_likelihood",
        "event_intensities",
        "window_compensator",
        "exp_excitation_states",
        "exp_weighted_excitation",
        "intensity_profile",
    ):
        m[f"core.{fn}.s"] = incl[f"core.{fn}"]
    m["core.pairs"] = sum(val for (_, key), val in counts.items() if key == "pairs")
    for sim in ("simulate_branch", "simulate_ogata", "simulate_exact_exp"):
        name = f"simulate.{sim}"
        m[f"{name}.s"] = incl[name]
        m[f"{name}.events"] = c(name, "events")
        m[f"{name}.us_per_event"] = per(incl[name], c(name, "events"), 1e6)
    for fn in ("save_corpus", "load_corpus"):
        name = f"data.{fn}"
        m[f"{name}.s"] = incl[name]
        m[f"{name}.mb_per_s"] = per(c(name, "bytes"), incl[name], 1e-6)
    m["data.save_model.s"] = incl["data.save_model"]
    m["data.load_model.s"] = incl["data.load_model"]
    m["cli.import_s"] = import_s
    m["cli.process_s"] = process_s
    for cmd in ("simulate", "fit", "eval"):
        m[f"cli.{cmd}.s"] = cli_cmd[cmd]
    for layer in LAYER_ORDER:
        m[f"{layer}.self_s"] = self_by_layer[layer]
        m[f"{layer}.self_frac"] = per(self_by_layer[layer], wall, 1.0)
    m["trace.coverage"] = per(top, wall, 1.0)
    return m
