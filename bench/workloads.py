"""The four benchmark workloads.

Each workload builds its inputs from the seed (``generate``), issues a fixed
list of calls into hawkeskit per pass (``run_pass``), and checks every
output afterwards (``check``).  Generating models are fixed; only the
sampled sequences depend on the seed, so the work per pass stays steady
from seed to seed.  Sizes are per named size: ``full`` is what the
benchmark measures, ``smoke`` is a tiny run for the benchmark's own tests
(its error bounds are loose because tiny samples estimate badly).
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hawkeskit as hk

import checks
from checks import require

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "hk_child.py"
CHILD_TIMEOUT_S = 150


class Op:
    """One call into the package: its timing, result and verdict."""

    __slots__ = ("name", "task", "seconds", "result", "error", "work", "probes")

    def __init__(self, name: str, task: str):
        self.name = name
        self.task = task
        self.seconds = 0.0
        self.result = None
        self.error: str | None = None
        self.work: dict = {}
        self.probes = None  # CPU-share probes of the process that ran the call, if not this one

    @property
    def ok(self) -> bool:
        return self.error is None


class Ledger:
    """Ops of one pass; a raised exception or a failed check fails the op."""

    def __init__(self):
        self.ops: list[Op] = []

    def call(self, name: str, task: str, thunk) -> Op:
        op = Op(name, task)
        self.ops.append(op)
        t0 = time.perf_counter()
        try:
            op.result = thunk()
        except Exception as exc:  # a failing call is counted, the pass goes on
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - t0
        return op

    def verify(self, op: Op, check, *args) -> None:
        if not op.ok:
            return
        try:
            check(*args)
        except checks.CheckFailed as exc:
            op.error = f"check: {exc}"
        except Exception as exc:  # a crashing check is a failed output too
            op.error = f"check raised {type(exc).__name__}: {exc}"


def _seeds(seed: int, tag: int, n: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence([seed, tag]).generate_state(n)]


def _horizon(model, events_per_seq: float) -> float:
    rate = checks.stationary_rate(hk.branching_matrix(model), model.mu).sum()
    return float(events_per_seq / rate)


def _expected_events(model, t_end: float, n_seq: int) -> float:
    rate = checks.stationary_rate(hk.branching_matrix(model), model.mu).sum()
    return float(rate * t_end * n_seq)


def _sample_fixed(model, n_seq: int, n_events: int, seed: int, prefix: str = "s"):
    """n_seq sequences of exactly n_events events each.

    Each sequence is cut just before its (n_events+1)-th event, which then
    ends the observation window.  Fixed lengths keep the work per pass the
    same for every seed.
    """
    t_end = 1.5 * _horizon(model, n_events)
    corpus = hk.simulate_branch(hk.SimConfig(model, t_end, n_seq, seed))
    while any(len(s) <= n_events for s in corpus):
        t_end *= 2.0
        corpus = hk.simulate_branch(hk.SimConfig(model, t_end, n_seq, seed))
    return [
        hk.EventSequence(s.times[:n_events], s.marks[:n_events], 0.0,
                         float(s.times[n_events]), model.dim, f"{prefix}{i}")
        for i, s in enumerate(corpus)
    ]


def _durations(corpus) -> float:
    return float(np.mean([s.duration for s in corpus]))


class Workload:
    name = ""
    SIZES: dict = {}

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = size
        self.p = self.SIZES[size]
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def after_pass(self, tracer) -> None:
        """Collect what a pass left outside this process (nothing by default)."""

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------


class EmLarge(Workload):
    """Exponential kernel at D=20: EM contraction, Granger fit, residual test."""

    name = "em-large"
    SIZES = {
        # the iteration cap binds before tol (about 31 iterations), so every
        # seed does the same work
        "full": dict(D=20, n_train=8, n_held=10, events_per_seq=1000, tol=1e-5,
                     max_iters=12, sparse_weight=0.5, threshold=0.05,
                     err_bound=0.35, n_reference=2),
        "smoke": dict(D=3, n_train=2, n_held=2, events_per_seq=60, tol=1e-4,
                      max_iters=50, sparse_weight=0.1, threshold=0.05,
                      err_bound=10.0, n_reference=1),
    }

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        p = self.p
        D = p["D"]
        r = np.random.default_rng(20170828)
        mu = r.uniform(0.02, 0.06, D) * (20.0 / D)
        A = 0.25 * np.eye(D)
        for v in range(D):
            for u in r.choice(D, 2, replace=False):
                if u != v:
                    A[v, u] = 0.12
        self.kernel = hk.ExponentialKernel(decay=1.0)
        self.truth = hk.HawkesModel(mu=mu, kernel=self.kernel, A=A)
        self.fit_cfg = hk.LearnConfig(max_iters=p["max_iters"], tol=p["tol"])
        self.granger_cfg = hk.LearnConfig(
            max_iters=p["max_iters"], tol=p["tol"],
            penalty=hk.Penalty("sparse", p["sparse_weight"]),
        )

    def generate(self):
        p = self.p
        s_train, s_held = _seeds(self.seed, 1, 2)
        D = self.truth.dim
        self.train = hk.Corpus(
            _sample_fixed(self.truth, p["n_train"], p["events_per_seq"], s_train), D)
        self.held = hk.Corpus(
            _sample_fixed(self.truth, p["n_held"], p["events_per_seq"], s_held), D)
        hk.save_corpus(self.train, self.path("train.json"))
        hk.save_corpus(self.held, self.path("held.json"))

    def sizes(self):
        return {"D": self.truth.dim, "n_seq_train": len(self.train),
                "n_seq_held": len(self.held), "events_train": self.train.n_events,
                "events_held": self.held.n_events, "mean_duration": _durations(self.train),
                "tol": self.p["tol"], "max_iters": self.p["max_iters"]}

    def run_pass(self, L: Ledger, traced: bool = False):
        train, held, kern = self.train, self.held, self.kernel
        fit = L.call("fit_mle", "fit", lambda: hk.fit_mle(train, kern, self.fit_cfg))
        gr = L.call("granger_graph", "fit", lambda: hk.granger_graph(
            train, kern, self.granger_cfg, threshold=self.p["threshold"]))
        ho = L.call("heldout_loglik", "score",
                    lambda: hk.heldout_loglik(fit.result.model, held))
        rs = [L.call("rescaling_test", "score",
                     lambda s=s: hk.rescaling_test(fit.result.model, s)) for s in held]
        return {"fit": fit, "granger": gr, "heldout": ho, "rescaling": rs}

    def check(self, L: Ledger, ops, rng):
        bound = self.p["err_bound"]
        fit = ops["fit"]
        model = fit.result.model if fit.ok else None
        L.verify(fit, self._check_fit, fit.result, bound)
        L.verify(ops["granger"], self._check_granger, ops["granger"].result, bound)
        sample = rng.choice(len(self.held), self.p["n_reference"], replace=False)
        if model is not None:
            L.verify(ops["heldout"], checks.check_heldout, model, self.held,
                     ops["heldout"].result, sample, "heldout_loglik")
            for i, op in enumerate(ops["rescaling"]):
                L.verify(op, checks.check_rescaling, model, self.held[i], op.result,
                         f"rescaling_test[{i}]", i in sample)

    def _check_fit(self, rep, bound):
        checks.check_trace(rep.objective_trace, "fit_mle")
        require(rep.iterations == len(rep.objective_trace) - 1, "fit_mle: iteration count")
        err = hk.estimation_error(rep.model, self.truth)
        checks.check_error(err, {"mu_relerr": bound, "kernel_relerr": bound}, "fit_mle")

    def _check_granger(self, graph, bound):
        truth = self.truth.A
        err = np.linalg.norm(graph.infectivity - truth) / np.linalg.norm(truth)
        require(err <= bound, f"granger_graph: infectivity relerr {err:.3f} > {bound}")
        require(bool(np.array_equal(graph.adjacency, graph.infectivity > graph.threshold)),
                "granger_graph: adjacency is not infectivity > threshold")


# ---------------------------------------------------------------------------


class LagKernels(Workload):
    """D=2 lag kernels on long sequences: grid, drift, basis and LS learners."""

    name = "lag-kernels"
    SIZES = {
        # Iteration caps bind before the tolerance, so every seed does the
        # same number of Newton sweeps; error bounds are for those caps.
        # D=2 keeps each call short enough to time steadily (see README)
        "full": dict(D=2, n_train=4, events_per_seq=2500, dt=0.5, n_lags=10,
                     ode_iters=20, tvhp_iters=15, basis_iters=20, tol=1e-5,
                     tvhp_nodes=5, tvhp_decay=0.5, n_sim=2, sim_events_per_seq=500,
                     sim_band=0.2,
                     err_bounds=dict(ode=0.45, tvhp=0.7, basis=0.3, ls=0.4)),
        "smoke": dict(D=2, n_train=2, events_per_seq=150, dt=0.5, n_lags=10,
                      ode_iters=3, tvhp_iters=3, basis_iters=5, tol=1e-5,
                      tvhp_nodes=3, tvhp_decay=0.5, n_sim=1, sim_events_per_seq=100,
                      sim_band=0.9,
                      err_bounds=dict(ode=10.0, tvhp=10.0, basis=10.0, ls=10.0)),
    }

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        p = self.p
        D = p["D"]
        self.kernel = hk.GaussianBasisKernel(
            centers=np.array([0.5, 1.5, 3.0]), bandwidth=0.5, support=p["dt"] * p["n_lags"])
        A = np.zeros((3, D, D))
        for v in range(D):
            A[1, v, v] = 0.3
            A[2, v, (v + 1) % D] += 0.2
        self.truth = hk.HawkesModel(mu=np.full(D, 0.3), kernel=self.kernel, A=A)
        self.grid_model = hk.HawkesModel(
            mu=self.truth.mu, kernel=hk.DiscretizedKernel(p["dt"], p["n_lags"]),
            A=hk.kernel_lag_averages(self.truth, p["dt"], p["n_lags"]))
        self.sim_t_end = _horizon(self.grid_model, p["sim_events_per_seq"])
        self.ode_cfg = hk.LearnConfig(max_iters=p["ode_iters"], tol=p["tol"])
        self.tvhp_cfg = hk.LearnConfig(max_iters=p["tvhp_iters"], tol=p["tol"])
        self.basis_cfg = hk.LearnConfig(max_iters=p["basis_iters"], tol=p["tol"])

    def generate(self):
        p = self.p
        s_train, self.s_sim = _seeds(self.seed, 2, 2)
        self.train = hk.Corpus(
            _sample_fixed(self.truth, p["n_train"], p["events_per_seq"], s_train), p["D"])
        hk.save_corpus(self.train, self.path("train.json"))
        t_last = max(s.t_end for s in self.train)
        self.tvhp_grid = np.linspace(0.0, t_last, p["tvhp_nodes"])
        self.sim_cfg = hk.SimConfig(self.grid_model, self.sim_t_end, self.p["n_sim"], self.s_sim)

    def sizes(self):
        p = self.p
        return {"D": self.truth.dim, "n_seq": len(self.train),
                "events": self.train.n_events, "mean_duration": _durations(self.train),
                "n_lags": p["n_lags"], "dt": p["dt"], "ode_iters": p["ode_iters"],
                "tvhp_iters": p["tvhp_iters"], "basis_iters": p["basis_iters"],
                "tol": p["tol"], "sim_n_seq": p["n_sim"], "sim_t_end": self.sim_t_end}

    def run_pass(self, L: Ledger, traced: bool = False):
        c, p = self.train, self.p
        return {
            "ode": L.call("fit_mle_ode", "fit", lambda: hk.fit_mle_ode(
                c, p["dt"], p["n_lags"], self.ode_cfg, alpha=10.0)),
            "tvhp": L.call("fit_tvhp", "fit", lambda: hk.fit_tvhp(
                c, self.tvhp_grid, p["tvhp_decay"], self.tvhp_cfg, beta=1.0)),
            "basis": L.call("fit_mle", "fit", lambda: hk.fit_mle(c, self.kernel, self.basis_cfg)),
            "ls": L.call("fit_ls", "fit", lambda: hk.fit_ls(c, p["dt"], p["n_lags"], ridge=1e-3)),
            "ogata": L.call("simulate_ogata", "sim", lambda: hk.simulate_ogata(self.sim_cfg)),
        }

    def check(self, L: Ledger, ops, rng):
        bounds = self.p["err_bounds"]
        for key in ("ode", "basis", "ls"):
            L.verify(ops[key], self._check_fit, ops[key].result, key, bounds[key])
        L.verify(ops["tvhp"], self._check_tvhp, ops["tvhp"].result, bounds["tvhp"])
        sim = ops["ogata"]
        expected = _expected_events(self.grid_model, self.sim_t_end, self.p["n_sim"])
        L.verify(sim, checks.check_simulated, sim.result, expected, self.p["sim_band"],
                 "simulate_ogata")
        if sim.ok:
            sim.work["events"] = sim.result.n_events

    def _check_fit(self, rep, what, bound):
        checks.check_trace(rep.objective_trace, what)
        err = hk.estimation_error(rep.model, self.truth)
        checks.check_error(err, {"mu_relerr": bound, "kernel_relerr": bound}, what)

    def _check_tvhp(self, fit, bound):
        checks.check_trace(fit.objective_trace, "fit_tvhp")
        truth = hk.branching_matrix(self.truth)
        err = np.linalg.norm(fit.model.A.mean(axis=0) - truth) / np.linalg.norm(truth)
        require(err <= bound, f"fit_tvhp: node-mean infectivity relerr {err:.3f} > {bound}")


# ---------------------------------------------------------------------------


class ManyShort(Workload):
    """Many short D=2 sequences from two populations: DP, clustering, sims."""

    name = "many-short"
    SIZES = {
        # the round cap binds before tol=1e-6, so every seed runs 25 rounds
        "full": dict(n_per_pop=18, lengths=(24, 120), sim_t_end=36.0, mixture_rounds=25,
                     n_dp_reference=3, n_ks_reference=3, min_purity=0.8, mu_bound=0.3,
                     sim_band=0.2),
        "smoke": dict(n_per_pop=4, lengths=(5, 20), sim_t_end=10.0, mixture_rounds=3,
                      n_dp_reference=1, n_ks_reference=1, min_purity=0.0, mu_bound=10.0,
                      sim_band=0.9),
    }

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        A = np.array([[0.3, 0.1], [0.1, 0.3]])
        self.kernel = hk.ExponentialKernel(decay=1.0)
        self.pops = (
            hk.HawkesModel(mu=np.array([0.2, 0.2]), kernel=self.kernel, A=A),
            hk.HawkesModel(mu=np.array([1.5, 0.5]), kernel=self.kernel, A=A),
        )
        basis = hk.GaussianBasisKernel(centers=np.array([0.5, 1.5]), bandwidth=0.5, support=3.0)
        self.sim_basis = hk.HawkesModel(mu=np.array([0.7, 0.35]), kernel=basis,
                                        A=np.stack([0.5 * A, 0.5 * A]))
        self.sim_exp = hk.HawkesModel(mu=np.array([0.7, 0.35]), kernel=self.kernel, A=A)
        self.mix_cfg = hk.LearnConfig(max_iters=self.p["mixture_rounds"], tol=1e-6)

    def generate(self):
        p = self.p
        s_a, s_b, s_ogata, s_exact = _seeds(self.seed, 3, 4)
        n, T = p["n_per_pop"], p["sim_t_end"]
        len_a, len_b = p["lengths"]
        seqs = _sample_fixed(self.pops[0], n, len_a, s_a, "a")
        seqs += _sample_fixed(self.pops[1], n, len_b, s_b, "b")
        self.corpus = hk.Corpus(tuple(seqs), 2)
        self.labels = np.repeat([0, 1], n)
        hk.save_corpus(self.corpus, self.path("corpus.json"))
        n_sim = len(self.corpus)
        self.ogata_cfg = hk.SimConfig(self.sim_basis, T, n_sim, s_ogata)
        self.exact_cfg = hk.SimConfig(self.sim_exp, T, n_sim, s_exact)

    def sizes(self):
        lengths = [len(s) for s in self.corpus]
        return {"D": 2, "n_seq": len(self.corpus), "events": self.corpus.n_events,
                "mean_len": float(np.mean(lengths)), "mean_duration": _durations(self.corpus),
                "sim_t_end": self.p["sim_t_end"],
                "mixture_rounds_max": self.p["mixture_rounds"]}

    def run_pass(self, L: Ledger, traced: bool = False):
        c = self.corpus
        dm = L.call("distance_matrix", "cluster", lambda: hk.distance_matrix(c))
        cd = L.call("cluster_distance", "cluster", lambda: hk.cluster_distance(c, 2, rng_seed=0))
        cm = L.call("cluster_mixture", "cluster",
                    lambda: hk.cluster_mixture(c, 2, self.kernel, self.mix_cfg))
        rs = [
            L.call("rescaling_test", "score", lambda i=i, s=s: hk.rescaling_test(
                cm.result.models[cm.result.assignments[i]], s))
            for i, s in enumerate(c)
        ]
        ogata = L.call("simulate_ogata", "sim", lambda: hk.simulate_ogata(self.ogata_cfg))
        exact = L.call("simulate_exact_exp", "sim", lambda: hk.simulate_exact_exp(self.exact_cfg))
        return {"dm": dm, "cd": cd, "cm": cm, "rescaling": rs, "ogata": ogata, "exact": exact}

    def check(self, L: Ledger, ops, rng):
        p, c = self.p, self.corpus
        n = len(c)
        flat = rng.choice(n * (n - 1) // 2, p["n_dp_reference"], replace=False)
        iu = np.triu_indices(n, 1)
        pairs = [(int(iu[0][k]), int(iu[1][k])) for k in flat]
        L.verify(ops["dm"], checks.check_distance_matrix, ops["dm"].result, c, pairs,
                 "distance_matrix")
        dm = ops["dm"].result if ops["dm"].result is not None else hk.distance_matrix(c)
        L.verify(ops["cd"], self._check_medoids, ops["cd"].result, dm)
        cm = ops["cm"]
        mixture = cm.result if cm.ok else None
        L.verify(cm, self._check_mixture, cm.result)
        sample = set(rng.choice(n, p["n_ks_reference"], replace=False).tolist())
        for i, op in enumerate(ops["rescaling"]):
            if mixture is not None:
                model = mixture.models[mixture.assignments[i]]
                L.verify(op, checks.check_rescaling, model, c[i], op.result,
                         f"rescaling_test[{i}]", i in sample)
        for key, model in (("ogata", self.sim_basis), ("exact", self.sim_exp)):
            op = ops[key]
            expected = _expected_events(model, p["sim_t_end"], n)
            L.verify(op, checks.check_simulated, op.result, expected, p["sim_band"], op.name)
            if op.ok:
                op.work["events"] = op.result.n_events

    def _check_medoids(self, res, dm):
        # k-medoids seeding can split a population on some seeds, so the
        # check is structural: a valid partition around the returned medoids
        n = len(self.corpus)
        med = np.asarray(res.medoids)
        require(med.shape == (2,) and bool(np.all((med >= 0) & (med < n))),
                "cluster_distance: medoids out of range")
        require(bool(np.array_equal(res.assignments, np.argmin(dm[:, med], axis=1))),
                "cluster_distance: a sequence is not assigned to its nearest medoid")
        require(bool(np.all(res.assignments[med] == np.arange(2))),
                "cluster_distance: a medoid is not in its own cluster")
        cost = float(dm[np.arange(n), med[res.assignments]].sum())
        require(len(res.objective_trace) == 1 and abs(res.objective_trace[0] - cost) <= 1e-9 * cost,
                f"cluster_distance: cost {res.objective_trace} != {cost}")

    def _check_mixture(self, res):
        checks.check_trace(res.objective_trace, "cluster_mixture")
        checks.check_partition(res, self.labels, self.p["min_purity"], "cluster_mixture")
        for k, model in enumerate(res.models):
            members = self.labels[res.assignments == k]
            if members.size == 0:
                continue
            truth = self.pops[int(np.bincount(members).argmax())]
            err = np.linalg.norm(model.mu - truth.mu) / np.linalg.norm(truth.mu)
            require(err <= self.p["mu_bound"],
                    f"cluster_mixture: cluster {k} mu relerr {err:.3f} > {self.p['mu_bound']}")


# ---------------------------------------------------------------------------


class CliBatch(Workload):
    """hawkeskit commands, one process each: simulate, fit --learner ls, eval."""

    name = "cli-batch"
    SIZES = {
        "full": dict(D=5, n_train=10, n_test=20, events_per_seq=1000, grid_step=5.0,
                     dt=0.5, n_lags=10, sim_band=0.2, err_bound=0.5),
        "smoke": dict(D=2, n_train=3, n_test=2, events_per_seq=100, grid_step=5.0,
                      dt=0.5, n_lags=4, sim_band=0.9, err_bound=10.0),
    }

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        D = self.p["D"]
        A = np.full((D, D), 0.04) + 0.25 * np.eye(D)
        self.truth = hk.HawkesModel(mu=np.full(D, 0.2), kernel=hk.ExponentialKernel(1.0), A=A)
        self.t_end = _horizon(self.truth, self.p["events_per_seq"])
        self.sim_seed, self.test_seed = _seeds(seed, 4, 2)
        self.children: list[dict] = []
        self._stats: list[list] = []  # [stats path, spawn time, exit time] per command
        self._pass = 0

    def generate(self):
        hk.save_model(self.truth, self.path("model.json"))
        p = self.p
        test = _sample_fixed(self.truth, p["n_test"], p["events_per_seq"], self.test_seed)
        hk.save_corpus(hk.Corpus(test, self.truth.dim), self.path("test.json"))

    def sizes(self):
        return {"D": self.truth.dim, "n_seq": self.p["n_train"], "n_seq_test": self.p["n_test"],
                "expected_events": _expected_events(self.truth, self.t_end, self.p["n_train"]),
                "t_end": self.t_end, "grid_step": self.p["grid_step"]}

    def _command(self, L: Ledger, cmd: str, args: list[str], traced: bool) -> Op:
        stats = self.path(f"stats-{self._pass}-{cmd}.json")
        argv = [sys.executable, str(CHILD), stats, "1" if traced else "0", cmd, *args]
        span = [stats, 0.0, 0.0]
        self._stats.append(span)

        def run():
            span[1] = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            span[2] = time.perf_counter()
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                raise RuntimeError(f"exit {proc.returncode}: {tail[0]}")
            return proc

        op = L.call(cmd, "cli", run)
        span.append(op)
        return op

    def run_pass(self, L: Ledger, traced: bool = False):
        p, w = self.p, self.path
        self._pass += 1
        self._stats = []
        common = ["--kernel", "grid", "--dt", str(p["dt"]), "--n-lags", str(p["n_lags"]),
                  "--ridge", "1e-3"]
        sim = self._command(L, "simulate", [
            "--model", w("model.json"), "--t-end", repr(self.t_end), "--n", str(p["n_train"]),
            "--seed", str(self.sim_seed), "--out", w("train.json"),
            "--intensity-grid", str(p["grid_step"]), "--intensity-out", w("intensity.csv"),
        ], traced)
        fit = self._command(L, "fit", [
            "--data", w("train.json"), "--learner", "ls", *common, "--out", w("fit.json"),
        ], traced)
        ev = self._command(L, "eval", [
            "--train", w("train.json"), "--test", w("test.json"), "--learners", "ls", *common,
            "--truth", w("model.json"), "--out", w("eval.csv"),
        ], traced)
        return {"simulate": sim, "fit": fit, "eval": ev}

    def after_pass(self, tracer) -> None:
        for path, t_spawn, t_exit, op in self._stats:
            if not os.path.exists(path):
                continue
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            os.unlink(path)
            # a command's time is its main(); interpreter start and import,
            # about 0.5 s of whole-process noise, show in setup_s and the trace
            op.seconds = doc["main_s"]
            op.probes = doc.get("probes")
            self.children.append({"command": doc["command"], "maxrss_kb": doc["maxrss_kb"],
                                  "import_s": doc["import_s"], "main_s": doc["main_s"],
                                  "process_s": t_exit - t_spawn})
            if tracer is not None:
                tracer.merge(doc.get("spans", []), doc.get("counts", []), t_spawn, t_exit)

    def peak_rss_kb(self) -> int:
        return max((c["maxrss_kb"] for c in self.children), default=0)

    def check(self, L: Ledger, ops, rng):
        L.verify(ops["simulate"], self._check_simulate, ops["simulate"])
        L.verify(ops["fit"], self._check_fit)
        L.verify(ops["eval"], self._check_eval)

    def _check_simulate(self, op):
        corpus = hk.load_corpus(self.path("train.json"))
        expected = _expected_events(self.truth, self.t_end, self.p["n_train"])
        checks.check_simulated(corpus, expected, self.p["sim_band"], "simulate")
        require(len(corpus) == self.p["n_train"], "simulate: wrong sequence count")
        op.work["events"] = corpus.n_events
        step = self.p["grid_step"]
        rows = sum(int(math.floor(s.duration / step + 1e-9)) + 1 for s in corpus) * corpus.dim
        with open(self.path("intensity.csv"), encoding="utf-8") as fh:
            header = fh.readline().strip()
            lines = sum(1 for _ in fh)
        require(header == "seq_id,t,u,lambda", f"simulate: intensity header {header!r}")
        require(lines == rows, f"simulate: {lines} intensity rows, expected {rows}")

    def _check_fit(self):
        model = hk.load_model(self.path("fit.json"))
        err = hk.estimation_error(model, self.truth)
        bound = self.p["err_bound"]
        checks.check_error(err, {"mu_relerr": bound, "kernel_relerr": bound}, "fit --learner ls")

    def _check_eval(self):
        rows = hk.read_compare_csv(self.path("eval.csv"))
        require(len(rows) == 1 and rows[0]["name"] == "ls", "eval: expected one ls row")
        row = rows[0]
        require(row["error"] == "", f"eval: learner error {row['error']!r}")
        ll = row["per_event_ll"]
        require(ll is not None and math.isfinite(ll), f"eval: per_event_ll {ll}")
        kerr = row["kernel_relerr"]
        require(kerr is not None and kerr <= self.p["err_bound"],
                f"eval: kernel_relerr {kerr} > {self.p['err_bound']}")


WORKLOADS = {w.name: w for w in (EmLarge, LagKernels, ManyShort, CliBatch)}
