"""Batch command-line interface.

Every command reads files, computes, writes files, and exits; outputs are
plot-ready data (CSV/JSON/DOT), never rendered images.  All outputs are
byte-deterministic given --seed: report files carry wall_time_s as 0.0
except `benchmark`, whose point is timing (pass --deterministic-timing
there to pin it too).

Exit codes: 0 success, 2 usage or input validation, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from ._util import atomic_write_text, dump_json, load_json
from .analyze import (
    DistanceParams,
    cluster_distance,
    cluster_mixture,
    distance_matrix,
    fit_tvhp,
    granger_graph,
    save_distance_csv,
    save_granger,
    save_granger_dot,
    save_tvhp,
    save_tvhp_csv,
)
from .core import (
    DiscretizedKernel,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesError,
    HawkesModel,
    UnsupportedKernelError,
    ValidationError,
    _check_real,
    intensity_profile,
    kernel_lag_averages,
)
from .data import (
    Corpus,
    FormatError,
    ParseError,
    SchemaError,
    load_corpus,
    load_csv,
    load_model,
    save_corpus,
    save_model,
)
from .evaluate import compare_learners, write_compare_csv
from .learn import (
    LearnConfig,
    Penalty,
    _ode_grid,
    estimation_error,
    fit_ls,
    fit_mle,
    fit_mle_ode,
)
from .simulate import (
    SimConfig,
    _METHODS,
    benchmark_simulators,
    simulate_branch,
    write_benchmark_csv,
)

_USAGE_ERRORS = (
    ValidationError,
    SchemaError,
    ParseError,
    FormatError,
    UnsupportedKernelError,
)

_PENALTY_BY_FLAG = {
    "none": "none",
    "sparse": "sparse",
    "group": "group_sparse",
    "lowrank": "low_rank",
}

_GRID_LEARNERS = ("mle-ode", "ls")


def _seed(text: str) -> int:
    """The --seed type: numpy seeds its generators from integers >= 0 only."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return value


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's subparser, by command name."""
    p = argparse.ArgumentParser(
        prog="hawkeskit",
        description="Simulate, fit, and analyze mutually exciting event streams.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=_seed, default=0, help="RNG seed, an integer >= 0")
        sp.add_argument(
            "--config", default=None, help="JSON object of flag values; typed flags win"
        )

    def kernel_flags(sp, kernel):
        sp.add_argument("--kernel", choices=["exp", "basis", "grid"], default=kernel)
        sp.add_argument("--decay", type=float, default=1.0, help="exp kernel decay rate")
        sp.add_argument("--centers", default="0.5,1.5,3.0", help="comma list of basis centers")
        sp.add_argument("--bandwidth", type=float, default=0.5, help="basis width")
        sp.add_argument("--support", type=float, default=10.0, help="basis truncation lag")
        sp.add_argument("--dt", type=float, default=0.25, help="grid kernel lag width")
        sp.add_argument("--n-lags", type=int, default=20, help="grid kernel lag count")

    def learn_flags(sp):
        sp.add_argument("--penalty", choices=sorted(_PENALTY_BY_FLAG), default="none")
        sp.add_argument("--weight", type=float, default=0.1, help="penalty weight")
        sp.add_argument("--max-iters", type=int, default=200)
        sp.add_argument("--tol", type=float, default=1e-6)

    def learner_flags(sp, ridge):
        # --kernel has no default: mle fits exp unless told basis, the
        # lag-grid learners fit the grid of --dt/--n-lags
        kernel_flags(sp, None)
        learn_flags(sp)
        sp.add_argument("--ridge", type=float, default=ridge, help="ls regularizer")
        sp.add_argument("--alpha", type=float, default=10.0, help="mle-ode curvature weight")

    def distance_flags(sp):
        sp.add_argument("--time-cost", type=float, default=1.0)
        sp.add_argument("--mark-cost", type=float, default=1.0)
        sp.add_argument("--indel-cost", type=float, default=1.0)

    sp = sub.add_parser("simulate", help="draw sequences from a model file")
    sp.add_argument("--model", required=True)
    sp.add_argument("--method", choices=sorted(_METHODS), default="branch")
    sp.add_argument("--t-end", type=float, required=True)
    sp.add_argument("--n", type=int, default=1, help="number of sequences")
    sp.add_argument("--max-events", type=int, default=1_000_000)
    sp.add_argument("--out", required=True, help="corpus JSON destination")
    sp.add_argument(
        "--intensity-grid",
        type=float,
        default=None,
        help="also sample intensities every STEP time units to CSV",
    )
    sp.add_argument(
        "--intensity-out", default=None, help="intensity CSV path (default OUT.intensity.csv)"
    )
    common(sp)

    sp = sub.add_parser("fit", help="estimate a model from a corpus")
    sp.add_argument("--data", required=True)
    sp.add_argument("--learner", choices=["mle", *_GRID_LEARNERS], default="mle")
    learner_flags(sp, ridge=0.0)
    sp.add_argument("--out", required=True, help="model JSON destination")
    sp.add_argument("--report", default=None, help="fit report JSON destination")
    common(sp)

    sp = sub.add_parser("granger", help="threshold the fitted branching matrix")
    sp.add_argument("--data", required=True)
    kernel_flags(sp, "exp")
    learn_flags(sp)
    sp.add_argument("--threshold", type=float, default=0.01)
    sp.add_argument("--out", required=True, help="graph JSON destination")
    sp.add_argument("--dot", default=None, help="optional DOT destination")
    common(sp)

    sp = sub.add_parser("cluster", help="group sequences by model or by distance")
    sp.add_argument("--data", required=True)
    sp.add_argument("--method", choices=["mixture", "distance"], default="mixture")
    sp.add_argument("--k", type=int, required=True)
    kernel_flags(sp, "exp")
    learn_flags(sp)
    distance_flags(sp)
    sp.add_argument("--out", required=True, help="clustering JSON destination")
    common(sp)

    sp = sub.add_parser("distance", help="pairwise alignment distance matrix")
    sp.add_argument("--data", required=True)
    distance_flags(sp)
    sp.add_argument("--out", required=True, help="distance CSV destination")
    common(sp)

    sp = sub.add_parser("tvhp", help="fit node infectivities over a time grid")
    sp.add_argument("--data", required=True)
    sp.add_argument("--grid", required=True, help="comma list of node times")
    sp.add_argument("--decay", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=1.0, help="drift penalty weight")
    sp.add_argument("--max-iters", type=int, default=200)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--out", required=True, help="model JSON destination")
    sp.add_argument("--csv", default=None, help="optional long-form CSV destination")
    common(sp)

    sp = sub.add_parser("eval", help="fit on train, score learners on test")
    sp.add_argument("--train", required=True)
    sp.add_argument("--test", required=True)
    sp.add_argument("--learners", default="mle", help="comma list from {mle,mle-ode,ls}")
    learner_flags(sp, ridge=1e-3)
    sp.add_argument("--truth", default=None, help="reference model JSON for error columns")
    sp.add_argument("--out", required=True, help="comparison CSV destination")
    common(sp)

    sp = sub.add_parser("benchmark", help="time each simulator over horizons")
    sp.add_argument("--model", required=True)
    sp.add_argument("--horizons", required=True, help="comma list of end times")
    sp.add_argument(
        "--methods", default="branch,ogata,exact-exp", help="comma list of simulator names"
    )
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--max-events", type=int, default=1_000_000)
    sp.add_argument(
        "--deterministic-timing",
        action="store_true",
        help="write 0.0 timings for byte-stable output",
    )
    sp.add_argument("--out", required=True, help="benchmark CSV destination")
    common(sp)

    sp = sub.add_parser("demo", help="run the fixed end-to-end showcase pipeline")
    sp.add_argument("--out", required=True, help="output directory")
    common(sp)

    return p, sub.choices


def _config_tokens(sp: argparse.ArgumentParser, path: str) -> list[str]:
    """A --config file's keys as ``--flag=value`` tokens for ``sp`` to parse.

    A switch takes a JSON boolean, a numeric flag a JSON number, any other
    flag a string or number; argparse then checks each value as it checks
    the same value typed on the command line.
    """
    doc = _read(load_json, path, "config")
    if not isinstance(doc, dict):
        raise FormatError("config file must hold a JSON object")
    flags = {a.dest: a for a in sp._actions if a.option_strings}
    del flags["help"], flags["config"]
    unknown = sorted(set(doc) - set(flags))
    if unknown:
        raise ValidationError(f"config keys not recognized for {sp.prog!r}: {unknown}")
    tokens = []
    for key, val in doc.items():
        flag = flags[key]
        if flag.nargs == 0:
            if not isinstance(val, bool):
                raise ValidationError(f"config key {key!r} is a switch: give true or false")
            if val:
                tokens.append(flag.option_strings[0])
            continue
        numeric = flag.type in (int, float, _seed)
        is_number = isinstance(val, (int, float)) and not isinstance(val, bool)
        if not is_number and (numeric or not isinstance(val, str)):
            kind = "a number" if numeric else "a string or number"
            raise ValidationError(f"config key {key!r} takes {kind}, got {json.dumps(val)}")
        tokens.append(f"{flag.option_strings[0]}={val}")
    return tokens


def _parse(argv: list[str] | None) -> dict:
    """Flag values by dest; a --config file's keys go in ahead of the user's flags."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is not None:
        # argparse keeps the last value given, so the user's own flags win
        tokens = _config_tokens(commands[args.command], args.config)
        args = parser.parse_args([argv[0], *tokens, *argv[1:]])
    return vars(args)


def _echoable(resolved: dict) -> dict:
    return {k: v for k, v in sorted(resolved.items()) if k != "config"}


def _read(load, path: str, what: str):
    """``load(path)``, with an unreadable file, non-UTF-8 text or invalid JSON as a usage error."""
    try:
        return load(path)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc


def _read_corpus(path: str) -> Corpus:
    return _read(load_csv if path.endswith(".csv") else load_corpus, path, "corpus")


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"{flag} expects comma-separated numbers: {exc}") from exc
    if not vals:
        raise ValidationError(f"{flag} must list at least one number")
    return vals


def _kernel_from(kind: str, r: dict):
    if kind == "exp":
        return ExponentialKernel(decay=r["decay"])
    if kind == "basis":
        centers = _parse_float_list(r["centers"], "--centers")
        return GaussianBasisKernel(
            centers=np.asarray(centers), bandwidth=r["bandwidth"], support=r["support"]
        )
    return DiscretizedKernel(dt=r["dt"], n_lags=r["n_lags"])


def _learn_cfg(r: dict, penalty: Penalty = Penalty()) -> LearnConfig:
    return LearnConfig(
        max_iters=r["max_iters"], tol=r["tol"], penalty=penalty, rng_seed=r["seed"]
    )


def _penalty(r: dict) -> Penalty:
    return Penalty(_PENALTY_BY_FLAG[r["penalty"]], r["weight"])


def _kernel_family(name: str, r: dict) -> str:
    """The kernel family learner ``name`` fits: --kernel, else exp or grid."""
    return r["kernel"] or ("grid" if name in _GRID_LEARNERS else "exp")


def _fitter(name: str, r: dict):
    """The ``corpus -> FitReport`` callable for learner ``name``, shared by fit and eval.

    mle fits --kernel exp or basis; mle-ode and ls fit the lag grid of
    --dt/--n-lags with their own regularizer in place of --penalty.  A flag
    that contradicts the learner is a usage error, raised before any input
    is read.
    """
    family = _kernel_family(name, r)
    if name == "mle":
        if family == "grid":
            raise ValidationError(
                "--learner mle takes --kernel exp or basis; "
                "use --learner mle-ode or ls for grid kernels"
            )
        kernel, cfg = _kernel_from(family, r), _learn_cfg(r, _penalty(r))
        return lambda corpus: fit_mle(corpus, kernel, cfg)
    if name not in _GRID_LEARNERS:
        raise ValidationError(f"unknown learner {name!r}; valid: mle, mle-ode, ls")
    if family != "grid":
        raise ValidationError(f"{name} fits a lag-grid kernel; pass --kernel grid or no --kernel")
    if r["penalty"] != "none":
        own = "its curvature penalty (--alpha)" if name == "mle-ode" else "only --ridge"
        raise ValidationError(f"{name} supports {own}; --penalty must be none")
    cfg = _learn_cfg(r)
    if name == "ls":
        _kernel_from(family, r)  # refuses a bad --dt or --n-lags before any input is read
        _check_real("ridge", r["ridge"], 0)  # and --ridge
        return lambda corpus: fit_ls(corpus, r["dt"], r["n_lags"], ridge=r["ridge"], cfg=cfg)
    _ode_grid(r["dt"], r["n_lags"], r["alpha"])  # and --alpha, for mle-ode
    return lambda corpus: fit_mle_ode(corpus, r["dt"], r["n_lags"], cfg, alpha=r["alpha"])


def _node_labels(corpus: Corpus) -> list[str] | None:
    if corpus.label_map is None:
        return None
    inverse = [""] * corpus.dim
    for name, idx in corpus.label_map.items():
        inverse[idx] = str(name)
    return inverse


def _write_intensity_csv(
    model: HawkesModel, corpus: Corpus, step: float, path: str, max_points: int
):
    """Sample every dimension's intensity every ``step`` over each sequence's window.

    A grid longer than ``max_points`` per sequence is refused before any
    sampling, as the simulators refuse more than ``max_events`` events.
    """
    _check_real("--intensity-grid", step, 0, above=True)
    # float counts, so a step tiny enough to overflow still compares
    counts = [np.floor(seq.duration / step + 1e-9) + 1 for seq in corpus]
    if counts and max(counts) > max_points:
        raise ValidationError(
            f"--intensity-grid {step!r} gives {max(counts):.4g} points per sequence, "
            f"more than --max-events={max_points}"
        )
    # one format call per grid time writes its D rows
    row = "".join(f"{{0}},{{1!r}},{u},{{{u + 2}!r}}\n" for u in range(model.dim))
    text = ["seq_id,t,u,lambda\n"]
    for seq, count in zip(corpus, counts):
        ts = seq.t_start + step * np.arange(int(count))
        prof = intensity_profile(model, seq, ts)
        text.extend(map(row.format, itertools.repeat(seq.id), ts.tolist(), *prof.T.tolist()))
    atomic_write_text(path, "".join(text))


def _cmd_simulate(r: dict) -> int:
    model = _read(load_model, r["model"], "model")
    cfg = SimConfig(
        model=model,
        t_end=r["t_end"],
        n_sequences=r["n"],
        rng_seed=r["seed"],
        max_events=r["max_events"],
    )
    corpus = _METHODS[r["method"]](cfg)
    # the grid first, so a refused grid leaves no corpus behind either
    if r["intensity_grid"] is not None:
        out = r["intensity_out"] or r["out"] + ".intensity.csv"
        _write_intensity_csv(model, corpus, r["intensity_grid"], out, cfg.max_events)
    save_corpus(corpus, r["out"])
    return 0


def _fit_report_doc(report, resolved: dict) -> dict:
    return {
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        "objective_trace": [float(x) for x in report.objective_trace],
        "wall_time_s": 0.0,
        "details": {k: _json_safe(v) for k, v in report.details.items()},
        "config": _echoable(resolved),
    }


def _json_safe(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


def _cmd_fit(r: dict) -> int:
    fit = _fitter(r["learner"], r)
    report = fit(_read_corpus(r["data"]))
    save_model(report.model, r["out"])
    if r["report"]:
        # the echo names the kernel family that was fitted
        echo = {**r, "kernel": _kernel_family(r["learner"], r)}
        dump_json(_fit_report_doc(report, echo), r["report"])
    return 0


def _cmd_granger(r: dict) -> int:
    corpus = _read_corpus(r["data"])
    graph = granger_graph(
        corpus, _kernel_from(r["kernel"], r), _learn_cfg(r, _penalty(r)), threshold=r["threshold"]
    )
    save_granger(graph, r["out"])
    if r["dot"]:
        save_granger_dot(graph, r["dot"], labels=_node_labels(corpus))
    return 0


def _distance_params(r: dict) -> DistanceParams:
    return DistanceParams(
        time_cost=r["time_cost"],
        mark_mismatch_cost=r["mark_cost"],
        indel_cost=r["indel_cost"],
    )


def _cmd_cluster(r: dict) -> int:
    corpus = _read_corpus(r["data"])
    if r["method"] == "mixture":
        kernel, cfg = _kernel_from(r["kernel"], r), _learn_cfg(r, _penalty(r))
        res = cluster_mixture(corpus, r["k"], kernel, cfg)
    else:
        res = cluster_distance(
            corpus, r["k"], _distance_params(r), rng_seed=r["seed"]
        )
    doc = {
        "method": r["method"],
        "K": int(res.K),
        "assignments": [int(x) for x in res.assignments],
        "mixing": [float(x) for x in res.mixing],
        "responsibilities": [[float(x) for x in row] for row in res.responsibilities],
        "medoids": None if res.medoids is None else [int(i) for i in res.medoids],
        "objective_trace": [float(x) for x in res.objective_trace],
        "sequence_ids": [seq.id for seq in corpus],
        "config": _echoable(r),
    }
    dump_json(doc, r["out"])
    return 0


def _cmd_distance(r: dict) -> int:
    corpus = _read_corpus(r["data"])
    mat = distance_matrix(corpus, _distance_params(r))
    save_distance_csv(mat, [seq.id for seq in corpus], r["out"])
    return 0


def _cmd_tvhp(r: dict) -> int:
    corpus = _read_corpus(r["data"])
    grid = _parse_float_list(r["grid"], "--grid")
    fit = fit_tvhp(corpus, grid, decay=r["decay"], cfg=_learn_cfg(r), beta=r["beta"])
    save_tvhp(fit.model, r["out"])
    if r["csv"]:
        save_tvhp_csv(fit.model, r["csv"])
    return 0


def _cmd_eval(r: dict) -> int:
    specs = [(name, _fitter(name, r)) for name in map(str.strip, r["learners"].split(","))]
    train = _read_corpus(r["train"])
    test = _read_corpus(r["test"])
    truth = _read(load_model, r["truth"], "model") if r["truth"] else None
    write_compare_csv(compare_learners(train, test, specs, truth=truth), r["out"])
    return 0


def _cmd_benchmark(r: dict) -> int:
    model = _read(load_model, r["model"], "model")
    horizons = _parse_float_list(r["horizons"], "--horizons")
    methods = tuple(m.strip() for m in r["methods"].split(",") if m.strip())
    rows = benchmark_simulators(
        model,
        horizons,
        rng_seed=r["seed"],
        n_sequences=r["n"],
        max_events=r["max_events"],
        methods=methods,
        real_timing=not r["deterministic_timing"],
    )
    write_benchmark_csv(rows, r["out"])
    return 0


def _cmd_demo(r: dict) -> int:
    echo = {k: v for k, v in _echoable(r).items() if k != "out"}
    run_demo(r["out"], r["seed"], echo)
    return 0


def run_demo(out_dir: str, seed: int, config_echo: dict | None = None) -> dict:
    """Fixed showcase pipeline; returns the manifest that was written.

    Eight plot-data panels: (a) intensity paths, (b) simulator scaling,
    (c) kernel curves, (d) error vs corpus size, (e) learner comparison,
    (f) excitation graph, (g) drifting infectivity, (h) pairwise distances.
    Deterministic given seed; every timing field is pinned to 0.0.
    """
    os.makedirs(out_dir, exist_ok=True)
    join = lambda name: os.path.join(out_dir, name)

    truth = HawkesModel(
        mu=np.array([0.3, 0.6]),
        kernel=ExponentialKernel(decay=1.0),
        A=np.array([[0.4, 0.1], [0.2, 0.3]]),
    )
    save_model(truth, join("truth_model.json"))

    # (a) one path plus its intensity samples
    show_cfg = SimConfig(truth, t_end=40.0, n_sequences=1, rng_seed=seed)
    show = simulate_branch(show_cfg)
    save_corpus(show, join("demo_path.json"))
    _write_intensity_csv(truth, show, 0.25, join("intensity.csv"), show_cfg.max_events)

    # (b) simulator scaling table (timings pinned for byte-stable output)
    rows = benchmark_simulators(
        truth, [25.0, 50.0, 100.0], rng_seed=seed, real_timing=False
    )
    write_benchmark_csv(rows, join("benchmark.csv"))

    # training corpus shared by the learner panels
    train = simulate_branch(
        SimConfig(truth, t_end=50.0, n_sequences=60, rng_seed=seed + 1)
    )
    save_corpus(train, join("demo_train.json"))
    test = simulate_branch(
        SimConfig(truth, t_end=50.0, n_sequences=20, rng_seed=seed + 2)
    )
    save_corpus(test, join("demo_test.json"))

    cfg = LearnConfig(max_iters=150, tol=1e-7, rng_seed=seed)
    mle_report = fit_mle(train, ExponentialKernel(decay=1.0), cfg)
    save_model(mle_report.model, join("model_mle.json"))
    ls_report = fit_ls(train, 0.25, 20, ridge=1e-3, cfg=cfg)
    save_model(ls_report.model, join("model_ls.json"))

    # (c) per-bin kernel averages: truth vs both fitted shapes
    lag_dt, lag_n = 0.25, 20
    curves = {
        "truth": kernel_lag_averages(truth, lag_dt, lag_n),
        "mle": kernel_lag_averages(mle_report.model, lag_dt, lag_n),
        "ls": kernel_lag_averages(ls_report.model, lag_dt, lag_n),
    }
    lines = ["lag,v,u,truth,mle,ls"]
    for k in range(lag_n):
        lag = (k + 0.5) * lag_dt
        for v in range(2):
            for u in range(2):
                lines.append(
                    f"{lag!r},{v},{u},"
                    f"{float(curves['truth'][k, v, u])!r},"
                    f"{float(curves['mle'][k, v, u])!r},"
                    f"{float(curves['ls'][k, v, u])!r}"
                )
    atomic_write_text(join("kernel_curves.csv"), "\n".join(lines) + "\n")

    # (d) estimation error shrinking with corpus size
    lines = ["n_sequences,mu_relerr,kernel_relerr"]
    for n_seq in (10, 20, 40):
        sub = Corpus(train.sequences[:n_seq], train.dim, train.label_map)
        rep = fit_mle(sub, ExponentialKernel(decay=1.0), cfg)
        err = estimation_error(rep.model, truth)
        lines.append(
            f"{n_seq},{err['mu_relerr']:.12g},{err['kernel_relerr']:.12g}"
        )
    atomic_write_text(join("consistency.csv"), "\n".join(lines) + "\n")

    # (e) learners side by side on held-out data
    specs = [
        ("mle", lambda c: fit_mle(c, ExponentialKernel(decay=1.0), cfg)),
        ("mle-ode", lambda c: fit_mle_ode(c, 0.25, 20, cfg, alpha=10.0)),
        ("ls", lambda c: fit_ls(c, 0.25, 20, ridge=1e-3, cfg=cfg)),
    ]
    rows = compare_learners(train, test, specs, truth=truth)
    write_compare_csv(rows, join("compare.csv"))

    # (f) excitation graph from a sparse fit
    graph = granger_graph(
        train,
        ExponentialKernel(decay=1.0),
        LearnConfig(max_iters=150, tol=1e-7, penalty=Penalty("sparse", 1.0), rng_seed=seed),
        threshold=0.01,
    )
    save_granger(graph, join("granger.json"))
    save_granger_dot(graph, join("granger.dot"))

    # (g) infectivity drift over the observation window
    tv = fit_tvhp(
        train,
        [0.0, 12.5, 25.0, 37.5, 50.0],
        decay=1.0,
        cfg=LearnConfig(max_iters=60, tol=1e-7, rng_seed=seed),
        beta=2.0,
    )
    save_tvhp(tv.model, join("tvhp.json"))
    save_tvhp_csv(tv.model, join("tvhp.csv"))

    # (h) alignment distances + a distance-based clustering
    small = Corpus(train.sequences[:25], train.dim, train.label_map)
    mat = distance_matrix(small)
    save_distance_csv(mat, [seq.id for seq in small], join("distance.csv"))
    clus = cluster_distance(small, 2, rng_seed=seed)
    dump_json(
        {
            "method": "distance",
            "K": 2,
            "assignments": [int(x) for x in clus.assignments],
            "mixing": [float(x) for x in clus.mixing],
            "medoids": [int(i) for i in clus.medoids],
            "sequence_ids": [seq.id for seq in small],
        },
        join("cluster.json"),
    )

    manifest = {
        "seed": int(seed),
        "panels": {
            "a": "intensity.csv",
            "b": "benchmark.csv",
            "c": "kernel_curves.csv",
            "d": "consistency.csv",
            "e": "compare.csv",
            "f": "granger.dot",
            "g": "tvhp.csv",
            "h": "distance.csv",
        },
        "config": config_echo or {},
    }
    dump_json(manifest, join("manifest.json"))
    return manifest


_DISPATCH = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "granger": _cmd_granger,
    "cluster": _cmd_cluster,
    "distance": _cmd_distance,
    "tvhp": _cmd_tvhp,
    "eval": _cmd_eval,
    "benchmark": _cmd_benchmark,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    try:
        r = _parse(argv)
        return _DISPATCH[r["command"]](r)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HawkesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # no other exit codes: everything else is a 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
