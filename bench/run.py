"""hawkeskit benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload em-large --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src``.  Set-up (import plus generating and writing the inputs) is
repeated and its median reported as ``setup_s``.  Passes over the
workload's calls then repeat until ``--seconds`` is used up; every output
of every pass is checked.  Times are scaled to a whole CPU by the share of
one the host gave the process, probed around each set-up step and each
pass (``cpushare.py``).  With ``--trace 0`` the last line carries the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` passes
alternate between untraced and traced, and it carries the per-layer
metrics.  The line before it is a JSON report: environment, realised
sizes, per-task times, failures.  ``--workload all`` runs every workload
in turn, one process each, and prints a table of all metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread: single-process, steady timings on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = Path(".bench_out")
SETUP_REPEATS = 5
MIN_PASSES = 3
IMPORT_PROBE = (
    "import json, sys, time; sys.path[:0] = sys.argv[1:3]; import cpushare; "
    "b = cpushare.probe(); t = time.perf_counter(); import hawkeskit; "
    "s = time.perf_counter() - t; print(json.dumps([s, [b, cpushare.probe()]]))"
)
WORKLOAD_NAMES = ("em-large", "lag-kernels", "many-short", "cli-batch")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _import_package():
    """Import hawkeskit from this checkout; return (module, seconds)."""
    if not (SRC / "hawkeskit" / "__init__.py").is_file():
        raise ImportError(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hawkeskit

    elapsed = time.perf_counter() - t0
    if Path(hawkeskit.__file__).resolve().parent != (SRC / "hawkeskit").resolve():
        raise ImportError(f"imported hawkeskit from {hawkeskit.__file__}, not {SRC}")
    return hawkeskit, elapsed


def _probe_import():
    """Import hawkeskit in a fresh interpreter: (seconds, CPU-share probes)."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH_DIR)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def _git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "hawkeskit").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _task_summary(passes) -> dict:
    """Medians over passes of per-task seconds, and simulator throughput."""
    out = {}
    tasks = sorted({op.task for ops in passes for op in ops})
    for task in tasks:
        out[f"{task}_s"] = _median([sum(op.seconds for op in ops if op.task == task) for ops in passes])
    for name in sorted({op.name for ops in passes for op in ops if op.task == "cli"}):
        out[f"command.{name}_s"] = _median(
            [sum(op.seconds for op in ops if op.name == name) for ops in passes]
        )
    rates = []
    for ops in passes:
        sims = [op for op in ops if "events" in op.work]
        secs = sum(op.seconds for op in sims)
        if sims and secs > 0:
            rates.append(sum(op.work["events"] for op in sims) / secs)
    if rates:
        out["sim_events_per_s"] = _median(rates)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up, measure and check one workload; return the result record."""
    import cpushare

    before = cpushare.probe()
    _, import_s = _import_package()
    import_probes = [before, cpushare.probe()]
    import numpy as np

    import spans
    from workloads import WORKLOADS, Ledger

    spec = _spec()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        wl = WORKLOADS[name](seed, size, workdir)
        setup = []  # (import s, its probes, generate s, its probes) per set-up
        for k in range(SETUP_REPEATS):
            imp = (import_s, import_probes) if k == 0 else _probe_import()
            before = cpushare.probe()
            t0 = time.perf_counter()
            wl.generate()
            setup.append((*imp, time.perf_counter() - t0, [before, cpushare.probe()]))

        tracer = spans.Tracer() if trace else None
        walls = {False: [], True: []}
        layer_rows, all_spans, ledgers, probes = [], [], [], []
        check_s = []
        start = time.perf_counter()
        min_passes = 2 if trace else MIN_PASSES
        while True:
            traced = trace and len(ledgers) % 2 == 1
            L = Ledger()
            before = cpushare.probe()
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                ops = wl.run_pass(L, traced)
                wall = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            probes.append((before, cpushare.probe()))
            wl.after_pass(tracer if traced else None)
            walls[traced].append(wall)
            if traced:
                pass_spans, counts = tracer.take()
                layer_rows.append(spans.pass_metrics(pass_spans, counts, wall))
                all_spans.append({"pass": len(ledgers), "wall_s": wall, "spans": pass_spans})
            t1 = time.perf_counter()
            wl.check(L, ops, np.random.default_rng([seed, len(ledgers)]))
            check_s.append(time.perf_counter() - t1)
            ledgers.append(L)
            elapsed = time.perf_counter() - start
            typical = _median(walls[False] + walls[True]) + _median(check_s)
            # a very slow program gets fewer passes, so the run still ends in time
            enough = len(ledgers) >= min_passes or (len(ledgers) >= 2 and elapsed > 2 * seconds)
            if enough and elapsed + typical > seconds:
                break

        ops_all = [op for L in ledgers for op in L.ops]
        failed = [op for op in ops_all if not op.ok]
        # every call's time becomes its time on a whole CPU (see cpushare.py);
        # commands of cli-batch carry the probes of their own process
        fastest = min(p[1] for pair in probes + [op.probes for op in ops_all if op.probes]
                      + [x for s in setup for x in s[1::2]] for p in pair)
        setup_s = [imp * cpushare.share(ip, fastest) + gen * cpushare.share(gp, fastest)
                   for imp, ip, gen, gp in setup]
        shares = []
        for L, pair in zip(ledgers, probes):
            shares.append(cpushare.share(pair, fastest))
            for op in L.ops:
                op.seconds *= cpushare.share(op.probes, fastest) if op.probes else shares[-1]
        work = [sum(op.seconds for op in L.ops) for L in ledgers]
        untraced = [i for i in range(len(ledgers)) if not (trace and i % 2 == 1)]
        pass_s = _median([work[i] for i in untraced])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        if trace:
            values = {
                key: _median([row[key] for row in layer_rows])
                for key in layer_rows[0]
            }
            values["trace.overhead_frac"] = _median(work[1::2]) / pass_s - 1.0
            wanted = [m["name"] for m in spec["per_layer"]]
            with open(OUT_DIR / f"{name}.spans.json", "w", encoding="utf-8") as fh:
                json.dump({"workload": name, "seed": seed, "passes": all_spans}, fh)
        else:
            values = {
                "setup_s": _median(setup_s),
                "pass_s": pass_s,
                "peak_rss_mb": wl.peak_rss_kb() / 1024.0,
            }
            wanted = [m["name"] for m in spec["end_to_end"]]
        metrics = {k: {"value": float(values.get(k, 0.0)), "unit": units[k]} for k in wanted}
        report = {
            "workload": name,
            "size": size,
            "trace": int(trace),
            "env": _environment(seed),
            "sizes": wl.sizes(),
            "passes": len(ledgers),
            "pass_wall_s": walls[False],
            "traced_pass_wall_s": walls[True],
            "cpu_share": [round(x, 4) for x in shares],
            "setup_samples_s": setup_s,
            "setup_wall_s": [imp + gen for imp, _, gen, _ in setup],
            "tasks": _task_summary([ledgers[i].ops for i in untraced]),
            "op_fail_frac": len(failed) / max(len(ops_all), 1),
            "failures": [f"{op.name}: {op.error}" for op in failed[:10]],
        }
        if name == "cli-batch":
            report["command_processes"] = wl.children
        return {
            "report": report,
            "result": {
                "correct": not failed,
                "attempted": len(ops_all),
                "failed": len(failed),
                "metrics": metrics,
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Run every workload in its own process and tabulate the metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode}) {proc.stderr.strip()[-500:]}",
                  file=sys.stderr)
            return 1
        results[name] = (json.loads(lines[-2])["report"], json.loads(lines[-1]))
    print(f"{'workload':<12} {'metric':<44} {'value':>14}  unit")
    for name, (report, result) in results.items():
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        if not args.trace:
            rows += [(k, v, "events/s" if k.endswith("per_s") else "s")
                     for k, v in report["tasks"].items()]
        rows.append(("op_fail_frac", report["op_fail_frac"], "ratio"))
        rows.append(("passes", report["passes"], "count"))
        for key, val, unit in rows:
            print(f"{name:<12} {key:<44} {val:>14.6g}  {unit}")
    summary = {
        "correct": all(r["correct"] for _, r in results.values()),
        "attempted": sum(r["attempted"] for _, r in results.values()),
        "failed": sum(r["failed"] for _, r in results.values()),
        "metrics": {f"{name}.{k}": m for name, (_, r) in results.items()
                    for k, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
