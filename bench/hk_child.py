"""Run one hawkeskit command the way the console script does, and report.

Usage: python3 bench/hk_child.py STATS_JSON TRACE(0|1) COMMAND [ARGS...]

Imports ``hawkeskit.cli`` from the checkout's ``src`` (timing the import),
runs ``main([COMMAND, *ARGS])`` and exits with its code.  STATS_JSON gets
the import time, the time in ``main``, CPU-share probes around it (untraced), this process's peak resident memory and, with TRACE=1,
the spans and work counters recorded around every public function.
"""

import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    stats_path, traced, command = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import hawkeskit.cli as cli

    t1 = time.perf_counter()
    tracer = probes = None
    if traced:
        from spans import IMPORT_SPAN, Tracer

        tracer = Tracer()
        tracer.add_span(IMPORT_SPAN, t0, t1)
        tracer.install()
    else:
        import cpushare

        probes = [cpushare.probe()]
    t_main = time.perf_counter()
    try:
        rc = cli.main(sys.argv[3:])
    finally:
        t2 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    if probes is not None:
        probes.append(cpushare.probe())
    doc = {
        "command": command,
        "rc": rc,
        "import_s": t1 - t0,
        "main_s": t2 - t_main,
        "probes": probes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        spans, counts = tracer.take()
        doc["spans"] = [
            (sid, root, parent, f"cli.main:{command}" if name == "cli.main" else name, a, b)
            for sid, root, parent, name, a, b in spans
        ]
        doc["counts"] = [(name, key, val) for (name, key), val in counts.items()]
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
