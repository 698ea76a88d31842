"""Golden values for a fixed set of ``hawkeskit`` commands on one small corpus.

``cli_golden.json`` holds one entry per output file, stored as
``test_demo_golden.py`` stores the demo's: a corpus as per-sequence
summaries, every other file as its lines with each decimal or exponent
number cut out into a list of floats, compared to RTOL relative.  The
inputs are built here: three model files (exponential, basis and grid
kernels) and a two-population corpus of 8 sequences drawn from Python's
own ``random.Random``, so they do not move with the package.  Commands run
in a temporary working directory on relative paths, so the configuration
that a clustering document echoes holds no temporary path.

Rewrite the file only on purpose, from a checkout whose commands are the
reference: ``PYTHONPATH=src python tests/test_cli_golden.py --write
[ENTRY ...]``.  Named entries are rerun and every other entry keeps its
stored values; a bare ``--write`` rewrites every entry.
"""

import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from hawkeskit.cli import main
from test_demo_golden import _FLOAT, _assert_matches, _corpus_summary

GOLDEN = Path(__file__).with_name("cli_golden.json")
WANT = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}

_MODELS = {
    "exp": {"type": "exponential", "decay": 1.2},
    "basis": {"type": "basis", "centers": [0.5, 2.0], "bandwidth": 0.6, "support": 5.0},
    "grid": {"type": "discretized", "dt": 0.5, "n_lags": 4},
}
_A = {
    "exp": [[0.3, 0.1], [0.2, 0.25]],
    "basis": [[[0.2, 0.05], [0.1, 0.15]], [[0.1, 0.05], [0.05, 0.1]]],
    "grid": [[[0.1, 0.02], [0.04, 0.1]]] * 2 + [[[0.05, 0.01], [0.02, 0.05]]] * 2,
}
_FIT = ["fit", "--data", "corpus.json"]
_GRID = ["--dt", "0.5", "--n-lags", "6"]
_CLUSTER = ["cluster", "--data", "corpus.json", "--k", "2"]
# output file -> the command that writes it
COMMANDS = {
    **{f"ogata-{k}.json": ["simulate", "--model", f"model-{k}.json", "--method", "ogata",
                           "--t-end", "30", "--n", "3", "--seed", "7"] for k in _MODELS},
    "fit-mle.json": [*_FIT, "--learner", "mle", "--max-iters", "60"],
    "fit-mle-ode.json": [*_FIT, "--learner", "mle-ode", *_GRID, "--max-iters", "30"],
    "fit-ls.json": [*_FIT, "--learner", "ls", *_GRID, "--ridge", "1e-3"],
    "distance.csv": ["distance", "--data", "corpus.json"],
    "cluster-mixture.json": [*_CLUSTER, "--method", "mixture", "--max-iters", "20"],
    "cluster-distance.json": [*_CLUSTER, "--method", "distance", "--seed", "3"],
}


def _corpus_doc() -> dict:
    """Two populations of 4 sequences on [0, 40]: total rate 1 and 3, two marks."""
    rng = random.Random(20)
    seqs = []
    for i, rate in enumerate([1.0] * 4 + [3.0] * 4):
        t, events = rng.expovariate(rate), []
        while t < 40.0:
            events.append([round(t, 4), rng.randrange(2)])
            t += rng.expovariate(rate)
        seqs.append({"id": f"s{i}", "t_start": 0.0, "t_end": 40.0, "events": events})
    return {"dim": 2, "label_map": None, "sequences": seqs}


def _write_inputs() -> None:
    for name, kernel in _MODELS.items():
        doc = {"dim": 2, "mu": [0.4, 0.3], "kernel": kernel, "A": _A[name]}
        Path(f"model-{name}.json").write_text(json.dumps(doc))
    Path("corpus.json").write_text(json.dumps(_corpus_doc()))


def _summary(path: Path) -> dict:
    text = path.read_text()
    if path.name.startswith("ogata-"):
        return _corpus_summary(json.loads(text))
    return {"lines": _FLOAT.sub("{}", text).splitlines(),
            "floats": [float(x) for x in _FLOAT.findall(text)]}


def _run(names) -> dict:
    """Each named entry's summary, every command run in one scratch directory."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            _write_inputs()
            got = {}
            for name in names:
                assert main([*COMMANDS[name], "--out", name]) == 0, name
                got[name] = _summary(Path(name))
            return got
        finally:
            os.chdir(here)


@pytest.fixture(scope="module")
def outputs():
    return _run(sorted(COMMANDS))


def test_the_golden_covers_every_command():
    assert sorted(WANT) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(WANT))
def test_each_output_matches_its_golden(outputs, name):
    _assert_matches(outputs.get(name), WANT[name], name)


def _write_golden(names: list[str]) -> None:
    unknown = sorted(set(names) - COMMANDS.keys())
    if unknown:
        sys.exit(f"no command writes {unknown}; entries: {' '.join(sorted(COMMANDS))}")
    stored = dict(WANT) if names else {}
    stored.update(_run(names or sorted(COMMANDS)))
    GOLDEN.write_text(json.dumps(dict(sorted(stored.items())), indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write [ENTRY ...]")
    _write_golden(sys.argv[2:])
