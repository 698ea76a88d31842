"""Golden values for every file of ``hawkeskit demo --seed 0``.

``demo_golden.json`` holds one entry per output file.  The three corpora
(``demo_*.json``) are stored as per-sequence summaries: id, window, length,
mark counts, first and last time, and the exactly rounded sum of times.
Every other file is stored as its lines with each decimal or exponent
number cut out into a list of floats.  A run must match the structure
exactly (file names, keys, ids, headers, integers, marks and the text
around every number) and each float to RTOL relative, the bound at which
``em_golden.json`` compares traces: numpy builds may round ``exp`` and
``log`` differently in the last bit, so bytes are compared only between two
runs of one build, by CI.

Rewrite the file only on purpose, from a checkout whose demo is the
reference: ``PYTHONPATH=src python tests/test_demo_golden.py --write
[FILE ...]``.  Named files are rerun and every other entry keeps its stored
values, so a change that moves one file does not also record drift in the
others; a bare ``--write`` rewrites every entry.
"""

import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest

from hawkeskit.cli import main

GOLDEN = Path(__file__).with_name("demo_golden.json")
WANT = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
RTOL = 1e-12
# a number with a decimal point or an exponent; integers stay in the text
_FLOAT = re.compile(r"-?\d+(?:\.\d*(?:[eE][-+]?\d+)?|[eE][-+]?\d+)")


def _corpus_summary(doc: dict) -> dict:
    seqs = []
    for s in doc["sequences"]:
        times = [e[0] for e in s["events"]]
        counts = [0] * doc["dim"]
        for _, mark in s["events"]:
            counts[mark] += 1
        seqs.append({"id": s["id"], "t_start": s["t_start"], "t_end": s["t_end"],
                     "n": len(times), "mark_counts": counts,
                     "first": times[0] if times else None,
                     "last": times[-1] if times else None, "sum": math.fsum(times)})
    return {"dim": doc["dim"], "label_map": doc["label_map"], "sequences": seqs}


def _summary(path: Path) -> dict:
    text = path.read_text()
    if path.name.startswith("demo_"):
        return _corpus_summary(json.loads(text))
    return {"lines": _FLOAT.sub("{}", text).splitlines(),
            "floats": [float(x) for x in _FLOAT.findall(text)]}


def _run_demo() -> dict:
    with tempfile.TemporaryDirectory() as out:
        assert main(["demo", "--out", out, "--seed", "0"]) == 0
        return {p.name: _summary(p) for p in sorted(Path(out).iterdir())}


def _assert_matches(got, want, where: str) -> None:
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert abs(got - want) <= RTOL * abs(want), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{where}: keys differ"
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def demo():
    return _run_demo()


def test_the_demo_writes_the_golden_files(demo):
    assert sorted(demo) == sorted(WANT)


@pytest.mark.parametrize("name", sorted(WANT))
def test_each_demo_file_matches_its_golden(demo, name):
    _assert_matches(demo.get(name), WANT[name], name)


def _write_golden(names: list[str]) -> None:
    got = _run_demo()
    if not got.keys() >= set(names):
        sys.exit(f"the demo writes no {sorted(set(names) - got.keys())}; files: {' '.join(got)}")
    stored = dict(WANT) if names else {}
    stored.update({name: got[name] for name in names or got})
    GOLDEN.write_text(json.dumps(dict(sorted(stored.items())), indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_demo_golden.py --write [FILE ...]")
    _write_golden(sys.argv[2:])
