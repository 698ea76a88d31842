"""End-to-end tests of the command-line surface.

Commands run in process through cli.main(argv) so exit codes are the
function's return value; one smoke test goes through the installed script.
"""

import filecmp
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hawkeskit import (
    DiscretizedKernel,
    ExponentialKernel,
    HawkesModel,
    load_corpus,
    load_distance_csv,
    load_granger,
    load_granger_dot,
    load_model,
    load_tvhp,
    load_tvhp_csv,
    read_benchmark_csv,
    read_compare_csv,
    save_corpus,
    save_model,
)
from hawkeskit import analyze, cli
from hawkeskit.analyze import cluster_distance, distance_matrix
from hawkeskit.cli import main
from hawkeskit.data import Corpus
from hawkeskit.simulate import SimConfig, simulate_branch
from hawkeskit._util import read_csv_rows


def demo_truth():
    return HawkesModel(
        mu=np.array([0.3, 0.6]),
        kernel=ExponentialKernel(decay=1.0),
        A=np.array([[0.4, 0.1], [0.2, 0.3]]),
    )


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.json"
    save_model(demo_truth(), str(path))
    return str(path)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    corpus = simulate_branch(SimConfig(demo_truth(), t_end=60.0, n_sequences=15, rng_seed=3))
    path = tmp_path_factory.mktemp("cli_data") / "corpus.json"
    save_corpus(corpus, str(path))
    return str(path)


class TestSimulate:
    def test_valid_run_writes_loadable_corpus(self, model_file, tmp_path):
        out = str(tmp_path / "c.json")
        rc = main(["simulate", "--model", model_file, "--t-end", "30",
                   "--n", "4", "--seed", "1", "--out", out])
        assert rc == 0
        corpus = load_corpus(out)
        assert len(corpus.sequences) == 4
        assert corpus.dim == 2
        for seq in corpus:
            assert seq.t_end == 30.0
            assert np.all(np.diff(seq.times) >= 0)

    def test_same_seed_twice_is_byte_identical(self, model_file, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            assert main(["simulate", "--model", model_file, "--t-end", "25",
                         "--seed", "9", "--out", out]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seeds_differ(self, model_file, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["simulate", "--model", model_file, "--t-end", "25", "--seed", "1", "--out", a])
        main(["simulate", "--model", model_file, "--t-end", "25", "--seed", "2", "--out", b])
        assert open(a).read() != open(b).read()

    def test_unknown_method_exits_2_listing_valid_ones(self, model_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", model_file, "--method", "bogus",
                  "--t-end", "10", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for name in ("branch", "ogata", "exact-exp"):
            assert name in err

    def test_intensity_grid_writes_samples_csv(self, model_file, tmp_path):
        out = str(tmp_path / "c.json")
        rc = main(["simulate", "--model", model_file, "--t-end", "10", "--seed", "4",
                   "--out", out, "--intensity-grid", "0.5"])
        assert rc == 0
        header, rows = read_csv_rows(out + ".intensity.csv")
        assert header == ["seq_id", "t", "u", "lambda"]
        # 21 grid points x 2 dimensions for the single sequence
        assert len(rows) == 21 * 2
        lam = np.array([float(r[3]) for r in rows])
        assert np.all(lam >= 0.3 - 1e-12)  # never below the smaller baseline

    @pytest.mark.parametrize(
        "step,reason",
        [("nan", "must be finite"), ("inf", "must be finite"), ("1e-300", "--max-events")],
    )
    def test_bad_intensity_grid_exits_2_and_writes_nothing(
        self, model_file, tmp_path, capsys, step, reason
    ):
        out = str(tmp_path / "c.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way to the message
            rc = main(["simulate", "--model", model_file, "--t-end", "10", "--seed", "4",
                       "--out", out, "--intensity-grid", step])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--intensity-grid" in err and reason in err
        assert os.listdir(tmp_path) == []

    def test_missing_model_file_exits_2(self, tmp_path):
        rc = main(["simulate", "--model", str(tmp_path / "nope.json"),
                   "--t-end", "10", "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_malformed_model_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["simulate", "--model", str(bad), "--t-end", "10",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_fractional_lag_count_in_model_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "grid.json"
        bad.write_text(json.dumps({
            "dim": 1, "mu": [0.3], "kernel": {"type": "discretized", "dt": 0.5, "n_lags": 2.5},
            "A": [[[0.2]], [[0.1]]],
        }))
        out = tmp_path / "x.json"
        rc = main(["simulate", "--model", str(bad), "--t-end", "10", "--out", str(out)])
        assert rc == 2
        assert "n_lags must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_horizon_exits_2(self, model_file, tmp_path):
        rc = main(["simulate", "--model", model_file, "--t-end", "-5",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_non_package_exception_exits_3_as_internal_error(
        self, model_file, tmp_path, monkeypatch, capsys
    ):
        def crash(r):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setitem(cli._DISPATCH, "simulate", crash)
        rc = main(["simulate", "--model", model_file, "--t-end", "10",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("internal error: ZeroDivisionError")

    @pytest.mark.parametrize("method", ["branch", "ogata", "exact-exp"])
    def test_event_overflow_exits_3_without_partial_file(self, model_file, tmp_path, method):
        out = tmp_path / "x.json"
        rc = main(["simulate", "--model", model_file, "--t-end", "500", "--method", method,
                   "--max-events", "10", "--out", str(out)])
        assert rc == 3
        assert not out.exists()


class TestFit:
    def test_mle_reports_convergence(self, corpus_file, tmp_path):
        out = str(tmp_path / "m.json")
        report = str(tmp_path / "r.json")
        rc = main(["fit", "--data", corpus_file, "--out", out, "--report", report,
                   "--max-iters", "300", "--tol", "1e-7"])
        assert rc == 0
        doc = json.load(open(report))
        assert doc["converged"] is True
        assert doc["iterations"] >= 1
        assert "wall_time_s" not in doc
        trace = doc["objective_trace"]
        assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))
        model = load_model(out)
        assert isinstance(model.kernel, ExponentialKernel)

    def test_ls_with_grid_kernel_saves_discretized_model(self, corpus_file, tmp_path):
        out = str(tmp_path / "m.json")
        rc = main(["fit", "--data", corpus_file, "--learner", "ls", "--kernel", "grid",
                   "--dt", "0.5", "--n-lags", "10", "--ridge", "1e-3", "--out", out])
        assert rc == 0
        assert json.load(open(out))["kernel"]["type"] == "discretized"
        model = load_model(out)
        assert isinstance(model.kernel, DiscretizedKernel)
        assert model.A.shape == (10, 2, 2)

    def test_mle_ode_fits_grid_kernel(self, corpus_file, tmp_path):
        out = str(tmp_path / "m.json")
        rc = main(["fit", "--data", corpus_file, "--learner", "mle-ode",
                   "--kernel", "grid", "--dt", "0.5", "--n-lags", "8",
                   "--max-iters", "30", "--out", out])
        assert rc == 0
        assert isinstance(load_model(out).kernel, DiscretizedKernel)

    def test_mle_ode_report_carries_newton_counters(self, corpus_file, tmp_path):
        reports = []
        report = tmp_path / "r.json"
        for _ in range(2):
            rc = main(["fit", "--data", corpus_file, "--learner", "mle-ode",
                       "--kernel", "grid", "--dt", "0.5", "--n-lags", "8",
                       "--max-iters", "30", "--out", str(tmp_path / "m.json"),
                       "--report", str(report)])
            assert rc == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
        details = json.loads(reports[0])["details"]
        assert details["newton_steps"] > 0
        assert details["objective_evals"] >= details["newton_steps"]
        assert details["clamp_count"] >= 0

    def test_incompatible_learner_kernel_pair_exits_2_with_guidance(
        self, corpus_file, tmp_path, capsys
    ):
        rc = main(["fit", "--data", corpus_file, "--learner", "mle",
                   "--kernel", "grid", "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "mle-ode" in capsys.readouterr().err

    def test_ls_rejects_penalty_flags(self, corpus_file, tmp_path):
        rc = main(["fit", "--data", corpus_file, "--learner", "ls", "--kernel", "grid",
                   "--penalty", "sparse", "--out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_fit_csv_input_is_accepted(self, tmp_path):
        csv = tmp_path / "events.csv"
        lines = ["seq_id,time,mark"]
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(0, 50, size=80))
        for ti in t:
            lines.append(f"s0,{ti:.6f},{int(rng.integers(0, 2))}")
        csv.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "m.json")
        rc = main(["fit", "--data", str(csv), "--max-iters", "40", "--out", out])
        assert rc == 0
        assert load_model(out).dim == 2


    def test_fractional_mark_in_json_corpus_exits_2(self, tmp_path, capsys):
        path = tmp_path / "frac.json"
        path.write_text(json.dumps({
            "dim": 2, "label_map": None,
            "sequences": [{"id": "s0", "t_start": 0.0, "t_end": 5.0,
                           "events": [[1.0, 0], [2.0, 0.7]]}],
        }))
        out = tmp_path / "m.json"
        rc = main(["fit", "--data", str(path), "--out", str(out)])
        assert rc == 2
        assert "integer" in capsys.readouterr().err
        assert not out.exists()


class TestGranger:
    def test_diagonal_truth_gives_exactly_self_loops(self, tmp_path):
        truth = HawkesModel(
            mu=np.array([0.4, 0.5]),
            kernel=ExponentialKernel(decay=1.0),
            A=np.array([[0.45, 0.0], [0.0, 0.35]]),
        )
        data = str(tmp_path / "d.json")
        save_corpus(
            simulate_branch(SimConfig(truth, t_end=100.0, n_sequences=40, rng_seed=5)),
            data,
        )
        out = str(tmp_path / "g.json")
        dot = str(tmp_path / "g.dot")
        rc = main(["granger", "--data", data, "--penalty", "sparse", "--weight", "1.0",
                   "--max-iters", "250", "--tol", "1e-8", "--out", out, "--dot", dot])
        assert rc == 0
        graph = load_granger(out)
        assert graph.threshold == 0.01  # built-in default applied
        np.testing.assert_array_equal(graph.adjacency, np.eye(2, dtype=bool))
        nodes, edges = load_granger_dot(dot)
        assert nodes == ["0", "1"]
        assert set(edges) == {("0", "0"), ("1", "1")}

    def test_csv_mark_labels_name_the_dot_nodes(self, tmp_path):
        csv = tmp_path / "trades.csv"
        rng = np.random.default_rng(4)
        times = np.sort(rng.uniform(0, 60, size=120))
        marks = ["buy"] + [("buy", "sell")[int(b)] for b in rng.integers(0, 2, size=119)]
        csv.write_text("seq_id,time,mark\n"
                       + "".join(f"s0,{t:.6f},{m}\n" for t, m in zip(times, marks)))
        dot = str(tmp_path / "g.dot")
        rc = main(["granger", "--data", str(csv), "--max-iters", "20",
                   "--out", str(tmp_path / "g.json"), "--dot", dot])
        assert rc == 0
        nodes, edges = load_granger_dot(dot)
        assert nodes == ["buy", "sell"]
        assert {name for edge in edges for name in edge} <= {"buy", "sell"}

    def test_grid_kernel_with_a_penalty_exits_2(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc = main(["granger", "--data", corpus_file, "--kernel", "grid", "--penalty", "sparse",
                   "--weight", "50", "--out", str(out)])
        assert rc == 2
        assert "'sparse'" in capsys.readouterr().err
        assert not out.exists()

    def test_graph_json_round_trips(self, corpus_file, tmp_path):
        out = str(tmp_path / "g.json")
        rc = main(["granger", "--data", corpus_file, "--max-iters", "150",
                   "--threshold", "0.05", "--out", out])
        assert rc == 0
        graph = load_granger(out)
        assert graph.dim == 2
        assert graph.threshold == 0.05


class TestClusterAndDistance:
    def test_mixture_clustering_writes_full_document(self, corpus_file, tmp_path):
        out = str(tmp_path / "cl.json")
        rc = main(["cluster", "--data", corpus_file, "--k", "2",
                   "--max-iters", "25", "--out", out])
        assert rc == 0
        doc = json.load(open(out))
        assert doc["method"] == "mixture"
        assert doc["K"] == 2
        assert len(doc["assignments"]) == 15
        assert len(doc["sequence_ids"]) == 15
        assert doc["medoids"] is None
        assert abs(sum(doc["mixing"]) - 1.0) < 1e-9
        assert doc["config"]["seed"] == 0

    def test_distance_clustering_reports_medoids(self, corpus_file, tmp_path):
        out = str(tmp_path / "cl.json")
        rc = main(["cluster", "--data", corpus_file, "--method", "distance",
                   "--k", "3", "--out", out])
        assert rc == 0
        doc = json.load(open(out))
        assert doc["method"] == "distance"
        assert len(doc["medoids"]) == 3
        assert all(doc["assignments"][m] == k for k, m in enumerate(doc["medoids"]))

    def test_distance_on_single_sequence_corpus_is_one_by_one_zero(self, tmp_path):
        corpus = simulate_branch(SimConfig(demo_truth(), t_end=20.0, rng_seed=0))
        data = str(tmp_path / "one.json")
        save_corpus(corpus, data)
        out = str(tmp_path / "d.csv")
        assert main(["distance", "--data", data, "--out", out]) == 0
        ids, mat = load_distance_csv(out)
        assert len(ids) == 1
        assert mat.shape == (1, 1)
        assert mat[0, 0] == 0.0

    def test_distance_matrix_matches_direct_computation(self, corpus_file, tmp_path):
        out = str(tmp_path / "d.csv")
        rc = main(["distance", "--data", corpus_file, "--time-cost", "0.5",
                   "--indel-cost", "2.0", "--out", out])
        assert rc == 0
        from hawkeskit import DistanceParams, distance_matrix

        ids, mat = load_distance_csv(out)
        corpus = load_corpus(corpus_file)
        expected = distance_matrix(
            corpus, DistanceParams(time_cost=0.5, indel_cost=2.0)
        )
        np.testing.assert_allclose(mat, expected, rtol=1e-12)
        assert ids == [seq.id for seq in corpus]

    def test_distance_clustering_passes_max_iters(self, corpus_file, tmp_path):
        # seed 0 needs more than one medoid refresh on this corpus
        corpus = load_corpus(corpus_file)
        one = cluster_distance(corpus, 2, rng_seed=0, max_iters=1)
        assert one.medoids != cluster_distance(corpus, 2, rng_seed=0).medoids
        out = str(tmp_path / "cl.json")
        assert main(["cluster", "--data", corpus_file, "--method", "distance", "--k", "2",
                     "--max-iters", "1", "--out", out]) == 0
        doc = json.load(open(out))
        assert doc["medoids"] == list(one.medoids)
        assert doc["assignments"] == one.assignments.tolist()
        assert doc["objective_trace"] == list(one.objective_trace)


class TestTvhp:
    def test_writes_model_json_and_csv(self, corpus_file, tmp_path):
        out = str(tmp_path / "tv.json")
        csv = str(tmp_path / "tv.csv")
        rc = main(["tvhp", "--data", corpus_file, "--grid", "0,20,40,60",
                   "--beta", "2.0", "--max-iters", "40", "--out", out, "--csv", csv])
        assert rc == 0
        model = load_tvhp(out)
        assert model.grid.tolist() == [0.0, 20.0, 40.0, 60.0]
        assert model.A.shape == (4, 2, 2)
        grid, A = load_tvhp_csv(csv)
        np.testing.assert_allclose(A, model.A, rtol=1e-15)

    def test_bad_grid_exits_2(self, corpus_file, tmp_path):
        rc = main(["tvhp", "--data", corpus_file, "--grid", "0,xyz",
                   "--out", str(tmp_path / "tv.json")])
        assert rc == 2


@pytest.fixture(scope="module")
def _eval_files(tmp_path_factory, model_file):
    root = tmp_path_factory.mktemp("eval")
    train = str(root / "train.json")
    test = str(root / "test.json")
    save_corpus(
        simulate_branch(SimConfig(demo_truth(), t_end=50.0, n_sequences=12, rng_seed=6)),
        train,
    )
    save_corpus(
        simulate_branch(SimConfig(demo_truth(), t_end=50.0, n_sequences=5, rng_seed=7)),
        test,
    )
    return train, test, model_file


class TestEval:
    @pytest.fixture
    def eval_files(self, _eval_files):
        return _eval_files

    def test_truth_flag_fills_error_columns(self, eval_files, tmp_path):
        train, test, truth = eval_files
        out = str(tmp_path / "cmp.csv")
        rc = main(["eval", "--train", train, "--test", test, "--truth", truth,
                   "--learners", "mle,ls", "--max-iters", "80", "--out", out])
        assert rc == 0
        rows = read_compare_csv(out)
        assert [r["name"] for r in rows] == ["mle", "ls"]
        for row in rows:
            assert row["error"] == ""
            assert row["mu_relerr"] is not None
            assert row["kernel_relerr"] is not None
            assert "wall_time_s" not in row

    def test_without_truth_error_columns_are_empty(self, eval_files, tmp_path):
        train, test, _ = eval_files
        out = str(tmp_path / "cmp.csv")
        rc = main(["eval", "--train", train, "--test", test,
                   "--learners", "mle", "--max-iters", "40", "--out", out])
        assert rc == 0
        (row,) = read_compare_csv(out)
        assert row["mu_relerr"] is None and row["kernel_relerr"] is None

    def test_unknown_learner_exits_2(self, eval_files, tmp_path):
        train, test, _ = eval_files
        rc = main(["eval", "--train", train, "--test", test,
                   "--learners", "mle,bogus", "--out", str(tmp_path / "c.csv")])
        assert rc == 2


class TestBenchmark:
    def test_table_covers_methods_and_horizons(self, model_file, tmp_path):
        out = str(tmp_path / "b.csv")
        rc = main(["benchmark", "--model", model_file, "--horizons", "10,20",
                   "--methods", "branch,ogata", "--deterministic-timing", "--out", out])
        assert rc == 0
        rows = read_benchmark_csv(out)
        assert len(rows) == 4
        assert {(r["method"], r["t_end"]) for r in rows} == {
            ("branch", 10.0), ("branch", 20.0), ("ogata", 10.0), ("ogata", 20.0)
        }
        assert all(r["wall_time_s"] == 0.0 for r in rows)

    def test_deterministic_timing_is_byte_stable(self, model_file, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (a, b):
            main(["benchmark", "--model", model_file, "--horizons", "15",
                  "--seed", "2", "--deterministic-timing", "--out", out])
        assert open(a, "rb").read() == open(b, "rb").read()


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, model_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "n": 3}))
        with_cfg = str(tmp_path / "a.json")
        explicit = str(tmp_path / "b.json")
        assert main(["simulate", "--model", model_file, "--t-end", "20",
                     "--config", str(cfg), "--out", with_cfg]) == 0
        assert main(["simulate", "--model", model_file, "--t-end", "20",
                     "--seed", "7", "--n", "3", "--out", explicit]) == 0
        assert open(with_cfg).read() == open(explicit).read()

    def test_cli_flag_beats_config_file(self, model_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7}))
        flagged = str(tmp_path / "a.json")
        explicit = str(tmp_path / "b.json")
        assert main(["simulate", "--model", model_file, "--t-end", "20",
                     "--config", str(cfg), "--seed", "9", "--out", flagged]) == 0
        assert main(["simulate", "--model", model_file, "--t-end", "20",
                     "--seed", "9", "--out", explicit]) == 0
        assert open(flagged).read() == open(explicit).read()

    def test_unknown_config_key_exits_2(self, model_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_flag": 1}))
        rc = main(["simulate", "--model", model_file, "--t-end", "20",
                   "--config", str(cfg), "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_config_is_echoed_into_report(self, corpus_file, tmp_path):
        report = str(tmp_path / "r.json")
        rc = main(["fit", "--data", corpus_file, "--max-iters", "30",
                   "--seed", "5", "--out", str(tmp_path / "m.json"),
                   "--report", report])
        assert rc == 0
        echoed = json.load(open(report))["config"]
        assert echoed["seed"] == 5
        assert echoed["max_iters"] == 30
        assert echoed["penalty"] == "none"
        assert "config" not in echoed

    def test_removed_threads_key_is_unknown_in_config(self, corpus_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 4}))
        rc = main(["fit", "--data", corpus_file, "--config", str(cfg),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2


class TestDemo:
    def test_demo_manifest_lists_eight_parsable_panels(self, tmp_path):
        out = str(tmp_path / "demo")
        assert main(["demo", "--out", out, "--seed", "0"]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        panels = manifest["panels"]
        assert sorted(panels) == list("abcdefgh")
        for fname in panels.values():
            assert os.path.exists(os.path.join(out, fname))
        # every emitted file parses under its declared schema
        load_corpus(os.path.join(out, "demo_path.json"))
        load_corpus(os.path.join(out, "demo_train.json"))
        load_corpus(os.path.join(out, "demo_test.json"))
        load_model(os.path.join(out, "truth_model.json"))
        load_model(os.path.join(out, "model_mle.json"))
        load_model(os.path.join(out, "model_ls.json"))
        load_granger(os.path.join(out, "granger.json"))
        load_granger_dot(os.path.join(out, "granger.dot"))
        load_tvhp(os.path.join(out, "tvhp.json"))
        load_tvhp_csv(os.path.join(out, "tvhp.csv"))
        load_distance_csv(os.path.join(out, "distance.csv"))
        read_benchmark_csv(os.path.join(out, "benchmark.csv"))
        read_compare_csv(os.path.join(out, "compare.csv"))
        header, rows = read_csv_rows(os.path.join(out, "intensity.csv"))
        assert header == ["seq_id", "t", "u", "lambda"]
        header, rows = read_csv_rows(os.path.join(out, "kernel_curves.csv"))
        assert header == ["lag", "v", "u", "truth", "mle", "ls"]
        assert len(rows) == 20 * 4
        header, rows = read_csv_rows(os.path.join(out, "consistency.csv"))
        assert header == ["n_sequences", "mu_relerr", "kernel_relerr"]
        assert [r[0] for r in rows] == ["10", "20", "40"]

    def test_demo_cluster_document_is_the_cluster_commands(self, tmp_path):
        out = str(tmp_path / "demo")
        assert main(["demo", "--out", out, "--seed", "0"]) == 0
        demo = json.load(open(os.path.join(out, "cluster.json")))
        # the demo clusters the first 25 training sequences by distance
        train = load_corpus(os.path.join(out, "demo_train.json"))
        data, cl = str(tmp_path / "small.json"), str(tmp_path / "cl.json")
        save_corpus(Corpus(train.sequences[:25], train.dim, train.label_map), data)
        assert main(["cluster", "--data", data, "--method", "distance", "--k", "2",
                     "--seed", "0", "--out", cl]) == 0
        doc = json.load(open(cl))
        assert list(demo) == list(doc)
        assert {k: v for k, v in demo.items() if k != "config"} == {
            k: v for k, v in doc.items() if k != "config"}
        assert demo["config"] == {"command": "demo", "seed": 0}

    def test_demo_builds_its_distance_matrix_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return distance_matrix(*args, **kwargs)

        # the demo's own call, and any call from inside the clustering
        monkeypatch.setattr(cli, "distance_matrix", counted)
        monkeypatch.setattr(analyze, "distance_matrix", counted)
        assert main(["demo", "--out", str(tmp_path / "demo"), "--seed", "0"]) == 0
        assert calls == [25]

    def test_two_runs_same_seed_are_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "d1"), str(tmp_path / "d2")
        assert main(["demo", "--out", a, "--seed", "3"]) == 0
        assert main(["demo", "--out", b, "--seed", "3"]) == 0
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == []


class TestInstalledScript:
    def test_console_entry_point_round_trip(self, model_file, tmp_path):
        out = str(tmp_path / "c.json")
        proc = subprocess.run(
            [sys.executable, "-m", "hawkeskit.cli", "simulate", "--model", model_file,
             "--t-end", "15", "--seed", "2", "--out", out],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert load_corpus(out).dim == 2

    def test_no_command_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hawkeskit.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 2

    def test_help_exits_0(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hawkeskit.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for cmd in ("simulate", "fit", "granger", "cluster", "distance",
                    "tvhp", "eval", "benchmark", "demo"):
            assert cmd in proc.stdout


def _exit_code(argv):
    """main's status, or argparse's when it refuses a value before main runs a command."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _argv(command, model, corpus, out):
    return {
        "simulate": ["simulate", "--model", model, "--t-end", "10", "--out", out("c.json")],
        "fit": ["fit", "--data", corpus, "--max-iters", "5", "--out", out("m.json"),
                "--report", out("r.json")],
        "cluster": ["cluster", "--data", corpus, "--k", "2", "--max-iters", "5",
                    "--out", out("cl.json")],
        "eval": ["eval", "--train", corpus, "--test", corpus, "--max-iters", "5",
                 "--out", out("e.csv")],
        "benchmark": ["benchmark", "--model", model, "--horizons", "5", "--out", out("b.csv")],
        "distance": ["distance", "--data", corpus, "--out", out("d.csv")],
        "granger": ["granger", "--data", corpus, "--max-iters", "5", "--out", out("g.json"),
                    "--dot", out("g.dot")],
    }[command]


def _corpus_doc(**fields):
    doc = {"dim": 2, "label_map": None,
           "sequences": [{"id": "s0", "t_start": 0.0, "t_end": 5.0,
                          "events": [[1.0, 0], [2.0, 1]]}]}
    doc.update(fields)
    return doc


_MODEL = {"dim": 2, "mu": [0.3, 0.6], "kernel": {"type": "exponential", "decay": 1.0},
          "A": [[0.4, 0.1], [0.2, 0.3]]}

_MALFORMED = [
    # config values go through argparse's types and choices, or are refused by name
    ("fit", "config", {"max_iters": "5"}, "string-int"),
    ("fit", "config", {"weight": "a"}, "string-float"),
    ("fit", "config", {"seed": 1.5}, "float-int"),
    ("fit", "config", {"seed": "x"}, "string-seed"),
    ("fit", "config", {"seed": True}, "bool-int"),
    ("fit", "config", {"seed": -1}, "negative-seed"),
    ("cluster", "config", {"seed": -1}, "cluster-negative-seed"),
    ("simulate", "config", {"seed": -1}, "simulate-negative-seed"),
    ("simulate", "config", {"n": "3"}, "string-n"),
    ("fit", "config", {"penalty": "bogus"}, "bad-choice"),
    ("fit", "config", {"kernel": "grid", "learner": "mle-ode", "n_lags": 2.5}, "float-n-lags"),
    ("cluster", "config", {"method": "bogus"}, "cluster-method"),
    ("eval", "config", {"real_timing": "no"}, "removed-switch"),
    ("fit", "config", {"tol": None}, "null"),
    ("fit", "config", {"max_iters": [5]}, "list"),
    ("benchmark", "config", {"deterministic_timing": "yes"}, "string-switch"),
    ("benchmark", "config", {"methods": ""}, "empty-methods"),
    # model documents
    ("simulate", "model", {k: v for k, v in _MODEL.items() if k != "dim"}, "no-dim"),
    ("simulate", "model", {**_MODEL, "dim": "x"}, "string-dim"),
    ("simulate", "model", {**_MODEL, "mu": ["a", 0.1]}, "string-mu"),
    ("simulate", "model", {**_MODEL, "A": [[0.4, 0.1], [0.2]]}, "ragged-A"),
    ("simulate", "model", {**_MODEL, "kernel": "exp"}, "string-kernel"),
    ("simulate", "model", {**_MODEL, "mu": [True, 0.6]}, "bool-mu"),
    ("simulate", "model", {**_MODEL, "kernel": {"type": "exponential", "decay": True}},
     "bool-decay"),
    ("simulate", "model", {**_MODEL, "kernel": {"type": "discretized", "dt": True, "n_lags": 2},
                           "A": [[[0.1, 0.0], [0.0, 0.1]]] * 2}, "bool-dt"),
    ("simulate", "model", {**_MODEL, "kernel": {"type": "basis", "centers": [0.5],
                                                "bandwidth": True, "support": 3.0},
                           "A": [[[0.1, 0.0], [0.0, 0.1]]]}, "bool-bandwidth"),
    # corpus documents
    ("fit", "corpus", _corpus_doc(dim=2.5), "float-dim"),
    ("distance", "corpus", _corpus_doc(sequences=[
        {"id": 7, "t_start": 0.0, "t_end": 5.0, "events": [[1.0, 0]]}]), "int-id"),
    ("granger", "corpus", _corpus_doc(label_map=["a", "b"]), "list-label-map"),
    ("granger", "corpus", _corpus_doc(label_map={"a": 0, "b": 5}), "label-out-of-range"),
    ("granger", "corpus", _corpus_doc(label_map={"a": 0, "b": 0}), "label-repeated"),
    ("fit", "corpus", _corpus_doc(sequences=[
        {"id": "s0", "t_start": 0.0, "t_end": 5.0, "events": [[True, 0], [2.0, 1]]}]),
     "bool-time"),
    ("fit", "corpus", _corpus_doc(sequences=[
        {"id": "s0", "t_start": 0.0, "t_end": 5.0, "events": [[1.0, 0], [2.0, True]]}]),
     "bool-mark-true"),
    ("fit", "corpus", _corpus_doc(sequences=[
        {"id": "s0", "t_start": 0.0, "t_end": 5.0, "events": [[1.0, False], [2.0, 1]]}]),
     "bool-mark-false"),
    ("fit", "corpus", _corpus_doc(sequences=[
        {"id": "s0", "t_start": False, "t_end": 5.0, "events": [[1.0, 0], [2.0, 1]]}]),
     "bool-t-start"),
    ("fit", "corpus", _corpus_doc(sequences=[
        {"id": "s0", "t_start": 0.0, "t_end": 5.0, "events": [[1.0, 0, 7], [2.0, 1]]}]),
     "event-triple"),
    ("fit", "corpus", _corpus_doc(sequences=[
        {"id": "s0", "t_start": 0.0, "t_end": 5.0, "events": [[1.0, 0, "x"], [2.0, 1]]}]),
     "event-triple-string"),
    ("fit", "corpus", _corpus_doc(sequences=[
        {"id": "s0", "t_start": 0.0, "t_end": 5.0, "events": {}}]), "object-events"),
    ("fit", "corpus", _corpus_doc(sequences=[
        {"id": "s0", "t_start": 0.0, "t_end": 5.0, "events": ""}]), "string-events"),
    ("distance", "corpus", _corpus_doc(sequences={}), "object-sequences"),
    ("distance", "corpus", _corpus_doc(sequences=""), "string-sequences"),
]


@pytest.mark.parametrize(
    "command,kind,doc", [case[:3] for case in _MALFORMED],
    ids=[f"{case[1]}-{case[3]}" for case in _MALFORMED],
)
def test_malformed_config_model_or_corpus_exits_2_writing_nothing(
    command, kind, doc, model_file, corpus_file, tmp_path
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = lambda name: str(out_dir / name)
    argv = _argv(command, str(bad) if kind == "model" else model_file,
                 str(bad) if kind == "corpus" else corpus_file, out)
    if kind == "config":
        argv += ["--config", str(bad)]
    assert _exit_code(argv) == 2
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize("command", ["simulate", "fit", "cluster", "eval", "benchmark", "granger"])
def test_negative_seed_flag_exits_2_writing_nothing(
    command, model_file, corpus_file, tmp_path, capsys
):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = _argv(command, model_file, corpus_file, lambda name: str(out_dir / name))
    assert _exit_code([*argv, "--seed", "-1"]) == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert os.listdir(out_dir) == []


def test_distance_takes_no_seed_flag(corpus_file, tmp_path, capsys):
    # the alignment distance draws no random numbers
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["distance", "--data", corpus_file, "--out", str(out_dir / "d.csv")]
    assert _exit_code([*argv, "--seed", "0"]) == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize(
    "argv,named",
    [
        (["fit", "--penalty", "lowrank", "--weight", "inf"], "--weight must be finite"),
        (["fit", "--penalty", "sparse", "--weight", "inf"], "--weight must be finite"),
        (["fit", "--learner", "mle-ode", "--alpha", "inf"], "alpha must be finite"),
        (["tvhp", "--grid", "0,30,60", "--beta", "inf"], "beta must be finite"),
        (["tvhp", "--grid", "0,nan,100"], "grid must be finite"),
        (["granger", "--threshold", "nan"], "threshold must be finite"),
        (["fit", "--learner", "ls", "--ridge", "nan"], "--ridge must be finite"),
        (["fit", "--learner", "ls", "--ridge", "inf"], "--ridge must be finite"),
        (["fit", "--tol", "inf"], "tol must be finite"),
    ],
)
def test_non_finite_knob_exits_2_writing_nothing(argv, named, corpus_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = main([argv[0], "--data", corpus_file, *argv[1:], "--out", str(out_dir / "o.json")])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize(
    "argv,named",
    [
        (["fit", "--ridge", "nan", "--bandwidth", "inf"], "--bandwidth must be finite"),
        (["fit", "--ridge", "nan"], "--ridge must be finite"),
        (["fit", "--learner", "ls", "--kernel", "grid", "--alpha=-inf"],
         "--alpha must be finite"),
        (["fit", "--learner", "mle-ode", "--weight", "nan"], "--weight must be finite"),
        (["cluster", "--k", "2", "--time-cost", "nan"], "--time-cost must be finite"),
        (["cluster", "--k", "2", "--method", "distance", "--decay", "inf"],
         "--decay must be finite"),
        (["cluster", "--k", "2", "--support", "nan"], "--support must be finite"),
    ],
)
def test_non_finite_flag_the_command_does_not_read_exits_2(
    argv, named, corpus_file, tmp_path, capsys
):
    # a report or clustering document echoes every flag, so none may be
    # non-finite, read or not
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    extra = ["--report", str(out_dir / "r.json")] if argv[0] == "fit" else []
    rc = main([argv[0], "--data", corpus_file, *argv[1:], *extra,
               "--out", str(out_dir / "o.json")])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize(
    "command,flag",
    [("eval", "--decay"), ("granger", "--dt"), ("tvhp", "--tol"), ("simulate", "--t-end")],
)
def test_every_command_refuses_a_non_finite_float_flag(
    command, flag, model_file, corpus_file, tmp_path, capsys
):
    # main() checks every float flag before dispatch, so a flag the command
    # never reads (eval's --decay for ls, granger's --dt for exp) is refused too
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = lambda name: str(out_dir / name)
    argv = {
        "eval": ["eval", "--train", corpus_file, "--test", corpus_file, "--learners", "ls",
                 "--out", out("e.csv")],
        "granger": ["granger", "--data", corpus_file, "--out", out("g.json")],
        "tvhp": ["tvhp", "--data", corpus_file, "--grid", "0,30,60", "--out", out("t.json")],
        "simulate": ["simulate", "--model", model_file, "--t-end", "10", "--out", out("c.json")],
    }[command]
    assert main([*argv, flag, "nan"]) == 2
    assert f"{flag} must be finite" in capsys.readouterr().err
    assert os.listdir(out_dir) == []


def test_an_untruncated_basis_support_is_accepted(corpus_file, tmp_path):
    out = tmp_path / "m.json"
    assert main(["fit", "--data", corpus_file, "--kernel", "basis", "--support", "inf",
                 "--max-iters", "3", "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--learners", "mle", "--kernel", "grid"], "mle-ode or ls"),
        (["--learners", "mle-ode", "--penalty", "sparse"], "--penalty must be none"),
        (["--learners", "mle-ode", "--kernel", "basis"], "--kernel grid"),
        (["--learners", "mle,ls", "--kernel", "exp"], "--kernel grid"),
    ],
)
def test_eval_refuses_flags_its_learner_cannot_use(flags, named, corpus_file, tmp_path, capsys):
    out = tmp_path / "e.csv"
    rc = main(["eval", "--train", corpus_file, "--test", corpus_file, *flags,
               "--out", str(out)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_corpus_that_is_not_utf8_exits_2(suffix, tmp_path, capsys):
    data = tmp_path / ("events" + suffix)
    data.write_bytes(b"seq_id,time,mark\ns0,1.0,0\n\xff\xfe,2.0,1\n")
    out = tmp_path / "m.json"
    assert main(["fit", "--data", str(data), "--out", str(out)]) == 2
    assert "UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_eval_conflict_is_refused_before_reading_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    rc = main(["eval", "--train", missing, "--test", missing, "--learners", "mle",
               "--kernel", "grid", "--out", str(tmp_path / "e.csv")])
    assert rc == 2
    assert "mle-ode" in capsys.readouterr().err


def test_grid_learner_without_kernel_flag_matches_kernel_grid(corpus_file, tmp_path):
    runs = []
    for kernel in ([], ["--kernel", "grid"]):
        out, report = tmp_path / "m.json", tmp_path / "r.json"
        rc = main(["fit", "--data", corpus_file, "--learner", "ls", *kernel,
                   "--dt", "0.5", "--n-lags", "10", "--out", str(out), "--report", str(report)])
        assert rc == 0
        runs.append((out.read_bytes(), report.read_bytes()))
    assert runs[0] == runs[1]
    assert json.loads(runs[0][1])["config"]["kernel"] == "grid"


def test_config_carrying_every_fit_flag_matches_the_same_flags(corpus_file, tmp_path):
    out, report = str(tmp_path / "m.json"), str(tmp_path / "r.json")
    values = {
        "data": corpus_file, "learner": "mle", "kernel": "basis", "decay": 2.0,
        "centers": "0.5,2.0", "bandwidth": 0.75, "support": 6.0, "dt": 0.5, "n_lags": 12,
        "penalty": "sparse", "weight": 0.25, "max_iters": 12, "tol": 1e-7,
        "ridge": 0.01, "alpha": 3.0, "out": out, "report": report, "seed": 4,
    }
    flags = [tok for key, val in values.items()
             for tok in ("--" + key.replace("_", "-"), str(val))]
    assert main(["fit", *flags]) == 0
    expected = open(out, "rb").read(), open(report, "rb").read()
    os.remove(out)
    os.remove(report)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert main(["fit", "--data", corpus_file, "--out", out, "--config", str(cfg)]) == 0
    assert (open(out, "rb").read(), open(report, "rb").read()) == expected
    assert json.loads(expected[1])["config"]["kernel"] == "basis"


def test_config_switch_takes_a_json_boolean(model_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"deterministic_timing": True, "methods": "branch"}))
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["benchmark", "--model", model_file, "--horizons", "5",
                 "--config", str(cfg), "--out", a]) == 0
    assert main(["benchmark", "--model", model_file, "--horizons", "5",
                 "--methods", "branch", "--deterministic-timing", "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
