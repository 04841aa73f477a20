import dataclasses
import importlib.util
import json
import os
import pkgutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import bergepaths
from bergepaths import cli, hypergraph, weights
from bergepaths.cli import main
from bergepaths.goodsets import is_good_set
from bergepaths.hypergraph import from_edge_lists, mask_of, serialize_hypergraph
from reference import complete


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.hg"
    path.write_text("5 3\n0 1 2\n2 3 4\n")
    return str(path)


@pytest.fixture
def k53_file(tmp_path):
    path = tmp_path / "k53.hg"
    path.write_text(serialize_hypergraph(complete(5, 3)))
    return str(path)


def test_analyze_text(chain_file, capsys):
    assert main(["analyze", chain_file]) == 0
    out = capsys.readouterr().out
    assert "longest path k=2" in out
    assert "weight sum = 4/1" in out


def test_analyze_json_schema(k53_file, capsys):
    assert main(["analyze", k53_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sum"] == "5/1" and data["is_equality"] is True
    assert data["classification"] == "case_ii"
    assert data["edges"][0] == [0, 1, 2]
    assert all("/" in w["f"] for w in data["per_edge"])


def test_longest_and_p_edge(chain_file, capsys):
    assert main(["longest", chain_file]) == 0
    out = capsys.readouterr().out
    assert "k = 2" in out and "v0 -e0- v2 -e1- v3" in out
    assert main(["longest", chain_file, "--edge", "1"]) == 0
    assert "p(edge 1) = 2" in capsys.readouterr().out


def test_longest_and_goodset_on_k73(tmp_path, capsys):
    # the witness is the walk's first longest path, the least read as v0 e1 v1 ... e6 v6
    path = tmp_path / "k73.hg"
    path.write_text(serialize_hypergraph(complete(7, 3)))
    assert main(["longest", str(path)]) == 0
    out = capsys.readouterr().out
    assert "k = 6" in out and "v0 -e0- v1 -e1- v3 -e2- v2 -e5- v4 -e16- v5 -e30- v6" in out
    assert main(["goodset", str(path)]) == 0
    assert "S={0,1,2,3,4,5,6}" in capsys.readouterr().out


def test_goodset_single_and_all(k53_file, capsys):
    assert main(["goodset", k53_file]) == 0
    assert "S={0,1,2,3,4}" in capsys.readouterr().out
    # no command enumerates every good set, so --all is not an option
    with pytest.raises(SystemExit) as exit_:
        main(["goodset", k53_file, "--all"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --all" in captured.err


def test_rotate(chain_file, capsys):
    assert main(["rotate", chain_file, "--path", "0,0,2,1,3"]) == 0
    out = capsys.readouterr().out
    assert "terminals tau" in out and "ok" in out


def test_rotate_refuses_a_path_with_no_edges(chain_file, capsys):
    assert main(["rotate", chain_file, "--path", "0"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "no edges" in captured.err
    assert captured.out == ""


def test_turan(capsys):
    assert main(["turan", "--n", "5", "--r", "3", "--k", "3"]) == 0
    assert capsys.readouterr().out == (
        "ex_3(5, BP_3) = 2  bound n*f_r(k-1) = 5/2\n"
        "extremal witness:\n"
        "  {0,1,2}\n"
        "  {0,1,3}\n"
    )


def test_turan_fails_a_result_over_its_bound(monkeypatch, capsys):
    real = weights.turan_exact(5, 3, 3)
    monkeypatch.setattr(
        cli, "turan_exact", lambda n, r, k: dataclasses.replace(real, paper_bound=Fraction(0))
    )
    assert main(["turan", "--n", "5", "--r", "3", "--k", "3"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "FAIL: exact 2 exceeds bound 0/1"
    assert out.count("FAIL:") == 1


def test_turan_refuses_too_many_slots_before_building_them(monkeypatch, capsys):
    # C(40, 20) slots would not fit in memory: the cap must be checked first
    def no_slots(n, r):
        raise AssertionError(f"built the slots of C({n},{r})")

    monkeypatch.setattr(weights, "possible_edges", no_slots)
    assert main(["turan", "--n", "40", "--r", "20", "--k", "3"]) == 2
    assert "error: C(40,20) = 137846528820 edge slots exceed cap 30" in capsys.readouterr().err


def test_verify_exhaustive_with_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--n",
            "4",
            "--r",
            "3",
            "--exhaustive",
            "--checks",
            "inequality,equality_classifier",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["instances"] == 16 and data["violations"] == []
    assert "0 violations" in capsys.readouterr().out


def test_verify_refuses_a_report_in_a_missing_directory_before_the_sweep(
    tmp_path, monkeypatch, capsys
):
    def no_sweep(cfg, workers=1):
        raise AssertionError("ran the sweep")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    out_file = tmp_path / "missing" / "x.json"
    argv = ["verify", "--n", "5", "--r", "3", "--sample", "3", "--seed", "1"]
    assert main(argv + ["--out", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{out_file}'\n"


def test_verify_refuses_a_report_path_that_is_a_directory_before_the_sweep(
    tmp_path, monkeypatch, capsys
):
    def no_sweep(cfg, workers=1):
        raise AssertionError("ran the sweep")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    argv = ["verify", "--n", "5", "--r", "3", "--sample", "3", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_verify_refuses_1000_vertices_before_building_the_slots(monkeypatch, capsys):
    # C(1000, 3) = 166,167,000 slot masks would not fit in memory
    def no_slot(vertices):
        raise AssertionError("built a slot mask")

    monkeypatch.setattr(hypergraph, "mask_of", no_slot)
    argv = ["verify", "--n", "1000", "--r", "3", "--sample", "1", "--seed", "1"]
    assert main(argv + ["--checks", "inequality"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vertex count 1000 outside 0..64\n"


def test_verify_checks_good_sets_on_25_vertices_with_no_scan(capsys):
    # the good-set check runs the rotation route, not the 2^n subset scan
    argv = ["verify", "--n", "25", "--r", "3", "--sample", "3", "--seed", "1"]
    assert main(argv + ["--checks", "good_set_existence"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("checked 3 instances in ")
    assert captured.out.splitlines()[0].endswith(": 0 violations")
    assert captured.err == ""


def test_verify_sample_requires_seed(capsys):
    code = main(["verify", "--n", "4", "--r", "3", "--sample", "10"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_verify_exhaustive_rejects_seed(capsys):
    assert main(["verify", "--n", "4", "--r", "3", "--exhaustive", "--seed", "5"]) == 2
    assert "exhaustive mode takes no sample_count/seed" in capsys.readouterr().err


def test_verify_refuses_an_empty_check_list(capsys):
    assert main(["verify", "--n", "4", "--r", "3", "--exhaustive", "--checks", ""]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "bad check list" in captured.err
    assert "checked" not in captured.out


def test_verify_rejects_worker_count_out_of_range(capsys):
    # 10 instances never reach the process pool, whatever the worker count
    argv = ["verify", "--n", "4", "--r", "3", "--sample", "10", "--seed", "1"]
    assert main(argv + ["--workers", "100000"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(argv + ["--workers", "0"]) == 2
    assert "workers" in capsys.readouterr().err


def test_gapcheck_table(capsys):
    assert main(["gapcheck", "--r", "3", "--kmax", "10"]) == 0
    out = capsys.readouterr().out
    assert "k=6" in out and "(equality)" in out
    assert "FAILS" not in out


def test_gapcheck_below_the_domain_is_an_error(capsys):
    # the table starts at k = 6 for r = 3 and at k = r + 1 otherwise
    for r, kmax, first in ((3, 5, 6), (3, 1, 6), (4, 4, 5)):
        assert main(["gapcheck", "--r", str(r), "--kmax", str(kmax)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"k = {first}" in captured.err
    assert main(["gapcheck", "--r", "2", "--kmax", "1"]) == 2
    assert "r >= 3" in capsys.readouterr().err


def test_goodset_answers_a_15_vertex_5_uniform_input_at_once(tmp_path):
    # k = m = 10 and no 11-cycle: the first good terminal set answers, where
    # closing every longest path did not finish in minutes
    edges = [
        (2, 3, 7, 8, 10), (1, 3, 6, 9, 11), (0, 3, 6, 10, 12), (0, 3, 9, 11, 12),
        (2, 3, 8, 11, 13), (2, 5, 7, 12, 13), (0, 1, 3, 9, 14), (4, 6, 9, 12, 14),
        (0, 6, 10, 13, 14), (2, 6, 11, 13, 14),
    ]
    path = tmp_path / "wide.hg"
    path.write_text("15 5\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "bergepaths.cli", "goodset", str(path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0 and proc.stderr == ""
    printed = proc.stdout.split("{", 1)[1].split("}", 1)[0]
    h = from_edge_lists(15, 5, edges)
    assert is_good_set(h, mask_of(map(int, printed.split(",")))) is not None


def test_goodset_answers_a_good_vertex_set_past_the_scan_limit(tmp_path, capsys):
    # a loose 2-edge chain on 21 vertices: both edges have p = k = 2 and
    # m = 2 <= f_11(2) * 21 = 7/2, so V(H) is good, yet no rotation terminal
    # set is; V(H) answers
    path = tmp_path / "chain21.hg"
    edges = [" ".join(map(str, e)) for e in (range(11), range(10, 21))]
    path.write_text("21 11\n" + "\n".join(edges) + "\n")
    assert main(["goodset", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "good set S={" + ",".join(map(str, range(21))) + "} |S|=21 k=2 |N(S)|=2"
        " <= f_r(k)|S|=7/2\n  N(S) = edges [0, 1]\n"
    )


def test_missing_file_reports_error(capsys):
    assert main(["analyze", "/no/such/file.hg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_path_literal(chain_file, capsys):
    assert main(["rotate", chain_file, "--path", "0,0"]) == 2
    assert "alternate" in capsys.readouterr().err


def test_every_package_error_is_caught_by_hg():
    # main catches (ValueError, OSError); a new error class must stay inside it
    errors = {
        value
        for module in pkgutil.iter_modules(bergepaths.__path__, "bergepaths.")
        for value in vars(importlib.import_module(module.name)).values()
        if isinstance(value, type)
        and issubclass(value, BaseException)
        and value.__module__ == module.name
    }
    names = {error.__name__ for error in errors}
    assert names >= {"HypergraphError", "SearchError", "GoodSetError", "SweepConfigError"}, names
    for error in errors:
        assert issubclass(error, ValueError), error


def load_script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--r", "2"], "turan_exact requires r >= 3, got r=2"),
        (["--r", "3", "--nmax", "7"], "C(7,3) = 35 edge slots exceed cap 30"),
    ],
)
def test_turan_table_refuses_a_cell_with_exit_2(argv, message, capsys):
    assert load_script("turan_table").main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--r", "5", "--nmax", "4"], "--nmax 4 is below r = 5, so the grid has no cell"),
        (["--r", "3", "--kmax", "1"], "--kmax 1 is below k = 2, so the grid has no cell"),
    ],
)
def test_turan_table_refuses_an_empty_grid_with_exit_2(argv, message, capsys):
    assert load_script("turan_table").main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("r, nmax", [(3, 6), (4, 6), (5, 7)])
def test_turan_table_matches_its_golden_file(r, nmax, capsys):
    assert load_script("turan_table").main(["--r", str(r), "--nmax", str(nmax), "--kmax", "6"]) == 0
    golden = Path(__file__).resolve().parent / "golden" / f"turan_table_r{r}.txt"
    assert capsys.readouterr().out == golden.read_text()


def test_bench_pairs_removes_its_export_when_terminated(tmp_path):
    # the parent's export appears under TMPDIR; SIGTERM once its benchmark runs
    root = Path(__file__).resolve().parent.parent
    argv = [sys.executable, str(root / "scripts" / "bench_pairs.py"), "HEAD", "--workload",
            "sweep63", "--pairs", "2", "--seconds", "30", "--out", str(tmp_path / "out.json")]
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("bench-parent-*/perfbench/run.py")):
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "no export appeared"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        status = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert status != 0
    assert list(tmp_path.glob("bench-parent-*")) == []
    assert not (tmp_path / "out.json").exists()


def test_campaign_stages_are_hg_commands():
    # builds the campaign's stage table without running a stage
    campaign = load_script("run_verification")
    out = Path("campaign-out")
    parsed = [cli.build_parser().parse_args(argv) for _, argv in campaign.stages(out, 3, 200)]
    sweeps = [args for args in parsed if args.fn is cli.cmd_verify]
    names = [f"sweep_{n}_{r}_exhaustive" for n, r in ((3, 3), (4, 3), (5, 3), (4, 4), (5, 4))]
    names.append("sweep_6_3_sample")
    names += [f"sweep_{r + 1}_{r}_coro_path" for r in range(3, 7)]
    assert [args.out for args in sweeps] == [str(out / f"{name}.json") for name in names]
    assert all(args.workers == 3 for args in sweeps)
    assert [args.sample for args in sweeps] == [None] * 5 + [200] + [None] * 4
    # the (r+1)-vertex path claim, exhaustive, with that check alone
    coro = sweeps[6:]
    assert [(args.n, args.r) for args in coro] == [(r + 1, r) for r in range(3, 7)]
    assert all(args.exhaustive and args.checks == "coro_path" for args in coro)
    assert {args.command for args in parsed} == {"verify", "turan", "gapcheck"}
