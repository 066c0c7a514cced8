import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import factorlab
from factorlab import harness
from factorlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_factor_auto_small(capsys):
    code, out, _ = run_cli(capsys, "factor", "60")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "60 = 2 * 2 * 3 * 5"
    rec = json.loads(lines[1])
    assert rec["N"] == "60"
    assert rec["method"] == "TRIAL_DIVISION"
    assert (rec["p"], rec["q"], rec["steps"]) == ("2", "30", "1")


def test_factor_auto_prints_the_record_of_the_split_of_n(capsys):
    # the capped square search gives up, so the residue enumeration splits N;
    # auto must print that stage's own record, as --method pipeline does
    code, out, _ = run_cli(capsys, "factor", "21937688359", "--cap", "4")
    assert code == 0
    auto_lines = out.strip().splitlines()
    code, out, _ = run_cli(capsys, "factor", "21937688359", "--method", "pipeline")
    assert code == 0
    pipe_lines = out.strip().splitlines()
    assert auto_lines[0] == pipe_lines[0] == "21937688359 = 104729 * 209471"
    auto_rec, pipe_rec = json.loads(auto_lines[1]), json.loads(pipe_lines[1])
    del auto_rec["elapsed_ms"], pipe_rec["elapsed_ms"]
    assert auto_rec == pipe_rec
    # 209471 > 2 * 104729 puts the split outside the balanced band: the
    # band's 169 square tests fail, and the first sweep point outside the
    # band, x = -819, finds it; steps counts both
    assert (auto_rec["method"], auto_rec["B"], auto_rec["x0"], auto_rec["steps"]) == (
        "X_SWEEP", "53", "23", "170"
    )


def test_factor_auto_fermat_record_has_real_steps(capsys):
    code, out, _ = run_cli(capsys, "factor", "1000000016000000063")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1000000016000000063 = 1000000007 * 1000000009"
    rec = json.loads(lines[1])
    assert (rec["method"], rec["steps"]) == ("FERMAT", "1")


def test_factor_auto_prime_prints_no_record(capsys):
    code, out, _ = run_cli(capsys, "factor", "1000000007")
    assert code == 0
    assert out.strip().splitlines() == ["1000000007 = 1000000007"]


@pytest.mark.parametrize(
    "argv",
    [
        ("101", "--method", "fermat"),
        ("101", "--method", "shifted"),
        ("101", "--method", "pipeline"),
        ("2", "--method", "fermat"),
    ],
)
def test_factor_methods_report_a_prime_without_a_split(capsys, argv):
    code, out, _ = run_cli(capsys, "factor", *argv)
    assert (code, out) == (0, f"{argv[0]} is prime\n")


def test_factor_fermat_method(capsys):
    code, out, _ = run_cli(capsys, "factor", "5959", "--method", "fermat")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "5959 = 59 * 101"
    rec = json.loads(lines[1])
    assert rec["method"] == "FERMAT" and rec["steps"] == "3"


def test_factor_hex_input(capsys):
    code, out, _ = run_cli(capsys, "factor", "0x2d77")  # 11639
    assert code == 0
    assert out.splitlines()[0] == "11639 = 103 * 113"


def test_factor_pipeline_method(capsys):
    code, out, _ = run_cli(capsys, "factor", "11639", "--method", "pipeline")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "11639 = 103 * 113"
    rec = json.loads(lines[1])
    # the residue stage's own record: B = 5, x0 = 1 is the first residue
    # enumerated, and its first lattice root recovers 103
    assert (rec["B"], rec["x0"], rec["y0"]) == ("5", "1", "1")
    assert rec["method"] == "COPPERSMITH" and rec["steps"] == "1"


def test_factor_pipeline_method_past_the_first_modulus(capsys):
    code, out, _ = run_cli(capsys, "factor", "1095", "--method", "pipeline")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1095 = 15 * 73"
    rec = json.loads(lines[1])
    assert (rec["B"], rec["x0"], rec["y0"]) == ("7", "3", "5")
    assert rec["method"] == "COPPERSMITH" and rec["steps"] == "1"


def test_factor_pipeline_method_degenerate_center(capsys):
    code, out, _ = run_cli(capsys, "factor", "49", "--method", "pipeline")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "49 = 7 * 7"
    rec = json.loads(lines[1])
    assert (rec["p"], rec["q"], rec["method"], rec["steps"]) == ("7", "7", "X_SWEEP", "1")


def test_factor_shifted_method(capsys):
    code, out, _ = run_cli(capsys, "factor", "35", "--method", "shifted", "--x", "0")
    assert code == 0
    assert out.splitlines()[0] == "35 = 5 * 7"


def test_factor_exhausted_exit_code(capsys):
    code, out, _ = run_cli(capsys, "factor", "303", "--method", "fermat", "--cap", "5")
    assert code == 2
    assert "exhausted" in out


def test_factor_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["factor", "notanumber"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["bogus-command"])
    assert err.value.code == 1
    capsys.readouterr()  # drop the usage text above
    # a cap below 1 is refused before any work, whatever N and the method
    for argv in (["15"], ["1000000016000000063"], ["1000000007", "--method", "fermat"]):
        code, out, err = run_cli(capsys, "factor", *argv, "--cap", "0")
        assert (code, out, err) == (1, "", "--cap must be >= 1\n")


def test_factor_even_fermat_rejected(capsys):
    code, _, errtxt = run_cli(capsys, "factor", "8", "--method", "fermat")
    assert code == 1
    assert "odd" in errtxt


def test_factor_shifted_input_errors(capsys):
    # ValueErrors of the search itself, DegenerateDenominator among them,
    # reach main's handler: exit 1 and the message alone on stderr
    code, out, err = run_cli(capsys, "factor", "35", "--method", "shifted", "--x", "-100")
    assert (code, out, err) == (1, "", "iroot(N,4) + x = -98 <= 0\n")
    code, out, err = run_cli(capsys, "factor", "36", "--method", "shifted")
    assert (code, out, err) == (1, "", "N must be an odd integer >= 16\n")


def test_gen_jsonl_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "gen", "--bits", "20", "--count", "3", "--seed", "4")
    assert code == 0
    code, out2, _ = run_cli(capsys, "gen", "--bits", "20", "--count", "3", "--seed", "4")
    assert out1 == out2
    rows = [json.loads(line) for line in out1.strip().splitlines()]
    assert len(rows) == 3
    for row in rows:
        N, p, q = int(row["N"]), int(row["p"]), int(row["q"])
        assert p * q == N and p < q < 2 * p


def test_gen_unbalanced_flag(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--bits", "36", "--count", "1", "--seed", "1", "--unbalanced"
    )
    assert code == 0
    row = json.loads(out.strip())
    p, N = int(row["p"]), int(row["N"])
    assert 2 * p**3 > N >= p**3


def test_gen_unbalanced_bits_2_mod_3(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--bits", "44", "--count", "1", "--seed", "0", "--unbalanced"
    )
    assert code == 0
    row = json.loads(out.strip())
    p, N = int(row["p"]), int(row["N"])
    assert N.bit_length() == 44 and 2 * p**3 > N >= p**3


def test_experiment_writes_jsonl(tmp_path, capsys):
    out_file = tmp_path / "records.jsonl"
    code, out, _ = run_cli(
        capsys, "experiment", "--bits", "20", "--count", "4", "--seed", "2",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 4
    records = [json.loads(line) for line in lines]
    assert all(rec["success"] is True for rec in records)
    assert [(rec["method"], rec["steps"]) for rec in records] == [
        ("RESIDUE_FERMAT", "1"), ("COPPERSMITH", "1"), ("COPPERSMITH", "1"),
        ("RESIDUE_FERMAT", "5"),
    ]


def test_experiment_pipeline_failure_exit_code(tmp_path, capsys):
    # the batch holds 40571 = 29 * 1399, whose p lies just outside the box:
    # its failed trial is recorded and the other nine still run
    out_file = tmp_path / "f.jsonl"
    code, out, err = run_cli(
        capsys, "experiment", "--bits", "16", "--count", "10", "--seed", "0",
        "--unbalanced", "--out", str(out_file),
    )
    assert code == 2
    assert out == f"wrote 10 records to {out_file} (9 successes)\n"
    assert err == ""
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert len(records) == 10
    assert sum(rec["success"] for rec in records) == 9
    failed = [rec for rec in records if not rec["success"]]
    assert [(rec["N"], rec["p"], rec["q"], rec["method"]) for rec in failed] == [
        ("40571", "1", "40571", "X_SWEEP")
    ]


@pytest.mark.parametrize("name", ["missing/records.jsonl", "."])
def test_experiment_unwritable_out_exits_before_any_trial(
    tmp_path, capsys, monkeypatch, name
):
    # a missing directory, or a directory as the file: exit 1 with the
    # error on stderr, no trial run and no file written
    monkeypatch.setattr(harness, "experiment_run", lambda *a: pytest.fail("ran"))
    out_path = tmp_path / name
    code, out, err = run_cli(
        capsys, "experiment", "--bits", "16", "--count", "2", "--seed", "0",
        "--out", str(out_path),
    )
    assert (code, out) == (1, "")
    assert str(out_path) in err
    assert list(tmp_path.iterdir()) == []


def test_gen_into_a_closed_pipe_exits_quietly():
    # the reader stops after one line: exit 1, no traceback on stderr
    env = dict(os.environ, PYTHONPATH=str(Path(factorlab.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "factorlab.cli", "gen", "--bits", "20",
         "--count", "20000", "--seed", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    line = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert json.loads(line)["N"] == "775499"
    assert err == b""


@pytest.mark.parametrize(
    "demo", sorted((Path(__file__).parents[1] / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_into_a_closed_pipe_exits_quietly(demo):
    # the reader is gone before the first line: unbuffered, that first print
    # fails, and the demo exits 1 with no traceback on stderr
    env = dict(os.environ, PYTHONPATH=str(Path(factorlab.__file__).parents[1]),
               PYTHONUNBUFFERED="1")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, str(demo)], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_bound_scan_table(capsys):
    code, out, _ = run_cli(
        capsys, "bound-scan", "--bits-min", "20", "--bits-max", "24",
        "--step", "4", "--trials", "2",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["bits"] for r in rows] == [20, 24]
    for r in rows:
        assert "mean_margin_bits" in r


def test_lll_check_runs_clean(capsys):
    code, out, _ = run_cli(
        capsys, "lll-check", "--dim", "4", "--seed", "11", "--trials", "5"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["status"] == "ok" for r in rows)
    # uniform bases come nearly reduced; knapsack ones make LLL swap
    assert [r["shape"] for r in rows] == ["uniform", "knapsack"] * 2 + ["uniform"]


def test_lll_check_entries_beyond_double_range(capsys):
    # 700-bit entries put the Gram entries near 2**1400, past the doubles
    code, out, _ = run_cli(
        capsys, "lll-check", "--dim", "6", "--seed", "1", "--trials", "2",
        "--entry-bits", "700",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert [r["shape"] for r in rows] == ["uniform", "knapsack"]


def test_lll_check_dim_validation(capsys):
    code, _, errtxt = run_cli(capsys, "lll-check", "--dim", "1", "--seed", "1", "--trials", "1")
    assert code == 1
    assert "dim" in errtxt


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "--bits", "20", "--count", "-1", "--seed", "0"], "--count"),
        (["gen", "--bits", "20", "--count", "0", "--seed", "0"], "--count"),
        (["lll-check", "--dim", "4", "--seed", "0", "--trials", "0"], "--trials"),
        (["lll-check", "--dim", "4", "--seed", "0", "--trials", "1",
          "--entry-bits", "0"], "--entry-bits"),
    ],
)
def test_runs_that_would_do_nothing_are_rejected(capsys, argv, flag):
    code, out, errtxt = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert flag in errtxt


def test_experiment_count_below_one_is_rejected_before_any_work(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(harness, "experiment_run", lambda *a: pytest.fail("ran"))
    out_path = tmp_path / "records.jsonl"
    code, out, errtxt = run_cli(
        capsys, "experiment", "--bits", "16", "--count", "0", "--seed", "0",
        "--out", str(out_path),
    )
    assert (code, out) == (1, "")
    assert "--count" in errtxt
    assert list(tmp_path.iterdir()) == []


def test_lll_check_reports_dependent_bases(capsys):
    # 2x2 bases of entries in [-2, 2): seed 5 draws two singular ones
    code, out, _ = run_cli(
        capsys, "lll-check", "--dim", "2", "--seed", "5", "--trials", "3",
        "--entry-bits", "1",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["trial"], r["shape"], r["status"]) for r in rows] == [
        (0, "uniform", "dependent"), (1, "knapsack", "ok"), (2, "uniform", "dependent"),
    ]
