import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import teicp.cli
from teicp.cli import EXIT_MAX_ITERS, EXIT_OK, EXIT_USAGE, _config, build_parser, main
from teicp.problems import build, parse_problem
from teicp.solvers import SolverConfig
from teicp.verify import is_pareto_eigenpair


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_solve_single_solver_row(capsys, tmp_path):
    out = tmp_path / "run.json"
    code = main([
        "solve", "--problem", "ex1", "--solver", "spg1", "--x0", "1,1,1",
        "--format", "json", "--out", str(out),
    ])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "spg1" in text and "0.3633" in text
    data = json.loads(out.read_text())
    assert len(data) == 1
    rep = data[0]
    assert rep["solver"] == "spg1"
    assert abs(rep["lambda"] - 0.3633) <= 1e-3
    assert rep["iters"] <= 30
    assert len(rep["trace"]) == rep["iters"] + 1


def test_solve_spa_slow_tail(tmp_path):
    out = tmp_path / "spa.json"
    code = main([
        "solve", "--problem", "ex2:n=5", "--solver", "spa",
        "--x0", "1,1,1,1,1", "--format", "json", "--out", str(out),
    ])
    assert code == EXIT_OK
    rep = json.loads(out.read_text())[0]
    assert abs(rep["lambda"] - 0.7999) <= 1e-3
    assert rep["iters"] >= 100


def test_solve_uncommon_start_certifies(tmp_path):
    out = tmp_path / "run.json"
    code = main([
        "solve", "--problem", "ex1", "--solver", "spg1", "--x0", "0,0,1",
        "--format", "json", "--out", str(out),
    ])
    assert code == EXIT_OK
    rep = json.loads(out.read_text())[0]
    A, B = build(parse_problem("ex1"))
    assert is_pareto_eigenpair(A, B, rep["lambda"], np.array(rep["x"]), 1e-4)


def test_solve_takes_a_negative_first_entry_after_an_equals_sign(capsys, tmp_path):
    """--x0 -1,2,3 reads -1,2,3 as an option; --x0=-1,2,3 is the start,
    whose projection is that of 0,2,3."""
    assert main(["solve", "--problem", "ex1", "--solver", "spg1", "--x0", "-1,2,3"]) == EXIT_USAGE
    assert "expected one argument" in capsys.readouterr().err
    reports = []
    for x0 in (["--x0=-1,2,3"], ["--x0", "0,2,3"]):
        out = tmp_path / "run.json"
        code = main(["solve", "--problem", "ex1", "--solver", "spg1", *x0, "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        rep = json.loads(out.read_text())[0]
        reports.append((rep["status"], rep["iters"], rep["lambda"], rep["x"]))
    assert reports[0] == reports[1]


def test_solve_unknown_problem_and_solver(capsys):
    assert main(["solve", "--problem", "ex9", "--solver", "spg1"]) == EXIT_USAGE
    assert main(["solve", "--problem", "ex1", "--solver", "nope"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error" in err
    assert main(["solve", "--problem", "ex4:n=3,seed=77", "--solver", "spg1"]) == EXIT_USAGE
    assert "only rand takes a seed" in capsys.readouterr().err
    assert main(["solve", "--problem", "rand:n=3,n=5", "--solver", "spg1"]) == EXIT_USAGE
    assert "repeated problem parameter" in capsys.readouterr().err


def test_non_finite_tol_and_tau_are_usage_errors(capsys):
    for flag, value in (("--tol", "nan"), ("--tol", "inf"), ("--tau", "nan")):
        assert main(["solve", "--problem", "ex1", "--solver", "spg1", flag, value]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{flag[2:]} must be finite and positive" in err


def test_fixed_order_problem_with_other_order_is_a_usage_error(capsys):
    assert main(["solve", "--problem", "ex1:m=6", "--solver", "spg1"]) == EXIT_USAGE
    assert "m=6" in capsys.readouterr().err


def test_solve_bad_x0_length(capsys):
    assert main(["solve", "--problem", "ex1", "--x0", "1,1"]) == EXIT_USAGE
    # an empty --x0 is a bad start, not a missing one
    for text in ("", "1,a,1"):
        assert main(["solve", "--problem", "ex1", "--x0", text]) == EXIT_USAGE
        assert f"could not parse --x0 {text!r}" in capsys.readouterr().err


def test_negative_seed_or_non_integer_parameter_is_named(capsys):
    for problem, flags, name in (("ex1", ["--seed", "-1"], "seed"), ("rand:n=3,seed=-2", [], "seed"),
                                 ("rand:n=3.5", [], "'n'")):
        for command in (["solve"], ["multistart", "--runs", "2"]):
            assert main([*command, "--problem", problem, "--solver", "spg1", *flags]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert name in err and "expected non-negative integer" not in err


def test_solver_settings_default_to_solver_config():
    assert _config(build_parser().parse_args(["solve", "--problem", "ex1"])) == SolverConfig()


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["solve", "--problem", "ex1", "--format", "xml"],
    ["multistart", "--problem", "ex1", "--runs", "many"],
    ["nope", "--problem", "ex1"],
    [],
    # each subcommand's own option is not the other's, and trace is gone
    ["solve", "--problem", "ex1", "--solver", "spg1", "--runs", "5", "--x0", "1,1,1"],
    ["multistart", "--problem", "ex1", "--x0", "1,1,1"],
    ["trace", "--problem", "ex1", "--x0", "1,1,1"],
])
def test_argparse_errors_exit_usage(argv, capsys):
    # argparse's own exit code 2 would read as "some solver hit the iteration cap"
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage: teicp" in err and "error: " in err


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["solve", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "--problem" in capsys.readouterr().out


def test_one_parser_per_process_parses_each_call_afresh(capsys, monkeypatch):
    """``main`` reuses one parser; appends, usage errors and help do not carry over."""
    assert build_parser() is build_parser()
    seen = []
    monkeypatch.setattr(teicp.cli, "cmd_solve", lambda args: seen.append(args.solver) or EXIT_OK)
    for _ in range(2):
        assert main(["solve", "--problem", "ex1", "--solver", "spg1", "--solver", "spp"]) == EXIT_OK
    assert main(["solve", "--problem", "ex1"]) == EXIT_OK
    assert seen == [["spg1", "spp"], ["spg1", "spp"], None]
    for _ in range(2):
        assert main(["solve", "--problem", "ex1", "--format", "xml"]) == EXIT_USAGE
        assert "usage: teicp" in capsys.readouterr().err
    helps = []
    for parse in (main, main, build_parser.__wrapped__().parse_args):
        for argv in (["--help"], ["solve", "--help"]):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert "--problem" in helps[0] and helps[0] == helps[1] == helps[2]


_SHARED_DEFAULTS = {
    "problem": "ex1", "solver": None, "seed": 0, "tol": 1e-6, "max_iters": 500, "rho": 1e-4,
    "tau": 0.05, "merit": "rayleigh", "out": None, "format": None, "paper_literal_safeguards": False,
}
_SHARED_ARGV = [
    "--problem", "rand:n=4", "--solver", "spg1", "--solver", "spp", "--seed", "3", "--tol", "1e-8",
    "--max-iters", "9", "--rho", "0.1", "--tau", "0.2", "--merit", "log", "--out", "f.json",
    "--format", "json", "--paper-literal-safeguards",
]
# Each subcommand's own option: its default, and a value given on the command line.
_OWN_OPTION = {"solve": ("x0", None, "1,2,3,4"), "multistart": ("runs", 100, "7")}


@pytest.mark.parametrize("command", ["solve", "multistart"])
def test_subcommands_share_eleven_options(command, capsys):
    parser = build_parser()
    key, default, value = _OWN_OPTION[command]
    flag = f"--{key}"
    assert vars(parser.parse_args([command, "--problem", "ex1"])) == {
        "command": command, **_SHARED_DEFAULTS, key: default}
    given = vars(parser.parse_args([command, *_SHARED_ARGV, flag, value]))
    other = "multistart" if command == "solve" else "solve"
    given_other = vars(parser.parse_args([other, *_SHARED_ARGV]))
    assert set(given) == {"command", key, *_SHARED_DEFAULTS}
    assert all(given[k] == given_other[k] != v for k, v in _SHARED_DEFAULTS.items())
    assert given[key] != default
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert all(f"--{k.replace('_', '-')}" in text for k in _SHARED_DEFAULTS)
    assert flag in text and f"--{_OWN_OPTION[other][0]}" not in text


def test_solve_json_without_out_prints_only_the_document(capsys, tmp_path):
    out = tmp_path / "run.json"
    base = ["solve", "--problem", "ex1", "--solver", "spg1", "--solver", "spp", "--x0", "1,1,1", "--format", "json"]
    assert main(base) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert main(base + ["--out", str(out)]) == EXIT_OK
    assert "Alg." in capsys.readouterr().out
    written = json.loads(out.read_text())
    for doc in (printed, written):
        for rep in doc:
            rep.pop("wall_time")
    assert printed == written


@pytest.mark.parametrize("argv, count", [
    (["solve", "--problem", "ex1", "--solver", "spg1", "--solver", "spp", "--x0", "1,1,1"], 2),
    (["multistart", "--problem", "ex1", "--solver", "spg1", "--solver", "spp", "--runs", "2"], 4),
])
def test_json_document_is_one_value_per_line(capsys, argv, count):
    assert main(argv + ["--format", "json"]) == EXIT_OK
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == "[" and lines[-1] == "]" and text.endswith("]\n")
    values = [json.loads(line.removesuffix(",")) for line in lines[1:-1]]
    assert len(values) == count and values == json.loads(text)


def test_multistart_row_count_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = [
        "multistart", "--problem", "ex1", "--solver", "spg1", "--solver", "spp",
        "--runs", "2", "--seed", "3", "--out",
    ]
    assert main(args + [str(out1)]) == EXIT_OK
    assert main(args + [str(out2)]) == EXIT_OK
    rows1 = read_csv(out1)
    rows2 = read_csv(out2)
    assert len(rows1) == 2 * 2
    assert list(rows1[0]) == ["run", "solver", "lambda", "iters", "status", "time"]
    # identical modulo the wall-time column, which is the one nondeterministic field
    for a, b in zip(rows1, rows2):
        a = dict(a)
        b = dict(b)
        a.pop("time")
        b.pop("time")
        assert a == b


def test_repeated_solver_runs_once(capsys, tmp_path):
    out = tmp_path / "m.csv"
    argv = ["multistart", "--problem", "ex1", "--solver", "spg1", "--solver", "spg1", "--runs", "3"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.count("spg1  converged 3/3") == 1
    assert len(read_csv(out)) == 3
    argv = ["solve", "--problem", "ex1", "--solver", "spg1", "--solver", "spg1", "--x0", "1,1,1"]
    assert main(argv) == EXIT_OK
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:]] == ["spg1"]


def test_multistart_same_start_set_across_solvers(tmp_path):
    out = tmp_path / "m.csv"
    assert main([
        "multistart", "--problem", "ex2:n=5", "--solver", "spg1", "--solver", "spg2",
        "--runs", "3", "--seed", "11", "--out", str(out),
    ]) == EXIT_OK
    rows = read_csv(out)
    by_run = {}
    for row in rows:
        by_run.setdefault(row["run"], []).append(row["solver"])
    assert all(sorted(v) == ["spg1", "spg2"] for v in by_run.values())


def test_solve_format_csv_without_out_prints_only_the_trace(capsys, tmp_path):
    out = tmp_path / "trace.csv"
    base = ["solve", "--problem", "ex1", "--solver", "spg1", "--solver", "spp", "--x0", "1,1,1"]
    assert main(base + ["--format", "csv"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert main(base + ["--out", str(out)]) == EXIT_OK
    assert "Alg." in capsys.readouterr().out
    assert printed == out.read_text() and printed.startswith("k,solver,lambda")


def test_multistart_usage_errors():
    assert main(["multistart", "--problem", "ex1", "--runs", "1"]) == EXIT_USAGE
    assert main(["multistart", "--problem", "ex1", "--runs", "5", "--x0", "1,1,1"]) == EXIT_USAGE


def test_multistart_histogram_in_summary(capsys):
    code = main(["multistart", "--problem", "ex1", "--solver", "spg1", "--runs", "20", "--seed", "0"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "0.363" in text
    assert "median iters" in text


def _strict_json(text):
    """json.loads, refusing the NaN and Infinity tokens RFC 8259 parsers reject."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command", [["solve"], ["multistart", "--runs", "2"]])
def test_json_writes_unmeasured_numbers_as_null(command, capsys):
    """Under the log merit ex5's start is outside the domain, so its trace row
    holds no merit or gradient norm: they are null, and the document is JSON."""
    argv = command + ["--problem", "ex5:n=5", "--solver", "spg1", "--merit", "log", "--seed", "0"]
    main(argv + ["--format", "json"])
    doc = _strict_json(capsys.readouterr().out)
    if command == ["solve"]:
        row = doc[0]["trace"][0]
        assert row["merit"] is None and row["grad_norm"] is None
        assert doc[0]["status"] == "DomainError" and math.isfinite(doc[0]["lambda"])
    # CSV keeps writing them as nan.
    main(argv + ["--format", "csv"])
    assert ("nan" in capsys.readouterr().out) == (command == ["solve"])


def test_json_value_encodes_once_where_every_number_is_finite(monkeypatch):
    calls = []
    encode = teicp.cli._encode

    def counting(value):
        calls.append(value)
        return encode(value)

    monkeypatch.setattr(teicp.cli, "_encode", counting)
    assert teicp.cli._json_value({"a": [1.5, 2]}) == '{"a": [1.5, 2]}'
    assert len(calls) == 1
    assert teicp.cli._json_value({"a": [float("nan"), -float("inf")], "b": 1.0}) == '{"a": [null, null], "b": 1.0}'
    assert len(calls) == 3


def test_multistart_json_without_out_prints_only_the_document(capsys, tmp_path):
    out = tmp_path / "runs.json"
    base = ["multistart", "--problem", "ex1", "--solver", "spg1", "--solver", "spp",
            "--runs", "2", "--format", "json"]
    assert main(base) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert main(base + ["--out", str(out)]) == EXIT_OK
    summary = capsys.readouterr().out
    assert "median iters" in summary and "[" not in summary
    written = json.loads(out.read_text())
    assert len(printed) == 2 * 2
    for doc in (printed, written):
        for row in doc:
            row.pop("time")
    assert printed == written
    # without --format or --out the summary is printed alone
    assert main(base[:-2]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.count("\n") == summary.count("\n") == 3
    assert "run,solver" not in text
    # an explicit --format csv prints the rows alone, as --out writes them by default
    out_csv = tmp_path / "runs.csv"
    assert main(base[:-1] + ["csv"]) == EXIT_OK
    printed = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert main(base[:-2] + ["--out", str(out_csv)]) == EXIT_OK
    written = read_csv(out_csv)
    assert len(printed) == 2 * 2 and list(printed[0]) == list(written[0])
    for a, b in zip(printed, written):
        assert {**a, "time": None} == {**b, "time": None}


def test_multistart_spg1_reaches_top_eigenvalue_most_often(tmp_path):
    out = tmp_path / "m.csv"
    code = main([
        "multistart", "--problem", "ex1", "--solver", "spg1", "--solver", "spp",
        "--solver", "sspa", "--runs", "100", "--seed", "0", "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = read_csv(out)
    lams = {}
    for row in rows:
        lams.setdefault(row["solver"], []).append(float(row["lambda"]))
    top = max(max(v) for v in lams.values())
    rate = {name: sum(1 for l in v if abs(l - top) <= 1e-3) for name, v in lams.items()}
    assert rate["spg1"] >= rate["spp"]
    assert rate["spg1"] >= rate["sspa"]


def test_trace_csv_shape(tmp_path):
    out = tmp_path / "trace.csv"
    code = main([
        "solve", "--problem", "ex2:n=5", "--x0", "1,1,1,1,1", "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = read_csv(out)
    assert list(rows[0]) == ["k", "solver", "lambda", "merit", "grad_norm", "step", "beta", "shift"]
    by_solver = {}
    for row in rows:
        by_solver.setdefault(row["solver"], []).append(row)
    assert set(by_solver) == {"spg1", "spg2", "spp", "spa", "sspa"}
    # spa exhibits the slow tail; spg1 is among the shortest
    counts = {name: len(v) for name, v in by_solver.items()}
    assert counts["spa"] == max(counts.values())
    assert counts["spg1"] == min(counts.values())
    lam = [float(r["lambda"]) for r in by_solver["spg1"]]
    assert all(b >= a - 1e-12 for a, b in zip(lam, lam[1:]))


def test_trace_rows_match_iters(tmp_path):
    out_csv = tmp_path / "t.csv"
    out_json = tmp_path / "t.json"
    base = ["solve", "--problem", "ex1", "--solver", "spg1", "--x0", "1,1,1"]
    assert main(base + ["--out", str(out_csv)]) == EXIT_OK
    assert main(base + ["--format", "json", "--out", str(out_json)]) == EXIT_OK
    rows = read_csv(out_csv)
    rep = json.loads(out_json.read_text())[0]
    assert len(rows) == rep["iters"] + 1


def test_trace_byte_identical_across_runs(tmp_path):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    base = ["solve", "--problem", "ex3", "--seed", "9"]
    assert main(base + ["--out", str(out1)]) == EXIT_OK
    assert main(base + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_code_max_iters(tmp_path):
    # starved iteration budget surfaces as exit code 2
    code = main(["solve", "--problem", "ex1", "--solver", "spa", "--x0", "1,1,1", "--max-iters", "5"])
    assert code == EXIT_MAX_ITERS


def test_exit_code_solver_error():
    # the log merit is undefined where A x^4 < 0, so this run domain-errors
    code = main([
        "solve", "--problem", "ex1", "--solver", "spg1", "--x0", "0,0,1", "--merit", "log",
    ])
    assert code == 1


def test_log_merit_rejected_by_power_solvers(capsys):
    code = main(["solve", "--problem", "ex1", "--solver", "spp", "--x0", "1,1,1", "--merit", "log"])
    assert code == EXIT_USAGE
    assert "spg1 and spg2" in capsys.readouterr().err


def test_merit_flag_round_trip():
    code = main([
        "solve", "--problem", "rand:n=3,m=4,seed=1", "--solver", "spg1",
        "--x0", "1,1,1", "--merit", "rayleigh",
    ])
    assert code in (EXIT_OK, EXIT_MAX_ITERS)


def test_python_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "teicp.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("solve", "--problem", "ex1", "--x0", "1,1,1")
    assert done.returncode == EXIT_OK
    assert done.stdout.startswith("Alg.")
    assert run().returncode == EXIT_USAGE
