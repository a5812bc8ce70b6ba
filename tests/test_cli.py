"""CLI entry points, driven in-process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import check_main, core_main, lint_trace_main, main, solve_main, trace_stats_main
from repro.cnf import write_dimacs_file
from repro.generators import pigeonhole
from repro.cnf import CnfFormula


@pytest.fixture
def unsat_cnf(tmp_path):
    path = tmp_path / "php.cnf"
    write_dimacs_file(pigeonhole(4, 3), path)
    return path


@pytest.fixture
def sat_cnf(tmp_path):
    path = tmp_path / "sat.cnf"
    write_dimacs_file(CnfFormula(3, [[1, 2], [-1, 3]]), path)
    return path


def test_solve_unsat(unsat_cnf, capsys):
    assert solve_main([str(unsat_cnf)]) == 0
    out = capsys.readouterr().out
    assert "s UNSAT" in out
    assert "conflicts=" in out


def test_solve_sat_prints_model(sat_cnf, capsys):
    assert solve_main([str(sat_cnf)]) == 0
    out = capsys.readouterr().out
    assert "s SAT" in out
    assert out.splitlines()[1].startswith("v ")


def test_solve_budget_unknown(unsat_cnf, capsys):
    assert solve_main([str(unsat_cnf), "--max-conflicts", "1"]) == 1
    assert "s UNKNOWN" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["df", "bf", "hybrid"])
def test_solve_then_check(unsat_cnf, tmp_path, capsys, method):
    trace = tmp_path / "p.trace"
    assert solve_main([str(unsat_cnf), "--trace", str(trace)]) == 0
    assert check_main([str(unsat_cnf), str(trace), "--method", method]) == 0
    assert "Check Succeeded" in capsys.readouterr().out


def test_binary_trace_roundtrip(unsat_cnf, tmp_path, capsys):
    trace = tmp_path / "p.rtb"
    assert solve_main([str(unsat_cnf), "--trace", str(trace), "--trace-format", "binary"]) == 0
    assert check_main([str(unsat_cnf), str(trace), "--method", "bf"]) == 0


def test_check_rejects_mismatched_formula(unsat_cnf, sat_cnf, tmp_path, capsys):
    trace = tmp_path / "p.trace"
    solve_main([str(unsat_cnf), "--trace", str(trace)])
    assert check_main([str(sat_cnf), str(trace)]) == 1
    assert "Check Failed" in capsys.readouterr().out


@pytest.mark.parametrize("engine", ["kernel", "reference"])
def test_check_engine_selection(unsat_cnf, tmp_path, capsys, engine):
    trace = tmp_path / "trace.txt"
    assert solve_main([str(unsat_cnf), "--trace", str(trace)]) == 0
    assert check_main([str(unsat_cnf), str(trace), "--engine", engine]) == 0
    assert "Check Succeeded" in capsys.readouterr().out


def test_check_profile_emits_hot_functions(unsat_cnf, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    assert solve_main([str(unsat_cnf), "--trace", str(trace)]) == 0
    assert check_main([str(unsat_cnf), str(trace), "--profile"]) == 0
    captured = capsys.readouterr()
    assert "Check Succeeded" in captured.out
    # The cProfile table goes to stderr so the report stays parseable.
    assert "cumtime" in captured.err


def test_check_show_core(unsat_cnf, tmp_path, capsys):
    trace = tmp_path / "p.trace"
    solve_main([str(unsat_cnf), "--trace", str(trace)])
    assert check_main([str(unsat_cnf), str(trace), "--show-core"]) == 0
    assert "core clause ids:" in capsys.readouterr().out


def test_drup_and_rup_check(unsat_cnf, tmp_path, capsys):
    proof = tmp_path / "p.drup"
    assert solve_main([str(unsat_cnf), "--drup", str(proof)]) == 0
    assert check_main([str(unsat_cnf), str(proof), "--method", "rup"]) == 0
    assert "Check Succeeded" in capsys.readouterr().out


def test_solve_validate_flag(unsat_cnf, sat_cnf, capsys):
    assert solve_main([str(unsat_cnf), "--validate"]) == 0
    assert "proof validated" in capsys.readouterr().out
    assert solve_main([str(sat_cnf), "--validate"]) == 0


def test_trim_cli(unsat_cnf, tmp_path, capsys):
    from repro.cli import trim_main

    trace = tmp_path / "p.trace"
    solve_main([str(unsat_cnf), "--trace", str(trace)])
    trimmed = tmp_path / "trimmed.trace"
    assert trim_main([str(unsat_cnf), str(trace), str(trimmed)]) == 0
    assert "kept" in capsys.readouterr().out
    assert check_main([str(unsat_cnf), str(trimmed), "--method", "hybrid"]) == 0


def test_core_cli(unsat_cnf, capsys):
    assert core_main([str(unsat_cnf), "--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "input:" in out
    assert "core clause ids:" in out


def test_trace_stats_cli(unsat_cnf, tmp_path, capsys):
    trace = tmp_path / "p.trace"
    solve_main([str(unsat_cnf), "--trace", str(trace)])
    assert trace_stats_main([str(trace)]) == 0
    assert "learned clauses" in capsys.readouterr().out


@pytest.fixture
def clean_trace(unsat_cnf, tmp_path):
    trace = tmp_path / "p.trace"
    solve_main([str(unsat_cnf), "--trace", str(trace)])
    return trace


def test_lint_trace_accepts_clean_trace(clean_trace, capsys):
    assert lint_trace_main([str(clean_trace)]) == 0
    out = capsys.readouterr().out
    assert "[lint] clean" in out
    assert "reachability" in out


def test_lint_trace_flags_corrupted_trace(clean_trace, tmp_path, capsys):
    lines = clean_trace.read_text().splitlines()
    broken = tmp_path / "broken.trace"
    broken.write_text("\n".join(line for line in lines if not line.startswith("CONF")) + "\n")
    assert lint_trace_main([str(broken)]) == 1
    out = capsys.readouterr().out
    assert "T007" in out and "error" in out


def test_lint_trace_json_output(clean_trace, capsys):
    assert lint_trace_main([str(clean_trace), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["streaming"] is True
    assert payload["num_learned"] > 0


def test_lint_trace_rule_filter_and_no_reachability(clean_trace, capsys):
    assert lint_trace_main([str(clean_trace), "--rules", "T001,T005", "--no-reachability"]) == 0
    assert "reachability" not in capsys.readouterr().out


def test_lint_trace_binary_format(unsat_cnf, tmp_path):
    trace = tmp_path / "p.rtb"
    solve_main([str(unsat_cnf), "--trace", str(trace), "--trace-format", "binary"])
    assert lint_trace_main([str(trace)]) == 0


def test_repro_umbrella_dispatch(clean_trace, unsat_cnf, capsys):
    assert main(["lint-trace", str(clean_trace)]) == 0
    assert main(["check", str(unsat_cnf), str(clean_trace), "--precheck"]) == 0
    assert "Check Succeeded" in capsys.readouterr().out
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0


def test_check_precheck_fails_fast_on_garbage(unsat_cnf, clean_trace, tmp_path, capsys):
    lines = clean_trace.read_text().splitlines()
    broken = tmp_path / "broken.trace"
    broken.write_text("\n".join(line for line in lines if not line.startswith("CONF")) + "\n")
    assert check_main([str(unsat_cnf), str(broken), "--method", "bf", "--precheck"]) == 1
    out = capsys.readouterr().out
    assert "static-precheck" in out


# -- the derivation-graph surface ---------------------------------------------


def test_analyze_text_output(clean_trace, capsys):
    from repro.cli import analyze_main

    assert analyze_main([str(clean_trace)]) == 0
    out = capsys.readouterr().out
    assert "core:" in out
    assert "dag:" in out
    assert "status UNSAT" in out


def test_analyze_json_output(clean_trace, capsys):
    from repro.cli import analyze_main

    assert analyze_main([str(clean_trace), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["schema_version"] == 1
    assert payload["graph"]["core_learned"] > 0
    assert payload["graph"]["prunable"] is True


def test_analyze_flags_broken_trace(clean_trace, tmp_path, capsys):
    lines = clean_trace.read_text().splitlines()
    broken = tmp_path / "broken.trace"
    broken.write_text(
        "\n".join(line for line in lines if not line.startswith("CONF")) + "\n"
    )
    from repro.cli import analyze_main

    assert analyze_main([str(broken)]) == 1
    assert "T007" in capsys.readouterr().out


def test_lint_trace_graph_flag_reports_dead_lemmas(tmp_path, capsys):
    trace = tmp_path / "dead.trace"
    trace.write_text(
        "T 3 3\n"
        "CL 4 1 2\n"
        "CL 5 4 3\n"
        "CL 6 5 1\n"  # never reaches the final conflict: a dead lemma
        "V 1 1 4\n"
        "CONF 5\n"
        "R UNSAT\n"
    )
    assert lint_trace_main([str(trace)]) == 0
    assert "T013" not in capsys.readouterr().out
    assert lint_trace_main([str(trace), "--graph"]) == 0  # info severity
    out = capsys.readouterr().out
    assert "T013" in out
    assert "graph:" in out  # the DAG summary line rides along


def test_check_prune_flag(unsat_cnf, clean_trace, capsys):
    for method in ("df", "bf", "hybrid"):
        assert (
            check_main(
                [str(unsat_cnf), str(clean_trace), "--method", method, "--prune"]
            )
            == 0
        )
        assert "Check Succeeded" in capsys.readouterr().out


def test_check_prune_rejects_plain_rup(unsat_cnf, clean_trace):
    with pytest.raises(SystemExit):
        check_main(
            [str(unsat_cnf), str(clean_trace), "--method", "rup", "--prune"]
        )


def test_trim_verify_cli(unsat_cnf, clean_trace, tmp_path, capsys):
    from repro.cli import trim_main

    trimmed = tmp_path / "trimmed.trace"
    assert trim_main([str(unsat_cnf), str(clean_trace), str(trimmed), "--verify"]) == 0
    assert "deletions kept" in capsys.readouterr().out
    assert check_main([str(unsat_cnf), str(trimmed), "--method", "bf"]) == 0


def test_umbrella_knows_analyze(clean_trace, capsys):
    assert main(["analyze", str(clean_trace)]) == 0
    assert "core:" in capsys.readouterr().out


# -- malformed and hostile DIMACS input ----------------------------------------

BAD_CNF = {
    "clause_count": ("p cnf 3 5\n1 2 0\n-1 0\n", "header declares 5 clauses, found 2"),
    "bad_token": ("p cnf 3 2\n1 x 0\n-1 0\n", "line 2: bad token 'x'"),
}


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("case", sorted(BAD_CNF))
def test_malformed_dimacs_is_a_one_line_error(tmp_path, capsys, command, case):
    text, message = BAD_CNF[case]
    cnf = tmp_path / "bad.cnf"
    cnf.write_text(text)
    trace = tmp_path / "any.trace"
    trace.write_text("")
    argv = [command, str(cnf)] + ([str(trace)] if command == "check" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"repro: {cnf}: {message}\n"
    assert captured.out == ""


#: Declares two billion variables but uses one.
HEADER_BOMB = "p cnf 2000000000 2\n1 0\n-1 0\n"

#: Runs ``repro`` on argv under a 1 GiB address-space limit, so any
#: allocation sized from the header fails with MemoryError.
_LIMITED_REPRO = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "flags", [[], ["--trace", "bomb.trace"], ["--drup", "bomb.drat"], ["--validate"]]
)
def test_header_variable_count_does_not_size_the_solver(tmp_path, flags):
    pytest.importorskip("resource")
    (tmp_path / "bomb.cnf").write_text(HEADER_BOMB)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", _LIMITED_REPRO, "solve", "bomb.cnf", *flags],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "s UNSAT" in result.stdout.splitlines()
    if flags[:1] == ["--trace"]:
        # The trace header still records the declared count.
        assert (tmp_path / "bomb.trace").read_text().splitlines()[0] == "T 2000000000 2"
