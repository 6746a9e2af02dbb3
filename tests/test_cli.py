import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rankforge import cli
from rankforge import hjorth as hj
from rankforge.cli import main

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

STRUCT_FILE = """signature
rel lt 2
end
structure L2 size 2
lt 0 1
end
"""

ACTION_FILE = """space size 3
group
elem e : 0 1 2
elem s : 1 0 2
end
basis all-subsets
"""

SUPP_FILE = """signature
rel edge 2
end
supported M support 2
edge 0 1
end
supported N support 3
edge 0 1
edge 1 2
end
"""


@pytest.fixture
def struct_path(tmp_path):
    p = tmp_path / "l2.txt"
    p.write_text(STRUCT_FILE)
    return str(p)


@pytest.fixture
def action_path(tmp_path):
    p = tmp_path / "sys1.act"
    p.write_text(ACTION_FILE)
    return str(p)


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "rankforge", *args],
                          capture_output=True, text=True, env=env)


def test_scott_rank_records(struct_path, capsys):
    code = main(["scott-rank", struct_path, "--format", "records"])
    out = capsys.readouterr().out
    assert code == 0
    assert "RANK point=L2 delta=1 stab=1" in out


def test_scott_rank_malformed_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("structure X size 2\nend\n")
    code = main(["scott-rank", str(p), "--format", "records"])
    out = capsys.readouterr().out
    assert code == 2
    assert "RANK" not in out


def test_scott_rank_without_structures_exits_2(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("signature\nrel edge 2\nend\n")
    code = main(["scott-rank", str(p), "--format", "records"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no structures" in captured.err


def test_scott_rank_unknown_structure_exits_2(struct_path, capsys):
    code = main(["scott-rank", struct_path, "--structure", "L9", "--format", "records"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "L9" in captured.err
    assert main(["scott-rank", struct_path, "--structure", "L2",
                 "--format", "records"]) == 0
    assert "RANK point=L2 delta=1 stab=1" in capsys.readouterr().out


def test_hjorth_records(action_path, capsys):
    code = main(["hjorth", action_path, "--format", "records"])
    out = capsys.readouterr().out
    assert code == 0
    assert "RANK point=0 delta=1 stab=1 m=0" in out
    assert "PART rank=1 points=0;1;2" in out


def test_hjorth_dump_and_point(action_path, capsys):
    code = main(["hjorth", action_path, "--format", "records", "--dump",
                 "--point", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    leq = [l for l in out if l.startswith("LEQ ")]
    assert len(leq) == 81  # (3 points x 3 basis)^2 at the single stored level
    assert all(" level=1 " in l for l in leq)
    assert sum(1 for l in out if l.startswith("RANK ")) == 1


def test_hjorth_unknown_point_exits_before_any_output(action_path):
    proc = run_cli(["hjorth", action_path, "--point", "9", "--format", "records"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unknown point 9" in proc.stderr


def test_hjorth_non_basis_family_fails_minimal_m(tmp_path, capsys):
    # {e,r} n {e,r2} = {e} is no union of members: not a basis, so the level
    # classes never reach the orbit and no point has a finite m
    p = tmp_path / "c3.act"
    p.write_text("space size 3\ngroup\nelem e : 0 1 2\nelem r : 1 2 0\n"
                 "elem r2 : 2 0 1\nend\nbasis sets: {e,r} {e,r2} {e,r,r2}\n")
    code = main(["hjorth", str(p), "--format", "records"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [l for l in out if l.startswith("RANK ")] == [
        f"RANK point={x} delta=1 stab=2 m=NA" for x in range(3)]
    assert "CHECK name=minimal_m_finite verdict=fail witness=0" in out
    assert out[-1] == "PART rank=1 points=0;1;2"


def test_hjorth_logic_records_deterministic_across_processes(tmp_path):
    p = tmp_path / "structs.txt"
    p.write_text("signature\nrel edge 2\nend\n"
                 "structure A size 3\nedge 0 1\nedge 1 2\nend\n"
                 "structure B size 3\nedge 0 0\nedge 2 1\nend\n"
                 "structure C size 3\nend\n")
    args = ["hjorth", "--logic", "--structures", str(p), "--n", "3", "--k", "2",
            "--oracle", "--format", "records"]
    first = run_cli(args, {"PYTHONHASHSEED": "1"})
    second = run_cli(args, {"PYTHONHASHSEED": "77"})
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.count("RANK ") == 13  # orbits of sizes 6, 6 and 1


def test_hjorth_oracle_flag(action_path, capsys):
    code = main(["hjorth", action_path, "--format", "records", "--oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CHECK name=leq_oracle_equivalence verdict=pass" in out


def test_hjorth_logic(tmp_path, capsys):
    p = tmp_path / "structs.txt"
    p.write_text("signature\nrel edge 2\nend\n"
                 "structure A size 2\nedge 0 1\nend\n"
                 "structure B size 2\nend\n")
    code = main(["hjorth", "--logic", "--structures", str(p), "--n", "2",
                 "--format", "records"])
    out = capsys.readouterr().out
    assert code == 0
    assert "RANK point=A" in out and "RANK point=B" in out


def test_hjorth_symbolic_reports_violation(tmp_path, capsys):
    p = tmp_path / "supp.txt"
    p.write_text(SUPP_FILE)
    code = main(["hjorth", "--symbolic", "--structures", str(p),
                 "--support", "3", "--k", "2", "--format", "records"])
    out = capsys.readouterr().out
    assert code == 1
    assert "CHECK name=level_monotonicity verdict=fail witness=(" in out


def test_hjorth_symbolic_base_level(tmp_path, capsys):
    p = tmp_path / "supp.txt"
    p.write_text(SUPP_FILE)
    code = main(["hjorth", "--symbolic", "--structures", str(p),
                 "--support", "3", "--k", "2", "--max-level", "1",
                 "--format", "records"])
    out = capsys.readouterr().out
    assert code == 1  # truncated tables cannot stabilize
    assert "CHECK name=stabilization verdict=fail" in out


def test_hjorth_oversize_logic_budget(tmp_path, capsys):
    p = tmp_path / "structs.txt"
    p.write_text("signature\nrel edge 2\nend\nstructure A size 2\nend\n")
    code = main(["hjorth", "--logic", "--structures", str(p), "--n", "9"])
    assert code == 3


def test_verify_records_and_exit(capsys):
    code = main(["verify", "vaught", "--seed", "3", "--count", "6",
                 "--format", "records"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("CONFIG command=verify suite=vaught seed=3 ")
    assert "CHECK name=vaught_duality verdict=pass" in out


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["verify", "nope"])
    assert err.value.code == 2


def test_compare_records(capsys):
    code = main(["compare", "--n", "2", "--format", "records"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CHECK name=scott_implies_hjorth verdict=pass" in out
    assert any(line.startswith("PROFILE ") for line in out.splitlines())


def test_compare_empty_signature_degenerate(capsys):
    code = main(["compare", "--empty-signature", "--n", "2",
                 "--format", "records"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CHECK name=scott_implies_hjorth verdict=pass" in out


def test_compare_budget_env(capsys):
    os.environ["RANKFORGE_BUDGET"] = "n=2"
    try:
        code = main(["compare", "--n", "3"])
    finally:
        del os.environ["RANKFORGE_BUDGET"]
    assert code == 3


def test_sizes_flag_parsing(capsys):
    code = main(["verify", "basis", "--seed", "1", "--count", "4",
                 "--sizes", "g≤4,x≤4,n≤2", "--format", "records"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sizes=g<=4,x<=4,n<=2" in out


def test_records_deterministic_across_processes():
    args = ["verify", "vaught", "--seed", "9", "--count", "5",
            "--format", "records"]
    first = run_cli(args, {"PYTHONHASHSEED": "1"})
    second = run_cli(args, {"PYTHONHASHSEED": "77"})
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_hjorth_table_pairs_budget_env(action_path):
    # sys1 has 3 points x 3 basis sets = 9 pairs
    proc = run_cli(["hjorth", action_path, "--format", "records"],
                   {"RANKFORGE_BUDGET": "table_pairs=2"})
    assert proc.returncode == 3
    assert "table budget of 2" in proc.stderr
    assert "RANK" not in proc.stdout
    # records stream: the CONFIG record printed before the failure stays
    assert proc.stdout.startswith("CONFIG command=hjorth ")


@pytest.mark.parametrize("args", [
    ["compare", "--max-tuple", "-1"],
    ["compare", "--n", "0"],
    ["verify", "lemmas", "--count", "0"],
    ["verify", "lemmas", "--count", "-3"],
    ["hjorth", "--max-level", "0"],
], ids=["max-tuple", "n", "count-zero", "count-negative", "max-level"])
def test_numeric_flag_out_of_range_usage_error(args, capsys):
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("sizes,message", [
    ("x<=1", "x must be at least 2"),
    ("n<=0", "n must be at least 1"),
    ("g<=0", "g must be at least 1"),
], ids=["x", "n", "g"])
def test_verify_sizes_out_of_range_usage_error(sizes, message):
    suite = "iso" if sizes.startswith("n") else "lemmas"
    proc = run_cli(["verify", suite, "--sizes", sizes, "--count", "2"])
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("sizes,budget,message", [
    ("g<=8,x<=6", "x=3,g=2", "--sizes g<=8 exceeds budget g=2"),
    ("x<=6", "x=3", "--sizes x<=6 exceeds budget x=3"),
    ("n<=3", "n=2", "--sizes n<=3 exceeds budget n=2"),
], ids=["g", "x", "n"])
def test_verify_sizes_above_budget_exit_3(sizes, budget, message, monkeypatch,
                                          capsys):
    monkeypatch.setenv("RANKFORGE_BUDGET", budget)
    code = main(["verify", "basis", "--sizes", sizes, "--count", "2",
                 "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("sizes", ["s<=0,k<=0", "k<=2"])
def test_verify_sizes_rejects_keys_the_suites_ignore(sizes, capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "basis", "--sizes", sizes, "--count", "2", "--seed", "0"])
    assert err.value.code == 2
    assert "bad sizes token" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--logic", "--n", "2", "--k", "-1"],
    ["--logic", "--n", "0"],
    ["--symbolic", "--support", "-1"],
], ids=["k", "n", "support"])
def test_hjorth_size_flags_out_of_range_usage_error(tmp_path, args):
    p = tmp_path / "structs.txt"
    p.write_text("signature\nrel edge 2\nend\nstructure A size 2\nedge 0 1\nend\n")
    proc = run_cli(["hjorth", "--structures", str(p), *args])
    assert proc.returncode == 2
    assert "must be at least" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_hjorth_logic_k_over_budget_exit_3(tmp_path, monkeypatch, capsys):
    p = tmp_path / "structs.txt"
    p.write_text("signature\nrel edge 2\nend\nstructure A size 2\nend\n")
    monkeypatch.setenv("RANKFORGE_BUDGET", "k=1")
    code = main(["hjorth", "--logic", "--structures", str(p), "--n", "2",
                 "--k", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert "k=2 exceeds budget k=1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["scott-rank", "{path}"],
    ["hjorth", "{path}"],
    ["hjorth", "--logic", "--structures", "{path}", "--n", "2"],
], ids=["scott-rank", "hjorth", "structures"])
def test_non_utf8_input_usage_error(tmp_path, args):
    p = tmp_path / "latin1.txt"
    p.write_bytes(STRUCT_FILE.encode("utf-8").replace(b"L2", b"L\xff"))
    proc = run_cli([a.format(path=p) for a in args])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "utf-8" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_compare_scan_records_match_benchmark_digest(capsys):
    # the digest perfbench pins for its compare-scan workload on seed 0
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_check", root / "perfbench" / "check.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    meta = json.loads((root / "perfbench" / "meta.json").read_text())
    expected = meta["expected"]["workloads"]["compare-scan"]["records_sha256"]
    code = main(["compare", "--n", "3", "--rel", "edge:2", "--seed", "0",
                 "--format", "records"])
    assert code == 0
    assert check.records_digest(capsys.readouterr().out) == expected


@pytest.mark.parametrize("exc, code, message", [
    (MemoryError(), 3, "error: out of memory"),
    (ValueError("bad\nvalue"), 4, "error: internal error: ValueError: bad value"),
], ids=["memory", "internal"])
def test_uncaught_exception_exit_code(exc, code, message, monkeypatch, capsys):
    # exit 1 is kept for failed checks: other faults get a one-line message
    def fail(args, budgets):
        print("CONFIG command=compare")
        raise exc
    monkeypatch.setattr(cli, "cmd_compare", fail)
    assert main(["compare", "--n", "2"]) == code
    captured = capsys.readouterr()
    assert captured.out == "CONFIG command=compare\n"
    assert captured.err == message + "\n"


def test_verify_fault_in_minimal_m_is_internal(monkeypatch, capsys):
    # only a non-basis family fails minimal_m_finite; a fault in rankforge
    # itself is an uncaught error, not a failed check
    def fail(table, x):
        raise TypeError("bug")
    monkeypatch.setattr(hj, "minimal_m", fail)
    assert main(["verify", "iso", "--count", "3", "--format", "records"]) == 4
    captured = capsys.readouterr()
    assert "CHECK" not in captured.out
    assert captured.err == "error: internal error: TypeError: bug\n"
