import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rankforge import cli
from rankforge import hjorth as hj
from rankforge import verify as vf
from rankforge.cli import main

from conftest import STAB2_ACTION

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


def run_cli(args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "rankforge", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


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


def test_scott_rank_refuses_a_non_finite_structure_before_any_record(tmp_path, capsys):
    # every selected structure is checked before the CONFIG record
    p = tmp_path / "mixed.txt"
    p.write_text("signature\nrel edge 2\nend\n"
                 "structure A size 2\nedge 0 1\nend\n"
                 "supported S support 1\nend\n")
    for extra in ([], ["--structure", "S"]):
        code = main(["scott-rank", str(p), *extra, "--format", "records"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: S is not a finite structure\n"
    assert main(["scott-rank", str(p), "--structure", "A", "--format", "records"]) == 0


def test_scott_rank_refuses_a_structure_above_the_size_cap_before_any_record(
        tmp_path, capsys):
    # a size-9 table would refine 986,410 injective tuples
    p = tmp_path / "big.txt"
    p.write_text("signature\nrel edge 2\nend\n"
                 "structure A size 2\nedge 0 1\nend\n"
                 "structure B size 9\nedge 0 1\nend\n")
    code = main(["scott-rank", str(p), "--format", "records"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: B has size 9, above the Scott table cap of size 8\n"
    assert main(["scott-rank", str(p), "--structure", "A", "--format", "records"]) == 0


def test_records_format(struct_path, tmp_path, capsys):
    # each record kind as the cli writes it; every CHECK record is written by
    # CheckResult.record()
    assert main(["scott-rank", struct_path, "--format", "records"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["RANK point=L2 delta=1 stab=1"]
    p = tmp_path / "stab2.act"
    p.write_text(STAB2_ACTION)
    assert main(["hjorth", str(p), "--dump", "--format", "records"]) == 0
    out = capsys.readouterr().out.splitlines()
    leq = [line for line in out if line.startswith("LEQ ")]
    # levels 1 and 2 of (5 points x 12 basis sets)^2 entries, in index order
    # (level, x0, V0, x1, V1)
    assert len(leq) == 2 * 60 * 60
    assert leq[:2] == ["LEQ level=1 x0=0 V0={g0,g1,g4} x1=0 V1={g0,g1,g4} val=1",
                       "LEQ level=1 x0=0 V0={g0,g1,g4} x1=0 V1={g0,g1,g5} val=1"]
    assert leq[12] == "LEQ level=1 x0=0 V0={g0,g1,g4} x1=1 V1={g0,g1,g4} val=0"
    assert leq[60] == "LEQ level=1 x0=0 V0={g0,g1,g5} x1=0 V1={g0,g1,g4} val=1"
    assert leq[3600] == "LEQ level=2 x0=0 V0={g0,g1,g4} x1=0 V1={g0,g1,g4} val=1"
    assert "LEQ level=2 x0=1 V0={g0,g1,g4} x1=0 V1={g0,g1,g4} val=0" in leq
    assert leq[-1] == ("LEQ level=2 x0=4 V0={g1,g2,g3,g4,g5} "
                       "x1=4 V1={g1,g2,g3,g4,g5} val=1")
    assert "RANK point=0 delta=2 stab=2 m=0" in out
    assert vf.CheckResult("x").record() == "CHECK name=x verdict=pass witness=-"
    assert vf.CheckResult("x", "(q)").record() == "CHECK name=x verdict=fail witness=(q)"


CHECK_LINE = re.compile(r"CHECK name=\S+ verdict=(pass|fail) witness=(.*)")


@pytest.mark.parametrize("args, code", [
    (["verify", "all", "--seed", "7", "--count", "20"], 0),
    (["hjorth", "{stab2}", "--oracle", "--dump"], 0),
    (["hjorth", "{action}", "--max-level", "1"], 1),
    (["hjorth", "{non_basis}"], 1),
    (["compare", "--n", "2"], 0),
], ids=["verify-all", "hjorth-oracle", "hjorth-max-level", "hjorth-no-m", "compare"])
def test_check_passes_exactly_when_it_has_no_witness(args, code, tmp_path, action_path,
                                                     capsys):
    stab2, non_basis = tmp_path / "stab2.act", tmp_path / "c3.act"
    stab2.write_text(STAB2_ACTION)
    non_basis.write_text("space size 3\ngroup\nelem e : 0 1 2\nelem r : 1 2 0\n"
                         "elem r2 : 2 0 1\nend\nbasis sets: {e,r} {e,r2} {e,r,r2}\n")
    argv = [a.format(stab2=stab2, action=action_path, non_basis=non_basis) for a in args]
    assert main([*argv, "--format", "records"]) == code
    checks = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("CHECK ")]
    assert checks
    for line in checks:
        verdict, witness = CHECK_LINE.fullmatch(line).groups()
        assert (verdict == "pass") == (witness == "-"), line
    assert any(" verdict=fail " in line for line in checks) == bool(code)


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


def test_hjorth_oracle_at_depth(tmp_path, capsys):
    # a table that stabilizes at level 2: the oracle comparison covers
    # levels 1-3, and three points have rank 2
    p = tmp_path / "stab2.act"
    p.write_text(STAB2_ACTION)
    code = main(["hjorth", str(p), "--oracle", "--format", "records"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "CHECK name=leq_oracle_equivalence verdict=pass witness=-" in out
    assert [l for l in out if l.startswith("RANK ")] == [
        f"RANK point={x} delta={d} stab=2 m=0" for x, d in enumerate((2, 2, 1, 2, 1))]


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
    # the witness names each point by its file id
    assert "CHECK name=level_monotonicity verdict=fail " \
        "witness=(x0=M,V0=V[02->01],x1=M,V1=V[1->2])" in out


@pytest.mark.parametrize("ident, flags, names", [
    # the file's structure A and its relabeling, which no file id names
    ("A", ["--dump"], ["A", "M1"]),
    # the relabeling's own name M1 is a file id, so it is primed
    ("M1", [], ["M1", "M1'"]),
], ids=["dump", "file-id-M1"])
def test_hjorth_logic_names_each_point_once(tmp_path, capsys, ident, flags, names):
    p = tmp_path / "structs.txt"
    p.write_text(f"signature\nrel edge 2\nend\nstructure {ident} size 2\n"
                 "edge 0 1\nend\n")
    code = main(["hjorth", "--logic", "--structures", str(p), "--n", "2", *flags,
                 "--format", "records"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    ranked = [line.split()[1].removeprefix("point=") for line in lines
              if line.startswith("RANK")]
    assert ranked == names
    assert [line for line in lines if line.startswith("PART")] == \
        [f"PART rank=1 points={';'.join(names)}"]
    leq = [line.split() for line in lines if line.startswith("LEQ")]
    assert len(leq) == (36 if flags else 0)
    assert {f[2].removeprefix("x0=") for f in leq} == \
        {f[4].removeprefix("x1=") for f in leq} == (set(names) if flags else set())


def test_hjorth_logic_refuses_two_ids_for_one_structure(tmp_path, capsys):
    # --logic makes one point of equal structures, which would leave one of
    # the ids unnamed, so the file is refused before any record
    p = tmp_path / "dup.txt"
    p.write_text("signature\nrel edge 2\nend\n"
                 "structure A size 2\nedge 0 1\nend\n"
                 "structure B size 2\nedge 0 1\nend\n")
    code = main(["hjorth", "--logic", "--structures", str(p), "--n", "2",
                 "--format", "records"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: structures A and B are equal: "
                            "--logic needs one id per point\n")


def test_hjorth_symbolic_base_level(tmp_path, capsys):
    p = tmp_path / "supp.txt"
    p.write_text(SUPP_FILE)
    code = main(["hjorth", "--symbolic", "--structures", str(p),
                 "--support", "3", "--k", "2", "--max-level", "1",
                 "--format", "records"])
    out = capsys.readouterr().out
    assert code == 1  # truncated tables cannot stabilize
    assert "CHECK name=stabilization verdict=fail" in out


def test_hjorth_symbolic_rank_has_no_m(tmp_path, capsys):
    # the symbolic action has no finite group, so m is not computed
    p = tmp_path / "supp.txt"
    p.write_text("signature\nrel edge 2\nend\nsupported A support 1\nend\n")
    code = main(["hjorth", "--symbolic", "--structures", str(p),
                 "--support", "2", "--k", "1", "--format", "records"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[1:] == ["RANK point=A delta=1 stab=1 m=NA", "PART rank=1 points=A"]


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


def test_compare_empty_signature_with_rel_usage_error(capsys):
    code = main(["compare", "--empty-signature", "--rel", "edge:2", "--n", "1",
                 "--format", "records"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --rel does not apply to --empty-signature\n"


def test_compare_budget_env(capsys):
    os.environ["RANKFORGE_BUDGET"] = "n=2"
    try:
        code = main(["compare", "--n", "3"])
    finally:
        del os.environ["RANKFORGE_BUDGET"]
    assert code == 3


def test_budget_env_refuses_a_repeated_key():
    # the second g used to win without a word
    proc = run_cli(["compare", "--n", "2"], {"RANKFORGE_BUDGET": "g=2, g=32"})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: bad RANKFORGE_BUDGET entry: 'g=32' "
                           "repeats key g\n")


BAD_INT_STRUCTURE = "signature\nrel edge 2\nend\nstructure A size 2\nedge 0 {}\nend\n"
BAD_INT_ACTION = "space size {}\ngroup\nelem e : 0 1\nend\n"


@pytest.mark.parametrize("argv, budget, text, named", [
    (["compare", "--n", "2"], "g=²", None, "'g=²'"),
    (["scott-rank", "FILE"], None, BAD_INT_STRUCTURE.format("²"), "'²'"),
    (["scott-rank", "FILE"], None, BAD_INT_STRUCTURE.format("--1"), "'--1'"),
    (["hjorth", "FILE"], None, BAD_INT_ACTION.format("²"), "'²'"),
    (["compare", "--n", "2", "--rel", "edge:²"], None, None, "'edge:²'"),
    (["verify", "lemmas", "--count", "1", "--sizes", "n<=²"], None, None, "'n<=²'"),
], ids=["budget", "element", "two-minus", "space-size", "rel", "sizes"])
def test_integer_tokens_int_refuses_exit_2(argv, budget, text, named, tmp_path,
                                           monkeypatch, capsys):
    # isdigit() takes '²' and lstrip('-') takes '--1', but int() refuses
    # both: each of these used to raise ValueError (a traceback, or exit 4)
    if budget is not None:
        monkeypatch.setenv("RANKFORGE_BUDGET", budget)
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    try:
        code = main([str(path) if arg == "FILE" else arg for arg in argv])
    except SystemExit as exc:  # argparse refuses the option value
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert named in captured.err


def test_verify_default_sizes_are_capped_by_the_budget(monkeypatch, capsys):
    # defaults g<=8, x<=6, n<=3 and 200 systems; the budget lowers g and n
    monkeypatch.setenv("RANKFORGE_BUDGET", "g=3,n=2")
    assert main(["verify", "comparison", "--format", "records"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "CONFIG command=verify suite=comparison seed=0 sizes=g<=3,x<=6,n<=2 "
        "count=200 format=records")


@pytest.mark.parametrize("suite, budget, least", [
    ("lemmas", "g=0", "g, 1"),  # unchecked, drawing a group never ends
    ("lemmas", "x=1", "x, 2"),  # unchecked, an empty randrange: exit 4
    ("comparison", "n=0", "n, 1"),  # unchecked, an empty scan passes
], ids=["g", "x", "n"])
def test_verify_budget_below_the_least_size_exit_3(suite, budget, least):
    # a subprocess with a timeout, so that a hang fails instead of blocking
    proc = run_cli(["verify", suite, "--count", "1", "--format", "records"],
                   {"RANKFORGE_BUDGET": budget}, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"error: budget {budget} is below the least size of {least}\n"


@pytest.mark.parametrize("args", [
    ["compare", "--n", "4"],
    ["verify", "comparison", "--sizes", "n<=4"],
    ["verify", "lemmas", "--count", "1", "--sizes", "n<=4"],
], ids=["compare", "verify-comparison", "verify-lemmas"])
def test_scan_size_above_the_scans_cap_exit_3(args, monkeypatch, capsys):
    # the default budget n=4 admits n=4, but the scan's own cap is n<=3; the
    # CONFIG record names n, so every suite refuses it
    monkeypatch.delenv("RANKFORGE_BUDGET", raising=False)
    code = main([*args, "--format", "records"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: comparison scan n=4 exceeds the scan's cap n<=3\n"


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


@pytest.mark.parametrize("args, budget, config", [
    # the first ensemble table is 5 points x 63 basis sets = 315 pairs
    (["verify", "lemmas", "--seed", "7", "--count", "3"], 50, "verify"),
    # the second ensemble table is 5 points x 15 basis sets = 75 pairs
    (["verify", "basis", "--seed", "0", "--count", "3"], 50, "verify"),
    # every orbit table of the scan at n=2 is 6 pairs
    (["verify", "comparison", "--sizes", "n<=2"], 5, "verify"),
    (["compare", "--n", "2"], 5, "compare"),
], ids=["verify-lemmas", "verify-basis", "verify-comparison", "compare"])
def test_table_pairs_budget_env_bounds_every_table(args, budget, config):
    proc = run_cli([*args, "--format", "records"],
                   {"RANKFORGE_BUDGET": f"table_pairs={budget}"})
    assert proc.returncode == 3
    errors = proc.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: ")
    assert f"table budget of {budget}" in errors[0]
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith(f"CONFIG command={config} ")
    assert "CHECK" not in proc.stdout


@pytest.mark.parametrize("args, message", [
    (["compare", "--max-tuple", "-1"], "must be at least 0, got -1"),
    (["compare", "--n", "0"], "must be at least 1, got 0"),
    (["verify", "lemmas", "--count", "0"], "must be at least 1, got 0"),
    (["verify", "lemmas", "--count", "-3"], "must be at least 1, got -3"),
    (["hjorth", "--max-level", "0"], "must be at least 1, got 0"),
    # int() takes each of these tokens; a flag takes ASCII digits only
    (["compare", "--n", "\u0662"], "argument --n: not an integer: '\u0662'"),
    (["verify", "lemmas", "--seed", "1_0"], "argument --seed: not an integer: '1_0'"),
    (["compare", "--seed", "+1"], "argument --seed: not an integer: '+1'"),
    (["verify", "lemmas", "--count", " 3"], "argument --count: not an integer: ' 3'"),
    (["hjorth", "--k", "\uff12"], "argument --k: not an integer: '\uff12'"),
], ids=["max-tuple", "n", "count-zero", "count-negative", "max-level",
        "n-arabic-indic", "seed-underscore", "seed-plus", "count-space", "k-fullwidth"])
def test_numeric_flag_out_of_range_usage_error(args, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


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


@pytest.mark.parametrize("args,message", [
    (["--logic", "--structures", "{structs}", "--n", "2", "--basis", "all-subsets"],
     "--basis does not apply to --logic"),
    (["{action}", "--logic", "--structures", "{structs}", "--n", "2"],
     "an action file does not apply to --logic"),
    (["--symbolic", "--structures", "{supp}", "--basis", "singletons+G"],
     "--basis does not apply to --symbolic"),
    (["{action}", "--symbolic", "--structures", "{supp}"],
     "an action file does not apply to --symbolic"),
    (["{action}", "--structures", "{structs}"], "--structures does not apply"),
    (["{action}", "--n", "3"], "--n does not apply to an action file"),
    (["{action}", "--k", "0"], "--k does not apply to an action file"),
    (["{action}", "--support", "2"], "--support does not apply to an action file"),
    (["--logic", "--structures", "{structs}", "--n", "2", "--support", "2"],
     "--support does not apply to --logic"),
    (["--symbolic", "--structures", "{supp}", "--n", "3"],
     "--n does not apply to --symbolic"),
    (["--logic", "--symbolic", "--structures", "{supp}"],
     "--logic and --symbolic exclude each other"),
], ids=["logic-basis", "logic-file", "symbolic-basis", "symbolic-file",
        "file-structures", "file-n", "file-k", "file-support", "logic-support",
        "symbolic-n", "logic-symbolic"])
def test_hjorth_rejects_options_that_do_not_apply(tmp_path, action_path, args,
                                                  message, capsys):
    structs, supp = tmp_path / "structs.txt", tmp_path / "supp.txt"
    structs.write_text("signature\nrel edge 2\nend\nstructure A size 2\nend\n")
    supp.write_text(SUPP_FILE)
    argv = [a.format(action=action_path, structs=structs, supp=supp) for a in args]
    code = main(["hjorth", *argv, "--format", "records"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_hjorth_repeated_action_directive_exits_2(tmp_path, capsys):
    # a second group block used to append its elements to the first
    p = tmp_path / "twice.act"
    p.write_text("space size 2\ngroup\nelem e : 0 1\nend\ngroup\nelem s : 1 0\n"
                 "end\nbasis all-subsets\nbasis singletons+G\n")
    code = main(["hjorth", str(p), "--format", "records"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: line 5: repeated group directive\n"


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


@pytest.mark.parametrize("unbuffered", [True, False], ids=["record", "final-flush"])
def test_closed_stdout_exits_141_without_error_line(unbuffered):
    # the reader is gone before the first write: the command exits as a
    # shell reports a writer killed by SIGPIPE, and prints nothing on stderr,
    # whether a record's write fails (unbuffered) or main's final flush does
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rankforge", "compare", "--n", "2",
             "--format", "records"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_closed_stdout_keeps_the_error_exit(action_path):
    # the run ends on a budget error with its CONFIG record still buffered,
    # and the reader is gone: main's flush fails, not the interpreter's, so
    # the error keeps its exit code and its line, and nothing else is printed
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    env["RANKFORGE_BUDGET"] = "table_pairs=2"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rankforge", "hjorth", action_path,
             "--format", "records"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == (b"error: 3 points x 3 basis sets = 9 pairs exceed "
                           b"the table budget of 2\n")


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


def test_verify_fault_in_later_suite_keeps_earlier_records(monkeypatch, capsys):
    # the lemma suite finishes before the iso suite reaches minimal_m, so its
    # seven checks are printed before the internal error
    def fail(table, x):
        raise TypeError("bug")
    monkeypatch.setattr(hj, "minimal_m", fail)
    assert main(["verify", "all", "--count", "3", "--sizes", "n<=1",
                 "--format", "records"]) == 4
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == ("CONFIG command=verify suite=all seed=0 sizes=g<=8,x<=6,n<=1 "
                        "count=3 format=records")
    assert [line.split()[1] for line in lines[1:]] == [
        "name=leq_oracle_equivalence", "name=leq_transitivity",
        "name=level_monotonicity", "name=set_monotonicity",
        "name=translation_invariance", "name=equiv_invariance",
        "name=stabilized_equiv_invariant_sets"]
    assert all(line.startswith("CHECK ") and "verdict=pass" in line
               for line in lines[1:])
    assert captured.err == "error: internal error: TypeError: bug\n"


# OpenBLAS reads its thread count once, when numpy loads it, so each of these
# runs in a fresh interpreter; none of the variables OpenBLAS reads is
# inherited unless the test sets it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_fresh(args, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def blas_threads(*modules, env_extra=None):
    """The OpenBLAS thread count after importing the modules in a fresh
    interpreter, read as perfbench/child.py reads host.blas_threads; skips
    the test when numpy is not built on OpenBLAS."""
    out = run_fresh([os.path.join(os.path.dirname(__file__), "blas_threads.py"),
                     *modules], env_extra)
    if out == "None":
        pytest.skip("numpy is not built on OpenBLAS")
    return int(out)


def test_command_runs_openblas_on_one_thread():
    assert blas_threads("rankforge.cli") == 1


@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_command_keeps_a_blas_thread_count_the_user_set(var):
    assert blas_threads("rankforge.cli", env_extra={var: "2"}) == 2


@pytest.mark.parametrize("module", ["rankforge", "rankforge.hjorth"])
def test_library_import_leaves_the_blas_thread_count_alone(module):
    assert blas_threads(module, "numpy") == blas_threads("numpy")


def test_command_import_leaves_the_environment_as_it_found_it():
    code = ("import os; before = dict(os.environ); import rankforge.cli; "
            "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert run_fresh(["-c", code]) == "True False"
