import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rankforge

ROOT = Path(__file__).resolve().parents[1]

# the names the package exported when it imported every submodule eagerly,
# by the submodule that defines each
EAGER_EXPORTS = {
    "common": ["STAB", "BudgetError", "Budgets", "InvalidBaseRelationError",
               "OracleDepthError", "RankforgeError", "UnsupportedOperationError"],
    "structures": ["FinStructure", "ParseError", "RangeError", "SchemaError",
                   "Signature", "StructureError", "SuppStructure",
                   "brute_isomorphic", "canonical_form", "eval_atomic",
                   "parse_structures_file", "permute_structure",
                   "serialize_structures", "thsigma_contains"],
    "scott": ["ScottTable", "scott_rank"],
    "hjorth": ["ActionSystem", "LevelTable", "compare_ranks", "fixed_point_set",
               "hjorth_rank", "leq_table", "minimal_m", "orbit_check_via_rank",
               "partition_by_rank", "rank_condition_profile", "vaught_delta",
               "vaught_star"],
    "actions": ["ALL_SUBSETS", "SINGLETONS_PLUS_G", "FiniteDiscreteAction",
                "FiniteLogicAction", "SymbolicLogicAction", "parse_action_file"],
    "oracle": ["LeqOracle", "OrbitPartition", "ScottOracle", "invariant_sets",
               "orbit_partition"],
}


def test_import_loads_no_numpy():
    # a submodule the eager package imported is still an attribute of it
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, rankforge; "
            "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'rankforge')))); "
            "print(rankforge.hjorth.leq_table is rankforge.leq_table)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['rankforge']\nTrue\n"


def test_exports_are_the_eager_packages_names():
    assert sorted(rankforge.__all__) == sorted(
        name for names in EAGER_EXPORTS.values() for name in names)


@pytest.mark.parametrize("module", sorted(EAGER_EXPORTS))
def test_each_export_is_its_submodules_object(module):
    submodule = importlib.import_module(f"rankforge.{module}")
    for name in EAGER_EXPORTS[module]:
        assert getattr(rankforge, name) is getattr(submodule, name), name


def test_readme_example_runs(tmp_path, monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n( *from rankforge import .*?)```", text, re.S).group(1)
    example = textwrap.dedent(block)
    (tmp_path / "system.act").write_text(
        "space size 3\ngroup\nelem e : 0 1 2\nelem s : 1 0 2\nend\nbasis all-subsets\n")
    monkeypatch.chdir(tmp_path)
    exec(example, {"print": lambda *args: None})


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        rankforge.no_such_name
    with pytest.raises(ImportError):
        exec("from rankforge import no_such_name", {})
