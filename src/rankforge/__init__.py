"""Transfinite rank machinery for finite group-action systems.

Level tables and ranks over abstract action systems, back-and-forth
analysis of finite relational structures, Vaught transforms at
finite-discrete scale, concrete instantiations (finite permutation
actions, the relabeling action of S_n, a windowed full permutation
group), and independent brute-force oracles for every engine.

The names below are loaded from their submodules on first use (PEP 562),
so ``import rankforge`` alone loads no numpy: ``rankforge.cli`` decides how
numpy loads for the command before anything else imports it.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "common": ("STAB", "BudgetError", "Budgets", "InvalidBaseRelationError",
               "OracleDepthError", "RankforgeError", "UnsupportedOperationError"),
    "structures": ("FinStructure", "ParseError", "RangeError", "SchemaError",
                   "Signature", "StructureError", "SuppStructure",
                   "brute_isomorphic", "canonical_form", "eval_atomic",
                   "parse_structures_file", "permute_structure",
                   "serialize_structures", "thsigma_contains"),
    "scott": ("ScottTable", "scott_rank"),
    "hjorth": ("ActionSystem", "LevelTable", "compare_ranks", "fixed_point_set",
               "hjorth_rank", "leq_table", "minimal_m", "orbit_check_via_rank",
               "partition_by_rank", "rank_condition_profile", "vaught_delta",
               "vaught_star"),
    "actions": ("ALL_SUBSETS", "SINGLETONS_PLUS_G", "FiniteDiscreteAction",
                "FiniteLogicAction", "SymbolicLogicAction", "parse_action_file"),
    "oracle": ("LeqOracle", "OrbitPartition", "ScottOracle", "invariant_sets",
               "orbit_partition"),
}

#: exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _SUBMODULE_NAMES.items()
            for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # a submodule the eager package imported stays an attribute of it
    if name in _SUBMODULE_NAMES:
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
