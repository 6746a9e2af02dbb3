"""Transfinite rank machinery for finite group-action systems.

Level tables and ranks over abstract action systems, back-and-forth
analysis of finite relational structures, Vaught transforms at
finite-discrete scale, concrete instantiations (finite permutation
actions, the relabeling action of S_n, a windowed full permutation
group), and independent brute-force oracles for every engine.
"""

from .common import (STAB, BudgetError, Budgets, InvalidBaseRelationError,
                     OracleDepthError, RankforgeError, UnsupportedOperationError)
from .structures import (FinStructure, ParseError, RangeError, SchemaError,
                         Signature, StructureError, SuppStructure,
                         brute_isomorphic, canonical_form, eval_atomic,
                         parse_structures_file, permute_structure,
                         serialize_structures, thsigma_contains)
from .scott import ScottTable, scott_rank
from .hjorth import (ActionSystem, LevelTable, compare_ranks, fixed_point_set,
                     hjorth_rank, leq_table, minimal_m, orbit_check_via_rank,
                     partition_by_rank, rank_condition_profile, vaught_delta,
                     vaught_star)
from .actions import (ALL_SUBSETS, SINGLETONS_PLUS_G, FiniteDiscreteAction,
                      FiniteLogicAction, SymbolicLogicAction,
                      parse_action_file)
from .oracle import (LeqOracle, OrbitPartition, ScottOracle, invariant_sets,
                     orbit_partition)

__version__ = "0.1.0"
