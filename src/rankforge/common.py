"""Shared sentinels, budgets and exception types."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

#: Distinguished level naming the stabilized relation.  On finite inputs the
#: decreasing level chains become constant, so the stabilized table plays the
#: role of every limit level; operations taking a level accept ints >= their
#: base level or this sentinel.
STAB = "stab"


class RankforgeError(Exception):
    """Base class for all package errors."""


class BudgetError(RankforgeError):
    """An enumeration or table would exceed the configured budget."""


class UnsupportedOperationError(RankforgeError):
    """``translate`` on a basis that is not closed under translation."""


class InvalidBaseRelationError(RankforgeError):
    """The level tables grew: the supplied base relation is not continuous.

    Carries the first violating quadruple, in index form, as ``witness``.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class OracleDepthError(RankforgeError):
    """Naive oracle recursion exceeded its configured depth."""


def ascii_int(token: str, signed: bool = False) -> int | None:
    """A token of ASCII digits (one leading '-' if ``signed``) as an int, else None."""
    digits = token[1:] if signed and token[:1] == "-" else token
    return int(token) if digits.isascii() and digits.isdigit() else None


_BUDGET_ENV = "RANKFORGE_BUDGET"


@dataclass(frozen=True)
class Budgets:
    """Size caps for builders and scans.  Conservative by default."""

    g: int = 16  # group order (finite-discrete)
    x: int = 12  # space size (finite-discrete)
    n: int = 4   # universe size (finite logic action)
    s: int = 3   # support window (symbolic logic action)
    k: int = 3   # tuple-length cap for coset bases
    table_pairs: int = 6000  # max (point, basis) pairs in one level table

    @classmethod
    def from_env(cls, env: str | None = None) -> "Budgets":
        """Default budgets overridden by RANKFORGE_BUDGET ("g=32,x=16,...");
        each key at most once."""
        raw = os.environ.get(_BUDGET_ENV, "") if env is None else env
        budgets = cls()
        if not raw.strip():
            return budgets
        fields = {}
        for item in raw.split(","):
            item = item.strip()
            if not item:
                continue
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in cls.__dataclass_fields__ or ascii_int(value.strip()) is None:
                raise BudgetError(f"bad {_BUDGET_ENV} entry: {item!r}")
            if key in fields:
                raise BudgetError(f"bad {_BUDGET_ENV} entry: {item!r} repeats key {key}")
            fields[key] = int(value)
        return replace(budgets, **fields)
