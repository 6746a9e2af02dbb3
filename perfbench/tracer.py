"""Spans around the public entry points of each rankforge layer.

The tracer wraps functions and methods of an imported ``rankforge`` from the
outside; the program itself carries no instrumentation.  A span opens only on
the outermost call of its name, so a layer that calls itself (``minimal_m``
calling ``hjorth_rank``) costs one span, and per-entry work (``cc``,
``LeqOracle.query``, table lookups) is never wrapped: it is counted from the
sizes of the objects the wrapped calls build.  Spans stay in memory with a
link to their parent and are reduced to per-layer self times when the pass
ends.  The cost of the wrappers themselves is estimated as the number of
wrapped calls times the cost of one wrapped call, calibrated on a no-op.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

_clock = time.perf_counter


# metric name -> span name whose self time it reports
SELF_TIME_METRICS = {"structures.parse_s": "structures.parse",
                     "actions.build_s": "actions.build",
                     "actions.basis_of_s": "actions.basis_of",
                     "hjorth.table_s": "hjorth.table",
                     "hjorth.rank_s": "hjorth.rank",
                     "scott.table_s": "scott.table",
                     "oracle.check_s": "oracle.check",
                     "verify.self_s": "verify.suite",
                     "verify.ensemble_s": "verify.ensemble",
                     "cli.self_s": "cli.main"}
COUNT_METRICS = ("structures.parsed", "actions.systems_built", "actions.points",
                 "actions.basis_sets", "actions.basis_of_calls", "hjorth.tables",
                 "hjorth.table_entries", "hjorth.levels", "hjorth.rank_calls",
                 "scott.tables", "scott.items", "scott.levels", "oracle.quadruples",
                 "oracle.queries", "verify.checks", "verify.systems")


def _injective_tuples(size: int) -> int:
    """Injective tuples of every length over ``size`` elements."""
    total, run = 1, 1
    for k in range(size):
        run *= size - k
        total += run
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._tables: dict[int, tuple[int, int]] = {}
        self.largest_system = None
        self._largest_pairs = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, span: str, after=None):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, opened, calls = self._stack, self._open, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[span] += 1
            if opened[span]:
                result = fn(*args, **kwargs)
            else:
                idx = len(names)
                names.append(span)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                stack.append(idx)
                opened[span] = 1
                starts.append(_clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = _clock()
                    opened[span] = 0
                    stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, module: str, target: str, span: str, after=None):
        mod = importlib.import_module(module)
        owner_name, _, attr = target.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{target}")
                return
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, after))
            return
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(f"{module}.{target}")
            return
        wrapper = self._wrap(original, span, after)
        # names imported with ``from .x import f`` are rebound too
        for name, other in list(sys.modules.items()):
            if name.split(".")[0] == "rankforge" and \
                    getattr(other, attr, None) is original:
                self._undo.append((other, attr, original))
                setattr(other, attr, wrapper)

    def install(self):
        count = self.counts

        def parsed(args, result):
            count["structures.parsed"] += len(result[1])

        def system(args, result):
            built = args[0]
            count["actions.systems_built"] += 1
            count["actions.points"] += len(built.points)
            count["actions.basis_sets"] += len(built.basis)

        def basis_of(args, result):
            count["actions.basis_of_calls"] += 1

        def table(args, result):
            tab, sys_ = args[0], args[1]
            pairs = len(sys_.points) * len(sys_.basis)
            levels = len(tab.levels)
            count["hjorth.tables"] += 1
            count["hjorth.levels"] += levels
            count["hjorth.table_entries"] += pairs * pairs * levels
            self._tables[id(sys_)] = (pairs, levels if tab.stab is None
                                      else tab.stab)
            if pairs > self._largest_pairs:
                self._largest_pairs, self.largest_system = pairs, sys_

        def rank(args, result):
            count["hjorth.rank_calls"] += 1

        def scott(args, result):
            family = args[1] if len(args) > 1 else ()
            count["scott.tables"] += 1
            count["scott.items"] += sum(_injective_tuples(m.size) for m in family)
            count["scott.levels"] += args[0].levels

        def oracle(args, result):
            # every quadruple is compared at each level 1 .. stab + 1
            count["oracle.quadruples"] += result.stats.get("quadruples", 0)
            for sys_ in args[0]:
                pairs, stab = self._tables.get(id(sys_), (0, 0))
                count["oracle.queries"] += pairs * pairs * (stab + 1)

        def suite(args, result):
            count["verify.checks"] += sum(len(r.checks) for r in result)

        def ensemble(args, result):
            count["verify.systems"] += len(result)

        for module, target, span, after in (
                ("rankforge.cli", "main", "cli.main", None),
                ("rankforge.structures", "parse_structures_file",
                 "structures.parse", parsed),
                ("rankforge.actions", "FiniteLogicAction.__init__",
                 "actions.build", system),
                ("rankforge.actions", "FiniteDiscreteAction.__init__",
                 "actions.build", system),
                ("rankforge.actions", "SymbolicLogicAction.__init__",
                 "actions.build", system),
                ("rankforge.actions", "FiniteLogicAction.basis_of",
                 "actions.basis_of", basis_of),
                ("rankforge.actions", "SymbolicLogicAction.basis_of",
                 "actions.basis_of", basis_of),
                ("rankforge.hjorth", "LevelTable.__init__", "hjorth.table", table),
                ("rankforge.hjorth", "hjorth_rank", "hjorth.rank", rank),
                ("rankforge.hjorth", "minimal_m", "hjorth.rank", None),
                ("rankforge.hjorth", "partition_by_rank", "hjorth.rank", None),
                ("rankforge.hjorth", "rank_condition_profile", "hjorth.rank", None),
                ("rankforge.hjorth", "compare_ranks", "hjorth.rank", None),
                ("rankforge.scott", "ScottTable.__init__", "scott.table", scott),
                ("rankforge.verify", "leq_oracle_check", "oracle.check", oracle),
                ("rankforge.verify", "run_suite", "verify.suite", suite),
                ("rankforge.verify", "comparison_scan", "verify.suite", None),
                ("rankforge.verify", "ensemble", "verify.ensemble", ensemble)):
            self._patch(module, target, span, after)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- overhead ----------------------------------------------------------

    @staticmethod
    def call_cost(number: int = 50_000, repeat: int = 5) -> float:
        """Seconds one wrapped call adds, measured on a no-op that opens a
        span and runs an ``after`` hook (best of ``repeat`` batches)."""
        def noop(*args):
            return None

        def after(args, result):
            return None

        def batch(fn) -> float:
            start = _clock()
            for _ in range(number):
                fn(1)
            return _clock() - start

        plain = min(batch(noop) for _ in range(repeat))
        wrapped = min(batch(Tracer()._wrap(noop, "probe", after)) for _ in range(repeat))
        return max(0.0, (wrapped - plain) / number)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        covered = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, float] = {}
        for idx, name in enumerate(self.names):
            own = self.ends[idx] - self.starts[idx] - covered[idx]
            out[name] = out.get(name, 0.0) + own
        return out

    def metrics(self, call_cost: float) -> dict[str, float]:
        """Per-layer self times and counts under their metric names, and the
        wrappers' estimated cost at ``call_cost`` seconds per wrapped call."""
        own = self.self_times()
        out = {metric: own.get(span, 0.0) for metric, span in SELF_TIME_METRICS.items()}
        out.update((name, self.counts.get(name, 0)) for name in COUNT_METRICS)
        out["trace.spans"] = len(self.names)
        out["trace.overhead_s"] = sum(self.calls.values()) * call_cost
        return out
