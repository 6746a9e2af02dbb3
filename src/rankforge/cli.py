"""Command-line front end.

Subcommands: ``scott-rank`` (back-and-forth rank of structures in a file),
``hjorth`` (level tables, ranks and the rank partition of an action system),
``verify`` (lemma/property suites), ``compare`` (back-and-forth vs table
levels on the relabeling action).

Exit codes: 0 pass, 1 check failure, 2 usage/parse error, 3 budget (or out
of memory), 4 internal error.
Text output is human-oriented; ``--format records`` is the stable machine
contract (one record per line, fixed key order).  Identical invocations,
seed included, produce byte-identical records output.
"""

from __future__ import annotations

import argparse
import sys

from . import hjorth as hj
from . import scott as sc
from . import verify as vf
from .actions import (ALL_SUBSETS, SINGLETONS_PLUS_G, FiniteLogicAction,
                      SymbolicLogicAction, parse_action_file)
from .common import (Budgets, BudgetError, InvalidBaseRelationError,
                     RankforgeError)
from .structures import (FinStructure, Signature, StructureError,
                         SuppStructure, parse_structures_file)

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET, EXIT_INTERNAL = 0, 1, 2, 3, 4

# least value of each --sizes cap: a group holds its identity, and the
# ensemble draws spaces of at least two points
_SIZE_MIN = {"g": 1, "x": 2, "n": 1}


def config_record(**fields) -> str:
    """The CONFIG record that opens every report: the invocation's non-None
    fields in the order given, bools as 0/1.  The seed determines every
    generated instance, so these fields pin the run."""
    return "CONFIG " + " ".join(
        f"{key}={int(value) if isinstance(value, bool) else value}"
        for key, value in fields.items() if value is not None)


def _parse_sizes(text: str) -> dict[str, int]:
    sizes: dict[str, int] = {}
    if not text:
        return sizes
    for token in text.split(","):
        token = token.strip().replace("≤", "<=")
        key, sep, value = token.partition("<=")
        key = key.strip()
        if not sep or key not in _SIZE_MIN or not value.strip().isdigit():
            raise argparse.ArgumentTypeError(f"bad sizes token {token!r}")
        if int(value) < _SIZE_MIN[key]:
            raise argparse.ArgumentTypeError(
                f"{key} must be at least {_SIZE_MIN[key]}, got {int(value)}")
        sizes[key] = int(value)
    return sizes


def _sizes_str(sizes: dict[str, int]) -> str:
    return ",".join(f"{k}<={sizes[k]}" for k in _SIZE_MIN if k in sizes) or "-"


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _parse_rel(token: str) -> tuple[str, int]:
    name, sep, arity = token.partition(":")
    if not sep or not arity.isdigit() or int(arity) < 1 or not name:
        raise argparse.ArgumentTypeError(f"bad relation spec {token!r}")
    return name, int(arity)


class Output:
    """Report writer: each line is printed as it is produced, so a failure
    late in a run keeps everything reported before it."""

    def __init__(self, fmt: str):
        self.fmt = fmt

    def record(self, line: str):
        if self.fmt == "records":
            print(line)

    def text(self, line: str):
        if self.fmt == "text":
            print(line)

    def both(self, line: str):
        print(line)


def cmd_scott_rank(args, budgets: Budgets) -> int:
    out = Output(args.format)
    with open(args.file, encoding="utf-8") as handle:
        _, structures = parse_structures_file(handle.read())
    if not structures:
        raise RankforgeError("structure file holds no structures")
    if args.structure is not None:
        if args.structure not in structures:
            raise RankforgeError(f"no structure {args.structure} in {args.file}")
        structures = {args.structure: structures[args.structure]}
    out.record(config_record(command="scott-rank", input=args.file,
                             format=args.format))
    for ident, struct in structures.items():
        if not isinstance(struct, FinStructure):
            print(f"error: {ident} is not a finite structure", file=sys.stderr)
            return EXIT_USAGE
        rank = sc.scott_rank(struct)
        out.record(hj.rank_record(ident, rank, rank))
        out.text(f"{ident}: rank {rank} (levels stabilize at {rank})")
    return EXIT_PASS


def _build_system(args, budgets: Budgets):
    if args.logic or args.symbolic:
        if not args.structures:
            raise RankforgeError("--structures is required for logic systems")
        with open(args.structures, encoding="utf-8") as handle:
            sig, structures = parse_structures_file(handle.read())
        if not structures:
            raise RankforgeError("structure file holds no structures")
        if args.symbolic:
            support = args.support if args.support is not None else budgets.s
            k = args.k if args.k is not None else budgets.k
            points = list(structures.values())
            if not all(isinstance(m, SuppStructure) for m in points):
                raise RankforgeError("--symbolic needs supported structures")
            return (SymbolicLogicAction(sig, support, k, points, budgets),
                    list(structures))
        n = args.n if args.n is not None else budgets.n
        if n > budgets.n:
            raise BudgetError(f"n={n} exceeds budget n={budgets.n}")
        k = args.k if args.k is not None else min(n, budgets.k)
        if k > budgets.k:
            raise BudgetError(f"k={k} exceeds budget k={budgets.k}")
        points = list(structures.values())
        if not all(isinstance(m, FinStructure) and m.size == n for m in points):
            raise RankforgeError(f"--logic needs finite structures of size {n}")
        sysb = FiniteLogicAction(sig, n, k, points)
        by_struct = {m: ident for ident, m in structures.items()}
        ids = [by_struct.get(m, sysb.points[i])
               for i, m in enumerate(sysb.structures)]
        return sysb, ids
    if not args.file:
        raise RankforgeError("an action file (or --logic/--symbolic) is required")
    with open(args.file, encoding="utf-8") as handle:
        sysb = parse_action_file(handle.read(), budgets)
    if args.basis:
        sysb = sysb.with_basis(args.basis)
    return sysb, None


def cmd_hjorth(args, budgets: Budgets) -> int:
    out = Output(args.format)
    sysb, ids = _build_system(args, budgets)
    point_ids = ids or list(sysb.points)
    if args.point is not None and args.point not in point_ids:
        print(f"error: unknown point {args.point}", file=sys.stderr)
        return EXIT_USAGE
    out.record(config_record(command="hjorth", input=args.file or args.structures,
                             logic=args.logic, symbolic=args.symbolic,
                             n=args.n, k=args.k, support=args.support,
                             basis=args.basis or "-",
                             max_level=args.max_level if args.max_level else "-",
                             dump=args.dump, oracle=args.oracle,
                             format=args.format))
    out.text(sysb.describe())
    try:
        table = hj.leq_table(sysb, max_level=args.max_level, budgets=budgets)
    except InvalidBaseRelationError as exc:
        out.both(hj.check_record("level_monotonicity", False,
                                 hj.quad_witness(sysb, *exc.witness)))
        return EXIT_FAIL

    if args.dump:
        for level in range(1, table.max_level() + 1):
            arr = table.level(level)
            for x0 in range(table.npoints):
                for v0 in range(table.nbasis):
                    for x1 in range(table.npoints):
                        for v1 in range(table.nbasis):
                            out.record(hj.leq_record(
                                level, sysb.points[x0], sysb.basis[v0],
                                sysb.points[x1], sysb.basis[v1],
                                bool(arr[x0, v0, x1, v1])))

    if not table.stabilized:
        out.both(hj.check_record("stabilization", False,
                                 f"truncated@{table.max_level()}"))
        return EXIT_FAIL

    failures = 0
    if args.oracle:
        mismatch, _ = vf.oracle_mismatch(sysb, table)
        out.both(hj.check_record("leq_oracle_equivalence", mismatch is None,
                                 mismatch))
        failures += mismatch is not None

    wanted = (range(len(sysb.points)) if args.point is None
              else [point_ids.index(args.point)])
    no_m = None
    for x in wanted:
        rank = hj.hjorth_rank(table, x)
        m = "NA"
        if sysb.has_action:
            try:
                m = hj.minimal_m(table, x)
            except RankforgeError:  # the family is not a basis
                no_m = no_m or point_ids[x]
        out.record(hj.rank_record(point_ids[x], rank, table.stab, m))
        out.text(f"point {point_ids[x]}: rank {rank}, stab {table.stab}, m {m}")
    if no_m is not None:
        out.both(hj.check_record("minimal_m_finite", False, no_m))
        failures += 1
    for value, block in hj.partition_by_rank(table):
        names = ";".join(point_ids[x] for x in sorted(block))
        out.record(f"PART rank={value} points={names}")
        out.text(f"rank {value}: {names}")
    return EXIT_FAIL if failures else EXIT_PASS


def cmd_verify(args, budgets: Budgets) -> int:
    out = Output(args.format)
    sizes = dict(args.sizes or {})
    for key, cap in sizes.items():
        budget = getattr(budgets, key)
        if cap > budget:
            raise BudgetError(f"--sizes {key}<={cap} exceeds budget {key}={budget}")
    sizes.setdefault("g", min(8, budgets.g))
    sizes.setdefault("x", min(6, budgets.x))
    sizes.setdefault("n", min(3, budgets.n))
    out.record(config_record(command="verify", suite=args.suite, seed=args.seed,
                             sizes=_sizes_str(sizes), count=args.count,
                             format=args.format))
    out.text(f"suite {args.suite}, seed {args.seed}, sizes {_sizes_str(sizes)}, "
             f"{args.count} systems")
    reports = vf.run_suite(args.suite, args.seed, sizes, count=args.count)
    failed = 0
    for report in reports:
        for check in report.checks:
            out.both(check.record())
            if check.stats and args.format == "text":
                out.text("  " + " ".join(f"{k}={v}" for k, v in
                                         sorted(check.stats.items())))
            failed += not check.passed
    out.text(f"{'PASS' if not failed else 'FAIL'} "
             f"({sum(len(r.checks) for r in reports)} checks, {failed} failed)")
    return EXIT_FAIL if failed else EXIT_PASS


def cmd_compare(args, budgets: Budgets) -> int:
    out = Output(args.format)
    if args.n > min(3, budgets.n):
        raise BudgetError(f"comparison scan n={args.n} exceeds budget "
                          f"n={min(3, budgets.n)}")
    if args.empty_signature:
        signature = Signature(())
    else:
        signature = Signature(tuple(args.rel or [("edge", 2)]))
    rels = ",".join(f"{name}:{arity}" for name, arity in signature.relations) or "-"
    out.record(config_record(command="compare", seed=args.seed, n=args.n,
                             max_tuple=args.max_tuple, rels=rels,
                             format=args.format))
    counterexamples, profile, scanned = vf.comparison_scan(
        max_n=args.n, max_tuple=args.max_tuple, seed=args.seed,
        signature=signature)
    out.both(hj.check_record("scott_implies_hjorth", not counterexamples,
                             vf.comparison_witness(counterexamples)))
    out.text(f"scanned {scanned} instances, {len(counterexamples)} counterexamples")
    for (s_level, h_level) in sorted(profile):
        out.record(f"PROFILE {s_level} {h_level} count={profile[(s_level, h_level)]}")
        out.text(f"  {s_level:<12} {h_level:<12} {profile[(s_level, h_level)]}")
    return EXIT_FAIL if counterexamples else EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankforge",
        description="Level tables, ranks and back-and-forth analysis of "
                    "finite group-action systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scott-rank", help="rank the structures in a file")
    p.add_argument("file")
    p.add_argument("--structure", help="only this structure id")
    p.add_argument("--format", choices=("text", "records"), default="text")

    p = sub.add_parser("hjorth", help="level tables and ranks of an action system")
    p.add_argument("file", nargs="?", help="action file")
    p.add_argument("--logic", action="store_true",
                   help="relabeling action on the structures file")
    p.add_argument("--symbolic", action="store_true",
                   help="windowed full-group action")
    p.add_argument("--structures", help="structure file for logic systems")
    p.add_argument("--n", type=_int_at_least(1), help="universe size (logic)")
    p.add_argument("--support", type=_int_at_least(0),
                   help="support window (symbolic)")
    p.add_argument("--k", type=_int_at_least(0),
                   help="tuple-length cap for coset bases")
    p.add_argument("--point", help="report this point only")
    p.add_argument("--basis", choices=(ALL_SUBSETS, SINGLETONS_PLUS_G),
                   help="override the basis spec")
    p.add_argument("--max-level", type=_int_at_least(1), dest="max_level")
    p.add_argument("--dump", action="store_true", help="emit LEQ records")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check every table entry against the naive oracle")
    p.add_argument("--format", choices=("text", "records"), default="text")

    p = sub.add_parser("verify", help="run a lemma/property suite")
    p.add_argument("suite", choices=vf.SUITES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", type=_parse_sizes, default=None,
                   help="caps like g<=8,x<=6,n<=3")
    p.add_argument("--count", type=_int_at_least(1), default=200,
                   help="ensemble size")
    p.add_argument("--format", choices=("text", "records"), default="text")

    p = sub.add_parser("compare", help="back-and-forth vs table levels scan")
    p.add_argument("--n", type=_int_at_least(1), default=2)
    p.add_argument("--max-tuple", type=_int_at_least(0), default=2, dest="max_tuple")
    p.add_argument("--rel", type=_parse_rel, action="append",
                   help="relation as name:arity (repeatable; default edge:2)")
    p.add_argument("--empty-signature", action="store_true",
                   help="scan the pure-equality signature")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "records"), default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budgets = Budgets.from_env()
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {"scott-rank": cmd_scott_rank, "hjorth": cmd_hjorth,
                "verify": cmd_verify, "compare": cmd_compare}
    try:
        return handlers[args.command](args, budgets)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (StructureError, RankforgeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(_error_line("out of memory", exc), file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:
        # exit 1 means only that a check failed, so a fault in rankforge
        # itself gets its own code
        print(_error_line(f"internal error: {type(exc).__name__}", exc),
              file=sys.stderr)
        return EXIT_INTERNAL


def _error_line(what: str, exc: BaseException) -> str:
    detail = " ".join(str(exc).split())
    return f"error: {what}: {detail}" if detail else f"error: {what}"


if __name__ == "__main__":
    sys.exit(main())
