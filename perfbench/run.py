"""Benchmark of the rankforge command line: four batch workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass runs one ``rankforge``
command in a fresh interpreter (``perfbench/child.py``), so caches start cold
as they do for a user; one pass process runs at a time.  The inputs are made
from the seed by ``perfbench/inputs.py``.  Every pass is checked
(``perfbench/check.py``); a pass that fails counts toward the error rate.

With ``--trace 0`` the run reports the end-to-end metrics: ``run_s`` and
``cpu_s`` (wall and CPU time of ``cli.main``), ``setup_s`` (CPU time of
``import rankforge.cli`` in the pass process) and ``peak_rss_mb``, each the
median over the run's passes.  With ``--trace 1`` it alternates untraced and
traced passes and reports per-layer self times and counts; the traced passes
must also do the workload's pinned amount of work.  The full trace goes to
``.perfbench/trace-<workload>-<seed>.json``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import check
import inputs
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

with open(os.path.join(HERE, "meta.json"), encoding="utf-8") as _handle:
    META = json.load(_handle)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
DEFAULT_SEED = META["expected"]["default_seed"]

# The lemma ensemble's oracle cost spreads over 30x across seeds, so the
# verify-oracle workload keeps one ensemble: 20 systems, 83 points,
# 511,753 quadruples.
VERIFY_SEED = 7
LEMMA_CHECKS = ("leq_oracle_equivalence", "leq_transitivity", "level_monotonicity",
                "set_monotonicity", "translation_invariance", "equiv_invariance",
                "stabilized_equiv_invariant_sets")

RUN_LIMIT_S = 170  # every run ends well inside 180 s


def prepare(workload: str, seed: int, workdir: str) -> tuple[list[str], dict]:
    """The rankforge argv of one workload and what its output must satisfy."""
    expected = META["expected"]["workloads"][workload]
    expect: dict = {"work": expected.get("work", {})}
    if seed == DEFAULT_SEED and "records_sha256" in expected:
        expect["records_sha256"] = expected["records_sha256"]
    if workload in ("relabel-hjorth", "scott-rank"):
        make = (inputs.relabel_hjorth_input if workload == "relabel-hjorth"
                else inputs.scott_rank_input)
        text, class_of = make(seed)
        path = os.path.join(workdir, "structures.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        expect.update(class_of=class_of,
                      class_ranks_sha256=expected["class_ranks_sha256"])
        if workload == "relabel-hjorth":
            expect.update(rank_count=inputs.RELABEL_POINTS, part_covers_ranks=True)
            return (["hjorth", "--logic", "--structures", path, "--n", "3",
                     "--k", "3", "--format", "records"], expect)
        expect["rank_count"] = len(class_of)
        return ["scott-rank", path, "--format", "records"], expect
    if workload == "compare-scan":
        expect.update(checks=("scott_implies_hjorth",), profile=True)
        return (["compare", "--n", "3", "--rel", "edge:2", "--seed", str(seed),
                 "--format", "records"], expect)
    expect["checks"] = LEMMA_CHECKS
    return (["verify", "lemmas", "--seed", str(VERIFY_SEED), "--count", "20",
             "--format", "records"], expect)


class Runner:
    """Starts pass processes one at a time and keeps what they report."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.count = 0

    def child(self, *args: str) -> tuple[dict | None, str, float]:
        """Run child.py once: (result or None, records, wall seconds)."""
        self.count += 1
        out = os.path.join(self.workdir, f"pass{self.count}")
        os.mkdir(out)
        start = time.perf_counter()
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                                   "--out", out, *args], cwd=ROOT, env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "", time.perf_counter() - start
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace")[-2000:])
            return None, "", wall
        with open(os.path.join(out, "result.json"), encoding="utf-8") as handle:
            result = json.load(handle)
        records = ""
        if os.path.exists(os.path.join(out, "records.txt")):
            with open(os.path.join(out, "records.txt"), encoding="utf-8") as handle:
                records = handle.read()
        return result, records, wall


def layer_metrics(traced: list[dict]) -> dict:
    """Every per-layer metric, as the median over the traced passes that
    report it (``hjorth.t1_s`` is timed on the first traced pass only)."""
    metrics = {}
    for spec in BENCH["per_layer"]:
        values = [t["layers"][spec["name"]] for t in traced
                  if spec["name"] in t["layers"]]
        if values:
            metrics[spec["name"]] = (statistics.median(values), spec["unit"])
    return metrics


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=WORK) as workdir:
        return _run(workload, seed, seconds, trace, workdir)


def _run(workload: str, seed: int, seconds: int, trace: bool, workdir: str):
    start = time.monotonic()
    runner = Runner(workdir, start + RUN_LIMIT_S)
    argv, expect = prepare(workload, seed, workdir)

    # compiles bytecode and warms the file cache; not counted
    warm, _, _ = runner.child("--setup-only")
    host = warm["host"] if warm is not None else None
    attempted, failed = 0, 0
    passes: dict[bool, list[dict]] = {False: [], True: []}
    walls: dict[bool, list[float]] = {False: [], True: []}
    kinds = [False, True] if trace else [False]
    while True:
        traced = kinds[attempted % len(kinds)]
        flags = (["--trace"] + ([] if walls[True] else ["--t1"])) if traced else []
        attempted += 1
        result, records, wall = runner.child(*flags, "--", *argv)
        walls[traced].append(wall)
        problems = (["pass process died"] if result is None else
                    check.check_pass(records, result["exit"], result["error"], expect))
        if traced and result is not None and "layers" in result:
            problems += check.check_work(result["layers"], expect["work"])
        if problems:
            failed += 1
            print(f"pass {attempted} failed: " + "; ".join(problems), file=sys.stderr)
            if result is not None and result["stderr"]:
                sys.stderr.write(result["stderr"])
        else:
            passes[traced].append(result)
            print(f"pass {attempted}{' traced' if traced else ''}: "
                  f"run_s {result['run_s']:.4f} cpu_s {result['cpu_s']:.4f} "
                  f"setup_s {result['setup_s']:.4f} process {wall:.4f} s")
        nxt = kinds[attempted % len(kinds)]
        expected_wall = statistics.median(walls[nxt] or walls[traced])
        if attempted >= len(kinds) and \
                time.monotonic() - start + expected_wall > seconds:
            break

    good = passes[False]
    print(f"workload {workload}, seed {seed}, {attempted} passes, {failed} failed, "
          f"error_rate {failed / attempted:.3f}")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": {}}
    if not good or (trace and not passes[True]):
        return summary
    if trace:
        metrics = layer_metrics(passes[True])
        untraced = [p["run_s"] for p in good]
        traced_run = [p["run_s"] for p in passes[True]]
        self_total = statistics.median(
            sum(p["layers"][name] for name in tracer.SELF_TIME_METRICS)
            for p in passes[True])
        overhead = metrics["trace.overhead_s"][0]
        report = {"workload": workload, "seed": seed, "host": host,
                  "untraced_run_s": untraced, "traced_run_s": traced_run,
                  "self_s_total": self_total,
                  "measured_overhead_s": (statistics.median(traced_run)
                                          - statistics.median(untraced)),
                  "missing_targets": passes[True][0]["missing"],
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        path = os.path.join(WORK, f"trace-{workload}-{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        print(f"layer self times sum to {self_total:.4f} s; less the estimated "
              f"tracing overhead {overhead:.4f} s that is {self_total - overhead:.4f} s, "
              f"against untraced run_s {statistics.median(untraced):.4f} s "
              f"({len(traced_run)} traced, {len(untraced)} untraced passes)")
        print(f"trace written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {
            "run_s": (statistics.median(p["run_s"] for p in good), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in good), "s"),
            "setup_s": (statistics.median(p["setup_s"] for p in good), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in good), "MB"),
        }
        print(f"samples: {len(good)} passes")
    for name, (value, unit) in metrics.items():
        print(f"{name:24} {value:14.6f} {unit}")
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not os.path.exists(os.path.join(SRC, "rankforge", "cli.py")):
        print(f"error: no rankforge sources under {SRC}", file=sys.stderr)
        return 2
    summary = run(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
