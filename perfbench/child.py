"""One benchmark pass, run in a fresh interpreter.

    python3 perfbench/child.py --out DIR [--trace [--t1]] -- <rankforge argv...>
    python3 perfbench/child.py --out DIR --setup-only

Imports ``rankforge.cli`` (timed as set-up), calls ``cli.main(argv)`` with
stdout captured, and writes ``records.txt`` (the captured stdout) and
``result.json`` (times, exit code, error) into DIR.  With ``--trace`` the
layer entry points are wrapped first, and the per-layer self times and
counts go into ``result.json``; the records stream is left as it is.  With
``--t1`` as well, one extra T_1 of the largest system the pass built is timed
after the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def host_facts() -> dict:
    """nproc, versions, and the OpenBLAS thread count of this process."""
    import ctypes

    import numpy

    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": numpy.__version__, "openblas": None, "blas_threads": None}
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "openblas" in blas.get("name", ""):
        facts["openblas"] = blas.get("version")
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                facts["blas_threads"] = getter()
                break
    return facts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--t1", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    # set-up is the importing thread's CPU time: the wall time of this import
    # also holds the wait for a core while OpenBLAS starts its threads
    start, wall = time.thread_time(), time.perf_counter()
    import rankforge.cli as cli
    result = {"setup_s": time.thread_time() - start,
              "setup_wall_s": time.perf_counter() - wall}
    if opts.setup_only:
        result["host"] = host_facts()
        with open(os.path.join(opts.out, "result.json"), "w") as handle:
            json.dump(result, handle)
        return 0

    tracer = None
    if opts.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    stdout, stderr = io.StringIO(), io.StringIO()
    code, error = None, None
    cpu0, wall0 = _cpu(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        error = traceback.format_exc()
    wall1, cpu1 = time.perf_counter(), _cpu()
    result.update(run_s=wall1 - wall0, cpu_s=cpu1 - cpu0, exit=code, error=error,
                  stderr=stderr.getvalue()[-2000:],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    records = stdout.getvalue()

    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics(call_cost=tracer.call_cost())
        layers.update({"cli.records": records.count("\n"),
                       "cli.output_bytes": len(records.encode("utf-8"))})
        if opts.t1:
            layers["hjorth.t1_s"] = 0.0
            if tracer.largest_system is not None:
                from rankforge import hjorth
                t0 = time.perf_counter()
                hjorth.leq_table(tracer.largest_system, max_level=1)
                layers["hjorth.t1_s"] = time.perf_counter() - t0
        result.update(layers=layers, missing=tracer.missing)

    with open(os.path.join(opts.out, "records.txt"), "w", encoding="utf-8") as handle:
        handle.write(records)
    with open(os.path.join(opts.out, "result.json"), "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
