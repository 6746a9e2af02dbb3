"""Print the OpenBLAS thread count of this process after some imports.

    python3 tests/blas_threads.py [module ...]

Imports each module in order, then prints the thread count the way
``perfbench/child.py --setup-only`` reports ``host.blas_threads``: from the
thread-count getter of the OpenBLAS library mapped into the process, or
``None`` when there is none (numpy not built on OpenBLAS, or not loaded).
It reads only the mapped libraries and does not ask numpy for its build
configuration, so it runs on every numpy the package supports.
"""

import ctypes
import importlib
import sys

GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
           "openblas_get_num_threads")


def openblas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


if __name__ == "__main__":
    for name in sys.argv[1:]:
        importlib.import_module(name)
    print(openblas_threads())
