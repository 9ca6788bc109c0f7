"""Run one isingchaos CLI operation in this (fresh) interpreter.

    python3 perfbench/op.py RESULT_JSON [--trace] [--probe-env] -- CLI_ARGS...

Run from the root of a checkout: the package is imported from ``src/``.
The process exit code is the CLI's.  RESULT_JSON receives, once, at exit:

- ``import_s``: seconds to import ``isingchaos.cli`` (numpy and scipy included);
- ``spacing``: size, sum and sum of squares of every spectrum handed to
  ``empirics.spacing_ratio`` (the output check of the ``spacing`` command);
- with ``--trace``: one span per call of each function in ``TARGETS``
  (name, start, end, parent span, operation id), per-function counters, and
  the targets this version of the program no longer has;
- with ``--probe-env``: numpy, scipy and BLAS versions and the BLAS thread
  count as this interpreter sees them.

Tracing wraps the public functions from outside, at every ``isingchaos.*``
namespace that binds them (``cli.momentum_basis`` as well as
``spin_basis.momentum_basis``), so the program's source stays untouched.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

TARGETS = {
    "spin_basis": ("momentum_basis", "orbit_tables"),
    "hamiltonian": ("build_sector_hamiltonian",),
    "eigensolve": ("diagonalize", "cache_store", "cache_load"),
    "moments": ("analytic_moments",),
    "statmodel": (
        "build_strength_model",
        "fit_gibbs",
        "prediction_curve",
        "write_prediction_csv",
    ),
    "empirics": (
        "empirical_participation_ratio",
        "windows_fixed_count",
        "compare",
        "windowed_coefficient_stats",
        "inversion_matrix",
        "split_by_parity",
        "spacing_ratio",
    ),
    "cli": ("main",),
}

MIB = float(1 << 20)
# nominal dense Hermitian eigendecomposition cost, 9 n^3 real flops (Golub &
# Van Loan, tridiagonal QR with vectors); a complex flop is 4 real ones
EIGH_FLOPS_PER_N3 = 9.0
COMPLEX_FLOP_FACTOR = 4.0


def _proc_io(field: str) -> int:
    """Bytes this process moved through read()/write() syscalls so far."""
    with open("/proc/self/io") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key == field:
                return int(value)
    return 0


def _entries(args, kwargs):
    matrix = args[0] if args else kwargs.get("matrix")
    return getattr(matrix, "entries", matrix)


class Hooks:
    """Counters taken around a call, outside its timed span."""

    def __init__(self, counters, spacing):
        self.c = counters
        self.spacing = spacing

    def before(self, name, args, kwargs):
        if name == "eigensolve.diagonalize":
            import numpy as np

            h = np.asarray(_entries(args, kwargs))
            real = not np.iscomplexobj(h) or not np.any(h.imag)
            dim = h.shape[0]
            flops = EIGH_FLOPS_PER_N3 * dim**3 * (1.0 if real else COMPLEX_FLOP_FACTOR)
            self.c[name + ".real_calls" if real else name + ".complex_calls"] += 1
            self.c[name + ".sum_dim"] += dim
            self.c[name + ".nominal_gflop"] += flops / 1e9
            tracemalloc.start()
            return None
        if name == "eigensolve.cache_store":
            return _proc_io("wchar")
        if name == "eigensolve.cache_load":
            return _proc_io("rchar")
        return None

    def after(self, name, args, kwargs, result, raised, state):
        c = self.c
        if name == "eigensolve.diagonalize":
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            c[name + ".peak_alloc_mb"] = max(c[name + ".peak_alloc_mb"], peak / MIB)
        elif raised:
            if name == "statmodel.fit_gibbs":
                c[name + ".fallbacks"] += 1
        elif name == "spin_basis.momentum_basis":
            c["spin_basis.states"] += result.dim
        elif name == "hamiltonian.build_sector_hamiltonian":
            c["hamiltonian.sector_mb"] += result.entries.nbytes / MIB
        elif name == "eigensolve.cache_store":
            c[name + ".mb"] += (_proc_io("wchar") - state) / MIB
        elif name == "eigensolve.cache_load":
            c[name + ".mb"] += (_proc_io("rchar") - state) / MIB
            c[name + (".misses" if result is None else ".hits")] += 1
        elif name == "empirics.spacing_ratio":
            self.record_spacing(args, kwargs)

    def record_spacing(self, args, kwargs):
        import numpy as np

        e = np.asarray(args[0] if args else kwargs["energies"], dtype=float)
        self.spacing.append(
            {"size": int(e.size), "sum": float(e.sum()), "sum_sq": float(e @ e)}
        )


class Tracer:
    """In-memory spans of one operation; parents come from the call stack."""

    def __init__(self, op_id, hooks):
        self.op_id = op_id
        self.hooks = hooks
        self.spans = []  # [name, start, end, parent, op_id]
        self.stack = []
        self.hook_errors = 0

    def _hook(self, method, *args):
        # a hook written for another version of a function's signature must
        # not take the operation down; it is counted instead
        try:
            return getattr(self.hooks, method)(*args)
        except Exception:
            self.hook_errors += 1
            if method == "after" and tracemalloc.is_tracing():
                tracemalloc.stop()
            return None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            state = self._hook("before", name, args, kwargs)
            parent = self.stack[-1] if self.stack else -1
            span = [name, 0.0, 0.0, parent, self.op_id]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            raised = True
            result = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                self._hook("after", name, args, kwargs, result, raised, state)

        traced.__wrapped__ = fn
        return traced


def install(tracer, targets):
    """Replace each target at every loaded isingchaos namespace binding it.

    Returns the targets this version of the program does not define.
    """
    modules = [
        m for n, m in list(sys.modules.items()) if n == "isingchaos" or n.startswith("isingchaos.")
    ]
    absent = []
    for modname, funcs in targets.items():
        home = sys.modules.get(f"isingchaos.{modname}")
        for fn in funcs:
            name = f"{modname}.{fn}"
            original = getattr(home, fn, None)
            if original is None:
                absent.append(name)
                continue
            wrapped = tracer.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    return absent


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def library_record() -> dict:
    import numpy as np
    import scipy

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1 :]
    result_path = opts[0]
    trace = "--trace" in opts[1:]

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import isingchaos.cli  # noqa: F401  (loads every module the CLI uses)

    import_s = time.perf_counter() - t0

    counters = defaultdict(float)
    spacing = []
    hooks = Hooks(counters, spacing)
    op_id = int(os.environ.get("PERFBENCH_OP_ID", "0"))
    tracer = Tracer(op_id, hooks)
    if trace:
        absent = install(tracer, TARGETS)
    else:
        # untraced runs only capture what the output check needs
        absent = install(tracer, {"empirics": ("spacing_ratio",)})
    cli_main = sys.modules["isingchaos.cli"].main

    code = 1
    try:
        code = cli_main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        record = {
            "import_s": import_s,
            "exit_code": code,
            "spacing": spacing,
            "absent": absent,
            "hook_errors": tracer.hook_errors,
        }
        if "--probe-env" in opts[1:]:
            record["env"] = library_record()
        if trace:
            record["spans"] = tracer.spans
            record["counters"] = dict(counters)
        with open(result_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
