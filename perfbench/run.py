"""End-to-end benchmark of the isingchaos CLI, with an optional traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a fixed list of CLI
operations (one pass); every operation runs in a fresh interpreter
(``perfbench/op.py``), one at a time, so the orbit-table cache and the peak
RSS start clean for each.  Passes repeat until ``--seconds`` have elapsed
(at least one).  After each pass, outside the timed region, the outputs are
checked (``perfbench/checks.py``).

``--trace 0`` reports the end-to-end metrics: the median pass wall time, the
median over passes of the largest peak RSS of any operation in the pass
(from that child's rusage), and the set-up time.  ``--trace 1`` alternates
an untraced pass with a traced one and reports the per-layer metrics of
``BENCHMARK.json``: calls and self time of each wrapped function, counters,
each layer's share of the traced wall time, and the tracing overhead.

The seed picks the field point (lambda, alpha); the program receives only
the generated CLI arguments.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line before
it is the run record (machine, library versions, source identity, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from op import MIB, TARGETS  # noqa: E402

# Seed 0 is the README point; the others were drawn once from the box
# [0.9, 1.1]^2 (numpy default_rng(2015), rounded to 3 decimals).  Each was
# checked chaotic (mean spacing ratio 0.52-0.54 at N=14, k=1, against GOE
# 0.531 and Poisson 0.386) and Gibbs-feasible at N=14 and N=20 (every n fits
# without fallback).  References in refs.json cover exactly these points.
POINTS = (
    (1.0, 1.0),
    (1.001, 0.944),
    (1.054, 1.093),
    (0.933, 0.926),
    (1.028, 1.073),
    (0.958, 1.09),
    (1.059, 1.075),
    (0.903, 0.98),
)

SETUP_REPEATS = 3
OP_TIMEOUT_S = 170.0


def point_for_seed(seed: int) -> tuple[float, float]:
    if seed == 0:
        return POINTS[0]
    return POINTS[1 + (seed - 1) % (len(POINTS) - 1)]


def _diag(n, momentum="all"):
    return ["diag", "--spins", str(n), "--momentum", momentum, "--cache-dir", "{cache}"]


# Each op: (CLI args template, check kind).  "{cache}" and "{out}" are the
# workload's directories; "--lambda/--alpha" are appended from the seed.
WORKLOADS = {
    "diag_n14_cold": {
        "why": "Twelve complex and two real N=14 solves into an empty cache: "
        "loads the complex eigensolve and the cache write path.",
        "fill": None,
        "fresh_cache_per_pass": True,
        "layers": ("eigensolve",),
        "ops": [(_diag(14), "diag")],
    },
    "compare_n14_warm": {
        "why": "compare (Gibbs) and coeff-hist over N=14 against a filled cache: "
        "cache reads, Gibbs fits, empirics and CSV output, no eigensolve.",
        "fill": _diag(14),
        "fresh_cache_per_pass": False,
        "layers": ("eigensolve", "statmodel"),
        "ops": [
            (
                ["compare", "--spins", "14", "--momentum", "all", "--corrections", "gibbs",
                 "--cache-dir", "{cache}", "--out", "{out}/compare"],
                "compare",
            ),
            (
                ["coeff-hist", "--spins", "14", "--momentum", "all",
                 "--cache-dir", "{cache}", "--out", "{out}/coeff_hist"],
                "coeff-hist",
            ),
        ],
    },
    "predict_n20": {
        "why": "Gibbs predictions for all 20 sectors of N=20 with no "
        "diagonalization: basis construction and the strength model.",
        "fill": None,
        "fresh_cache_per_pass": False,
        "layers": ("spin_basis",),
        "ops": [
            (
                ["predict", "--spins", "20", "--momentum", "all", "--corrections", "gibbs",
                 "--out", "{out}/predict"],
                "predict",
            )
        ],
    },
    "spacing_n16_k0": {
        "why": "One real N=16 k=0 solve (dim 4116) split by inversion parity: "
        "the real eigensolve, the parity operators and memory pressure.",
        "fill": None,
        "fresh_cache_per_pass": False,
        "layers": ("eigensolve",),
        "ops": [(["spacing", "--spins", "16", "--momentum", "0"], "spacing")],
    },
}


class Runner:
    """Runs ops in fresh interpreters inside one work directory."""

    def __init__(self, root: Path, work: Path, lam: float, alpha: float):
        self.root = root
        self.work = work
        self.cache = work / "cache"
        self.out = work / "out"
        self.lam = lam
        self.alpha = alpha
        self.count = 0
        threads = str(len(os.sched_getaffinity(0)))
        env = dict(os.environ)
        env.pop("ISINGCHAOS_CACHE_DIR", None)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        self.env = env

    def cli_args(self, template) -> list[str]:
        args = [a.format(cache=self.cache, out=self.out) for a in template]
        if template[0] != "--help":
            args += ["--lambda", repr(self.lam), "--alpha", repr(self.alpha)]
        return args

    def run(self, template, trace=False, op_id=0, extra=()) -> dict:
        """Run one op; returns exit code, wall seconds, peak RSS and its result."""
        self.count += 1
        stem = self.work / "ops" / f"{self.count:04d}"
        result_path = stem.with_suffix(".json")
        cmd = [sys.executable, str(HERE / "op.py"), str(result_path), *extra]
        if trace:
            cmd.append("--trace")
        cmd += ["--", *self.cli_args(template)]
        env = dict(self.env, PERFBENCH_OP_ID=str(op_id))
        with open(stem.with_suffix(".out"), "w") as out, open(stem.with_suffix(".err"), "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=env, stdout=out, stderr=err)
            killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted (SIGTERM, Ctrl-C): leave no operation running
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {}
        if result_path.exists():
            result = json.loads(result_path.read_text())
        return {
            "code": proc.returncode,
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss * 1024 / MIB,
            "result": result,
            "stderr": stem.with_suffix(".err"),
        }


def _tail(path: Path, lines: int = 3) -> str:
    return " | ".join(path.read_text().strip().splitlines()[-lines:])


def _flag(args: list[str], flag: str) -> str:
    return args[args.index(flag) + 1]


def check_op(kind: str, args: list[str], op: dict, runner: Runner, refs: dict, key: str) -> list[str]:
    """Problems with one op's exit code and outputs; empty when it passed."""
    if op["code"] != 0:
        return [f"exit code {op['code']}: {_tail(op['stderr'])}"]
    n = int(_flag(args, "--spins"))
    if kind == "diag":
        return checks.check_diag(runner.cache, n, runner.lam, runner.alpha)
    if kind == "spacing":
        k = int(_flag(args, "--momentum"))
        return checks.check_spacing(op["result"].get("spacing", []), n, k, runner.lam, runner.alpha)
    ref = refs.get(key, {}).get(kind)
    if ref is None:
        return [f"no recorded reference for {kind} at {key}"]
    return checks.check_against_reference(kind, _flag(args, "--out"), ref)


def run_pass(spec, runner: Runner, trace: bool, refs: dict, key: str, log: list) -> dict:
    """One timed pass over the workload's ops, then its output checks."""
    if spec["fresh_cache_per_pass"]:
        shutil.rmtree(runner.cache, ignore_errors=True)
    shutil.rmtree(runner.out, ignore_errors=True)
    ops = []
    t0 = time.perf_counter()
    for i, (template, _) in enumerate(spec["ops"]):
        ops.append(runner.run(template, trace=trace, op_id=i))
    wall = time.perf_counter() - t0
    failed = 0
    for (template, kind), op in zip(spec["ops"], ops):
        problems = check_op(kind, runner.cli_args(template), op, runner, refs, key)
        if problems:
            failed += 1
            log.append(f"{template[0]} failed its check: " + "; ".join(problems))
    return {
        "wall_s": wall,
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
        "ops": ops,
        "failed": failed,
    }


def layer_metrics(traced: dict, untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer calls, self time, counters and shares from one traced pass."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counters = defaultdict(float)
    absent = set()
    import_s = 0.0
    for op in traced["ops"]:
        res = op["result"]
        import_s += res.get("import_s", 0.0)
        absent.update(res.get("absent", []))
        for name, value in res.get("counters", {}).items():
            counters[name] += value
        spans = res.get("spans", [])
        child_s = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child_s[i]
    wall = traced["wall_s"]
    m = {}
    for module, funcs in TARGETS.items():
        for fn in funcs:
            name = f"{module}.{fn}"
            m[name + ".calls"] = calls[name]
            m[name + ".self_s"] = self_s[name]
    for name in (
        "spin_basis.states",
        "hamiltonian.sector_mb",
        "eigensolve.diagonalize.real_calls",
        "eigensolve.diagonalize.complex_calls",
        "eigensolve.diagonalize.sum_dim",
        "eigensolve.diagonalize.nominal_gflop",
        "eigensolve.diagonalize.peak_alloc_mb",
        "eigensolve.cache_store.mb",
        "eigensolve.cache_load.mb",
        "eigensolve.cache_load.hits",
        "eigensolve.cache_load.misses",
        "statmodel.fit_gibbs.fallbacks",
    ):
        m[name] = counters[name]
    loads = m["eigensolve.cache_load.hits"] + m["eigensolve.cache_load.misses"]
    m["eigensolve.cache_load.hit_ratio"] = m["eigensolve.cache_load.hits"] / loads if loads else 0.0
    fits = m["statmodel.fit_gibbs.calls"]
    m["statmodel.fit_gibbs.ok_ratio"] = (
        (fits - m["statmodel.fit_gibbs.fallbacks"]) / fits if fits else 0.0
    )
    m["cli.import_s"] = import_s
    shares = {module: 0.0 for module in TARGETS}
    for name, value in self_s.items():
        shares[name.split(".")[0]] += value / wall
    for module, share in shares.items():
        m[f"share.{module}"] = share
    m["share.other"] = 1.0 - sum(shares.values())
    m["trace.wall_s"] = wall
    m["trace.overhead_frac"] = wall / untraced_wall - 1.0
    m["trace.absent_targets"] = len(absent)
    m["trace.hook_errors"] = sum(op["result"].get("hook_errors", 0) for op in traced["ops"])
    return m, sorted(absent)


def source_identity(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _proc_field(path: str, key: str):
    with open(path) as fh:
        for line in fh:
            name, _, value = line.partition(":")
            if name.strip() == key:
                return value.strip()
    return None


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "isingchaos" / "cli.py").is_file():
        print("perfbench: no src/isingchaos/cli.py here; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = WORKLOADS[args.workload]
    lam, alpha = point_for_seed(args.seed)
    key = f"{lam!r},{alpha!r}"
    refs = json.loads((HERE / "refs.json").read_text())["points"]
    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "ops").mkdir(parents=True)
    runner = Runner(root, work, lam, alpha)
    log: list[str] = []
    try:
        return _run(args, spec, runner, refs, key, log)
    finally:
        for sub in ("cache", "out", "ops"):
            shutil.rmtree(work / sub, ignore_errors=True)


def _run(args, spec, runner: Runner, refs: dict, key: str, log: list) -> int:
    # set-up, untimed: warm interpreter start (imports, bytecode, page cache),
    # repeated for a median; then, for the warm workload, filling the cache
    setup_samples = []
    env_probe = {}
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        shutil.rmtree(runner.cache, ignore_errors=True)
        runner.cache.mkdir()
        probe = runner.run(["--help"], extra=("--probe-env",))
        setup_samples.append(time.perf_counter() - t0)
        if probe["code"] != 0:
            print(f"perfbench: the program does not start: {_tail(probe['stderr'])}", file=sys.stderr)
            return 1
        env_probe = probe["result"].get("env", {})
    setup_s = statistics.median(setup_samples)
    fill_s = None
    if spec["fill"] is not None:
        t_fill = time.perf_counter()
        fill = runner.run(spec["fill"])
        if fill["code"] != 0:
            print(f"perfbench: cache fill failed: {_tail(fill['stderr'])}", file=sys.stderr)
            return 1
        # flush the filled cache inside the set-up, so that its write-back
        # does not compete with the timed passes that read it
        for path in runner.cache.rglob("*"):
            if path.is_file():
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        fill_s = time.perf_counter() - t_fill
        setup_s += fill_s

    passes, traced_passes = [], []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(spec, runner, False, refs, key, log))
        if args.trace:
            traced_passes.append(run_pass(spec, runner, True, refs, key, log))
        if time.perf_counter() - t_start >= args.seconds:
            break

    all_passes = passes + traced_passes
    attempted = sum(len(p["ops"]) for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    walls = [p["wall_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    n = len(passes)

    record = {
        "workload": args.workload,
        "why": spec["why"],
        "seed": args.seed,
        "lambda": runner.lam,
        "alpha": runner.alpha,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_record(),
        "libraries": env_probe,
        "source": source_identity(runner.root),
        "passes": n,
        "pass_wall_s": walls,
        "pass_peak_rss_mb": rss,
        "setup_samples_s": setup_samples,
        "cache_fill_s": fill_s,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failures": log,
    }
    for line in log:
        print(f"FAILED {line}")
    print(f"{args.workload} seed={args.seed} lambda={runner.lam!r} alpha={runner.alpha!r}")
    print(f"  ops_failed_frac = {failed / attempted} ({failed} of {attempted} ops)")
    if args.trace:
        layers = []
        absent = []
        for untraced, traced in zip(passes, traced_passes):
            m, absent = layer_metrics(traced, untraced["wall_s"])
            layers.append(m)
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        units = per_layer_units()
        out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
        record["absent_targets"] = absent
        record["layer_passes"] = layers
        spans = [
            {"pass": i, "op": j, "spans": op["result"].get("spans", [])}
            for i, p in enumerate(traced_passes)
            for j, op in enumerate(p["ops"])
        ]
        (runner.work / "spans.json").write_text(json.dumps(spans))
        for name, item in out.items():
            print(f"  {name} = {item['value']} {item['unit']} (median of {len(layers)} traced passes)")
        ranked = sorted(TARGETS, key=lambda mod: -metrics[f"share.{mod}"])
        for module in spec["layers"]:
            print(
                f"  chosen layer {module}: {metrics[f'share.{module}']:.1%} of traced wall_s, "
                f"rank {ranked.index(module) + 1} of {len(ranked)} modules"
            )
    else:
        out = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        print(f"  wall_s = {out['wall_s']['value']} s (median of {n} passes)")
        print(f"  peak_rss_mb = {out['peak_rss_mb']['value']} MiB (median of {n} passes)")
        print(
            f"  setup_s = {setup_s} s (median of {SETUP_REPEATS} warm starts"
            + (f" + one cache fill of {fill_s} s)" if fill_s is not None else ")")
        )
    (runner.work / "record.json").write_text(json.dumps(record, indent=1))
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
