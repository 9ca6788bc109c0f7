"""Batch pipelines: build bases, diagonalize sectors, predict, compare.

All outputs are bit-reproducible for a fixed configuration, BLAS thread
count and BLAS kernel, and agree to round-off otherwise: floats are written
with 17 significant digits, row order is fixed, and every output directory
receives a ``run_config.json`` provenance block that reloads to an equal
``RunConfig`` as ``RunConfig(**json.loads(text))``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import empirics, statmodel
from .eigensolve import (
    CacheCorruptionError,
    DiagonalizationError,
    EigenDecomposition,
    block_spectra,
    diagonalize_cached,
)
from .hamiltonian import ModelParams, sector_elements
from .spin_basis import ChainSizeError, momentum_basis, sector_counts
from .statmodel import (
    build_strength_model,
    density_stack,
    prediction_curve,
    write_csv,
    write_prediction_csv,
)

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_NUMERICAL = 3

CACHE_ENV_VAR = "ISINGCHAOS_CACHE_DIR"

PARITY_LABELS = {1: " S+", -1: " S-", 0: ""}

# spectra (or symmetry blocks) with fewer levels are skipped by ``spacing``
MIN_SPACING_LEVELS = 20

# peak memory of one sector in units of a float64 D x D array (8 D^2 bytes), from
# the whole-process peaks (VmHWM) at N=16 on a 2-vCPU Xeon: a solve with eigenvectors,
# ``diag --spins 16 --momentum K``, took 5.4 units at k=1 (691 MiB, inside
# ``np.linalg.eigh``) and 2.06 at k=0 (266 MiB), and the eigenvalues alone of
# ``spacing`` 2.4 at k=1 and 1.2 at k=0
SOLVE_UNITS = 8.0
SPECTRA_UNITS = 2.5

CORRECTION_VARIANTS = {
    "none": "gaussian",
    "gram-charlier": "gram_charlier",
    "gibbs": "gibbs",
}


# every optional flag: (RunConfig field, further add_argument keywords); the
# defaults are those of the RunConfig fields
FLAGS = {
    "--lambda": ("lam", {"type": float}),
    "--alpha": ("alpha", {"type": float}),
    "--corrections": ("corrections", {"choices": sorted(CORRECTION_VARIANTS)}),
    "--window-levels": ("window_levels", {"type": int}),
    "--bulk-fraction": ("bulk_fraction", {"type": float}),
    "--grid": ("grid", {"type": int}),
    "--cache-dir": ("cache_dir", {}),
    "--out": ("out_dir", {}),
    "--format": ("format", {"choices": ["csv", "json"]}),
    "--symbol": ("symbols", {"type": int, "action": "append"}),
}

# the flags each command reads besides --spins and --momentum; any other exits 2
COMMAND_FLAGS = {
    "basis-info": ["--out", "--format"],
    "diag": ["--lambda", "--alpha", "--cache-dir"],
    "predict": ["--lambda", "--alpha", "--corrections", "--grid", "--out"],
    "compare": [
        "--lambda", "--alpha", "--corrections", "--window-levels", "--bulk-fraction",
        "--grid", "--cache-dir", "--out",
    ],
    "coeff-hist": ["--lambda", "--alpha", "--window-levels", "--cache-dir", "--out", "--symbol"],
    "spacing": ["--lambda", "--alpha"],
}


@dataclass
class RunConfig:
    """Everything needed to reproduce one run.

    Settings the command does not read keep their defaults, and ``to_json``
    leaves them out, so the record reloads to an equal ``RunConfig``.
    """

    n_sites: int
    momenta: list[int]
    command: str | None = None
    lam: float = 1.0
    alpha: float = 1.0
    corrections: str = "gram-charlier"
    window_levels: int | None = None
    bulk_fraction: float = 0.6
    grid: int = 512
    cache_dir: str | None = None
    out_dir: str | None = None
    format: str = "csv"
    symbols: list[int] | None = None

    def to_json(self) -> str:
        """``n_sites``, ``momenta`` and what ``command`` reads; every field without a command."""
        record = dataclasses.asdict(self)
        if self.command is not None:
            read = {"command", "n_sites", "momenta"}
            read.update(FLAGS[flag][0] for flag in COMMAND_FLAGS[self.command])
            record = {key: value for key, value in record.items() if key in read}
        return json.dumps(record, sort_keys=True, indent=2)

    @property
    def params(self) -> ModelParams:
        return ModelParams(n_sites=self.n_sites, lam=self.lam, alpha=self.alpha)

    def default_window_levels(self, dim: int) -> int:
        return self.window_levels or max(50, dim // 40)


def _parse_momenta(raw: list[str], n_sites: int) -> list[int]:
    """The sectors to run, each once, in the order they were first named; every k if one token is ``all``.

    Every token is checked, also beside ``all``.
    """
    momenta = []
    for tok in raw:
        if tok == "all":
            continue
        try:
            k = int(tok)
        except ValueError:
            raise ValueError(f"momentum {tok!r} is neither an integer nor 'all'") from None
        if not 0 <= k < n_sites:
            raise ValueError(f"momentum {k} outside [0, {n_sites})")
        momenta.append(k)
    return list(range(n_sites)) if "all" in raw else list(dict.fromkeys(momenta))


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    momenta = _parse_momenta(args.momentum or ["all"], args.spins)
    settings = {dest: getattr(args, dest) for dest, _ in FLAGS.values()}
    if args.symbols:
        settings["symbols"] = list(dict.fromkeys(args.symbols))  # each once, first-named order
    if "--cache-dir" in COMMAND_FLAGS[args.command]:
        settings["cache_dir"] = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    ModelParams(n_sites=args.spins, lam=args.lam, alpha=args.alpha)  # raises on bad values
    if not 0.0 < args.bulk_fraction <= 1.0:
        raise ValueError(f"--bulk-fraction {args.bulk_fraction} is outside (0, 1]")
    for flag, value in (("--grid", args.grid), ("--window-levels", args.window_levels)):
        if value is not None and value < 2:
            raise ValueError(f"{flag} {value} is below 2")
    return RunConfig(n_sites=args.spins, momenta=momenta, command=args.command, **settings)


def _check_symbols(config: RunConfig) -> None:
    if not config.symbols:
        return  # the default symbol, D/2, is in range in every sector
    for k in config.momenta:
        dim = sector_counts(config.n_sites, k).dim
        for sym in config.symbols:
            if not 0 <= sym < dim:
                raise ValueError(f"--symbol {sym} outside [0, {dim}) at k={k}")


class SectorMemoryError(ChainSizeError):
    """A sector would need more memory than the machine has available."""


def _mem_available() -> int | None:
    """MemAvailable of ``/proc/meminfo`` in bytes; None where the kernel does not report it."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _check_memory(config: RunConfig, k: int, units: float) -> None:
    """Refuse sector ``k`` when ``units`` of 8 D^2 bytes exceed the available memory."""
    need = units * 8 * sector_counts(config.n_sites, k).dim ** 2
    available = _mem_available()
    if available is not None and need > available:
        raise SectorMemoryError(
            f"sector k={k} at N={config.n_sites} needs about {need / 2**20:.1f} MiB, "
            f"more than the {available / 2**20:.1f} MiB available"
        )


def _ensure_out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir or "isingchaos_out")
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_config.json").write_text(config.to_json())
    return out


def _decompose_sector(config: RunConfig, k: int, symbols=None) -> tuple[EigenDecomposition, bool]:
    """The sector's decomposition holding the rows of W that ``symbols`` read, and if it was a cache hit.

    A miss refuses a sector too large for the available memory before it
    builds the basis and element list of the sector ``diagonalize_cached`` solves.
    """

    def sector(solved: int):
        _check_memory(config, solved, SOLVE_UNITS)
        basis = momentum_basis(config.n_sites, solved)
        return basis, sector_elements(basis, config.params)

    return diagonalize_cached(sector, config.params, k, config.cache_dir, symbols)


def _model_grid(config: RunConfig) -> np.ndarray:
    span = statmodel.prediction_span(config.params)
    return np.linspace(-span, span, config.grid)


def cmd_basis_info(config: RunConfig) -> int:
    rows = []
    for k in config.momenta:
        counts = sector_counts(config.n_sites, k)
        rows.append(
            {
                "k": k,
                "dim_formula": counts.dim,
                "dim_approx": 2**config.n_sites / config.n_sites,
                "n_invariant": counts.n_invariant,
                "delta": counts.delta,
                "nu_tot": counts.nu_tot.tolist(),
                "nu_inv": counts.nu_inv.tolist(),
            }
        )
    print(f"{'k':>4} {'dim':>10} {'approx 2^N/N':>14} {'N_inv':>8} {'delta':>10}")
    for r in rows:
        print(
            f"{r['k']:>4} {r['dim_formula']:>10} {r['dim_approx']:>14.1f} "
            f"{r['n_invariant']:>8} {r['delta']:>10.4f}"
        )
    if config.out_dir:
        out = _ensure_out_dir(config)
        if config.format == "json":
            (out / "basis_info.json").write_text(json.dumps(rows, indent=2))
        else:
            header = ["k", "dim_formula", "dim_approx", "n_invariant", "delta"]
            write_csv(out / "basis_info.csv", header, [[r[h] for r in rows] for h in header])
    return EXIT_OK


def cmd_diag(config: RunConfig) -> int:
    for k in config.momenta:
        decomp, hit = _decompose_sector(config, k, symbols=())  # the energies only
        status = "cache hit" if hit else "computed"
        print(
            f"k={k}: dim={decomp.dim} {status}; "
            f"E in [{decomp.energies[0]:.6f}, {decomp.energies[-1]:.6f}]"
        )
    return EXIT_OK


def cmd_predict(config: RunConfig) -> int:
    out = _ensure_out_dir(config)
    grid = _model_grid(config)
    variant = CORRECTION_VARIANTS[config.corrections]
    model = build_strength_model(config.params, variant)
    stack = density_stack(model, grid)  # the model on the grid, the same for every sector
    for k in config.momenta:
        counts = sector_counts(config.n_sites, k)
        curve = prediction_curve(counts, model, grid, stack=stack)
        if not np.any(curve.rho > 0):  # every class's density fell between the grid points
            sigma = max(np.sqrt(model.moments[n].sigma2) for n in np.flatnonzero(counts.nu_tot))
            raise ValueError(f"sector k={k}: rho is 0 at every grid point; the grid spacing "
                             f"{grid[1] - grid[0]:.3g} is far wider than the largest class sigma {sigma:.3g}")
        path = out / f"predict_k{k}_{config.corrections}.csv"
        write_prediction_csv(curve, path)
        print(f"k={k}: wrote {path}")
    return EXIT_OK


def _compare_sector(config: RunConfig, k: int, grid, corrected, uncorrected, out: Path) -> dict:
    """``corrected`` and ``uncorrected`` are each a model and its density stack on ``grid``."""
    counts = sector_counts(config.n_sites, k)
    decomp, _ = _decompose_sector(config, k, symbols=())  # Pr reads the moment sums, not W
    edges = empirics.windows_fixed_count(decomp.energies, config.default_window_levels(decomp.dim))
    pr = empirics.empirical_participation_ratio(decomp)
    (model, stack), (baseline, baseline_stack) = corrected, uncorrected
    pr_c = prediction_curve(counts, model, grid, q_values=(2.0,), stack=stack).pr
    pr_u = prediction_curve(
        counts, baseline, grid, q_values=(2.0,), delta_mode="none", stack=baseline_stack
    ).pr
    rep_c = empirics.compare(grid, pr_c, decomp.energies, pr, edges, config.bulk_fraction)
    rep_u = empirics.compare(grid, pr_u, decomp.energies, pr, edges, config.bulk_fraction)
    write_csv(
        out / f"compare_k{k}.csv",
        ["E", "empirical_Pr", "predicted_corrected", "predicted_uncorrected", "in_bulk"],
        [rep_c.e_center, rep_c.empirical, rep_c.predicted, rep_u.predicted, rep_c.in_bulk],
    )
    print(
        f"k={k}: corrected median dev {rep_c.bulk_median:.4f}, "
        f"uncorrected {rep_u.bulk_median:.4f}"
    )
    return {"corrected": rep_c.to_dict(), "uncorrected": rep_u.to_dict()}


def cmd_compare(config: RunConfig) -> int:
    out = _ensure_out_dir(config)
    grid = _model_grid(config)
    variant = CORRECTION_VARIANTS[config.corrections]
    model = build_strength_model(config.params, variant)
    baseline = build_strength_model(config.params, "gaussian")
    # each model is evaluated on the grid once, for every sector
    corrected = (model, density_stack(model, grid))
    uncorrected = (baseline, density_stack(baseline, grid))
    # one sector per call, so that every array of a sector is freed before the next one loads
    report_all = {
        f"k={k}": _compare_sector(config, k, grid, corrected, uncorrected, out)
        for k in config.momenta
    }
    # no indent: that keeps json on its C encoder, twice as fast on an N=14 report
    (out / "comparison_report.json").write_text(json.dumps(report_all))
    return EXIT_OK


def _coeff_hist_sector(config: RunConfig, k: int, out: Path) -> None:
    symbols = config.symbols or [sector_counts(config.n_sites, k).dim // 2]
    decomp, _ = _decompose_sector(config, k, symbols)
    edges = empirics.windows_fixed_count(decomp.energies, config.default_window_levels(decomp.dim))
    for sym in symbols:
        stats = empirics.windowed_coefficient_stats(decomp, sym, edges)
        fitted = [(i, st) for i, st in enumerate(stats) if not st.insufficient]
        if not fitted:
            print(f"k={k} symbol={sym}: skipped (no window has a degree of freedom)")
            continue
        windows, fits = zip(*fitted)
        bins = [st.counts.size for st in fits]
        path = out / f"coeff_hist_k{k}_s{sym}.csv"
        write_csv(
            path,
            ["window", "bin_lo", "bin_hi", "count", "density", "chi2_reduced", "n_samples"],
            [
                np.repeat(windows, bins),
                np.concatenate([st.bin_edges[:-1] for st in fits]),
                np.concatenate([st.bin_edges[1:] for st in fits]),
                np.concatenate([st.counts for st in fits]),
                np.concatenate([st.density for st in fits]),
                np.repeat([st.chi2_reduced for st in fits], bins),
                np.repeat([st.n_samples for st in fits], bins),
            ],
        )
        print(f"k={k} symbol={sym}: wrote {path}")


def cmd_coeff_hist(config: RunConfig) -> int:
    out = _ensure_out_dir(config)
    for k in config.momenta:
        _coeff_hist_sector(config, k, out)  # one sector per call, as in cmd_compare
    return EXIT_OK


def cmd_spacing(config: RunConfig) -> int:
    print(
        f"reference values: GOE {empirics.GOE_MEAN_R:.4f}, "
        f"Poisson {empirics.POISSON_MEAN_R:.4f}"
    )
    for k in config.momenta:
        _check_memory(config, k, SPECTRA_UNITS)
        # the ratio reads energies only, so every symmetry block is solved for
        # its eigenvalues alone; on the integrable line (alpha = 0) z-parity is
        # a symmetry too and exact degeneracies abound, so it labels the rows
        basis = momentum_basis(config.n_sites, k)
        z_parity = (-1) ** (config.n_sites - basis.n_up) if config.alpha == 0.0 else None
        spectra = block_spectra(basis, sector_elements(basis, config.params), z_parity)
        for (z, parity), energies in spectra.items():
            if z_parity is not None:
                label = f"z{z:+d}{PARITY_LABELS[parity]}"
            else:
                label = f"parity {parity:+d}" if parity else ""
            if energies.size < MIN_SPACING_LEVELS:
                print(f"k={k} {label}: skipped (n < {MIN_SPACING_LEVELS} levels)")
                continue
            res = empirics.spacing_ratio(energies)
            print(
                f"k={k} {label}: r = {res.mean_r:.4f} "
                f"({res.n_excluded} degenerate spacings excluded)"
            )
    return EXIT_OK


COMMANDS = {
    "basis-info": cmd_basis_info,
    "diag": cmd_diag,
    "predict": cmd_predict,
    "compare": cmd_compare,
    "coeff-hist": cmd_coeff_hist,
    "spacing": cmd_spacing,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingchaos",
        description="Momentum-sector diagonalization and eigenfunction statistics "
        "of the two-field Ising chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fields = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    defaults = {dest: fields[dest] for dest, _ in FLAGS.values()}
    for name, flags in COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        # flags a command does not take keep their defaults, so every run has a full config
        p.set_defaults(**defaults)
        p.add_argument("--spins", type=int, required=True, help="chain length N")
        p.add_argument(
            "--momentum",
            action="append",
            metavar="K",
            help="sector momentum (repeatable) or 'all'",
        )
        for flag in flags:
            dest, keywords = FLAGS[flag]
            p.add_argument(flag, dest=dest, **keywords)
    return parser


def _parse(argv) -> RunConfig:
    """The checked run configuration; argparse exits, with code 0 after ``--help`` and 2 on bad arguments."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "coeff-hist":
            _check_symbols(config)
    except ValueError as exc:
        parser.error(str(exc))
    return config


def _drop_stdout() -> None:
    """Point a stdout whose reader is gone at /dev/null: the rest of its buffer is dropped, not failed, at exit."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    try:
        config = _parse(argv)
    except SystemExit:  # argparse has printed its help (code 0) or its usage text (code 2)
        try:
            sys.stdout.flush()
        except BrokenPipeError:  # argparse ignores a closed stdout, and so does its exit code
            _drop_stdout()
        raise
    try:
        code = COMMANDS[config.command](config)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except ChainSizeError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except (
        ArithmeticError,  # OverflowError of float arithmetic
        CacheCorruptionError,
        DiagonalizationError,
        ValueError,  # NonHermitianError, LinAlgError and failed statistics
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            _drop_stdout()
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
