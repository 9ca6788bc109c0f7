"""Batch pipelines: build bases, diagonalize sectors, predict, compare.

All outputs are deterministic for a fixed configuration: floats are written
with 17 significant digits, row order is fixed, and every output directory
receives a ``run_config.json`` provenance block that reloads to an equal
``RunConfig``.
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
    NonHermitianError,
    diagonalize_cached,
)
from .hamiltonian import ModelParams, build_sector_hamiltonian
from .spin_basis import MomentumBasis, momentum_basis, sector_dimension
from .statmodel import (
    GibbsFitError,
    GibbsInfeasibleError,
    build_strength_model,
    fmt_float,
    prediction_curve,
    write_prediction_csv,
)

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_NUMERICAL = 3

CACHE_ENV_VAR = "ISINGCHAOS_CACHE_DIR"

CORRECTION_VARIANTS = {
    "none": "gaussian",
    "gram-charlier": "gram_charlier",
    "gibbs": "gibbs",
}


@dataclass
class RunConfig:
    """Everything needed to reproduce one run."""

    n_sites: int
    lam: float
    alpha: float
    momenta: list[int]
    corrections: str = "gram-charlier"
    window_levels: int | None = None
    bulk_fraction: float = 0.6
    grid: int = 512
    cache_dir: str | None = None
    out_dir: str | None = None
    seed: int = 0
    q_values: list[float] = dataclasses.field(default_factory=lambda: [1.5, 2.0, 3.0])
    format: str = "csv"

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**json.loads(text))

    @property
    def params(self) -> ModelParams:
        return ModelParams(n_sites=self.n_sites, lam=self.lam, alpha=self.alpha)

    def default_window_levels(self, dim: int) -> int:
        return self.window_levels or max(50, dim // 40)


def _parse_momenta(raw: list[str], n_sites: int) -> list[int]:
    if any(tok == "all" for tok in raw):
        return list(range(n_sites))
    momenta = []
    for tok in raw:
        k = int(tok)
        if not 0 <= k < n_sites:
            raise ValueError(f"momentum {k} outside [0, {n_sites})")
        momenta.append(k)
    return momenta


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    momenta = _parse_momenta(args.momentum or ["all"], args.spins)
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    return RunConfig(
        n_sites=args.spins,
        lam=args.lam,
        alpha=args.alpha,
        momenta=momenta,
        corrections=args.corrections,
        window_levels=args.window_levels,
        bulk_fraction=args.bulk_fraction,
        grid=args.grid,
        cache_dir=cache_dir,
        out_dir=args.out,
        seed=args.seed,
        format=args.format,
    )


def _ensure_out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir or "isingchaos_out")
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_config.json").write_text(config.to_json())
    return out


def _decompose_sector(
    config: RunConfig, k: int
) -> tuple[MomentumBasis, EigenDecomposition, bool]:
    basis = momentum_basis(config.n_sites, k)
    decomp, hit = diagonalize_cached(
        lambda: build_sector_hamiltonian(basis, config.params),
        config.params,
        k,
        config.cache_dir,
    )
    return basis, decomp, hit


def _model_grid(config: RunConfig) -> np.ndarray:
    params = config.params
    sigma = np.sqrt(params.n_sites * (1 + params.alpha**2))
    span = abs(params.lam) * params.n_sites + 6 * sigma
    return np.linspace(-span, span, config.grid)


def cmd_basis_info(config: RunConfig) -> int:
    rows = []
    for k in config.momenta:
        basis = momentum_basis(config.n_sites, k)
        rows.append(
            {
                "k": k,
                "dim_exact": basis.dim,
                "dim_formula": sector_dimension(config.n_sites, k, "exact"),
                "dim_approx": sector_dimension(config.n_sites, k, "approx"),
                "n_invariant": basis.n_invariant,
                "delta": basis.delta,
                "nu_tot": basis.nu_tot().tolist(),
                "nu_inv": basis.nu_inv().tolist(),
            }
        )
    print(f"{'k':>4} {'dim':>10} {'approx 2^N/N':>14} {'N_inv':>8} {'delta':>10}")
    for r in rows:
        print(
            f"{r['k']:>4} {r['dim_exact']:>10} {r['dim_approx']:>14.1f} "
            f"{r['n_invariant']:>8} {r['delta']:>10.4f}"
        )
    if config.out_dir:
        out = _ensure_out_dir(config)
        if config.format == "json":
            (out / "basis_info.json").write_text(json.dumps(rows, indent=2))
        else:
            with open(out / "basis_info.csv", "w", newline="") as fh:
                fh.write("k,dim_exact,dim_approx,n_invariant,delta\n")
                for r in rows:
                    fh.write(
                        ",".join(
                            [
                                str(r["k"]),
                                str(r["dim_exact"]),
                                fmt_float(r["dim_approx"]),
                                str(r["n_invariant"]),
                                fmt_float(r["delta"]),
                            ]
                        )
                        + "\n"
                    )
    return EXIT_OK


def cmd_diag(config: RunConfig) -> int:
    for k in config.momenta:
        basis, decomp, hit = _decompose_sector(config, k)
        status = "cache hit" if hit else "computed"
        print(
            f"k={k}: dim={basis.dim} {status}; "
            f"E in [{decomp.energies[0]:.6f}, {decomp.energies[-1]:.6f}]"
        )
    return EXIT_OK


def cmd_predict(config: RunConfig) -> int:
    out = _ensure_out_dir(config)
    grid = _model_grid(config)
    variant = CORRECTION_VARIANTS[config.corrections]
    model = build_strength_model(config.params, variant)
    for k in config.momenta:
        basis = momentum_basis(config.n_sites, k)
        curve = prediction_curve(
            basis, model, grid, q_values=tuple(config.q_values)
        )
        path = out / f"predict_k{k}_{config.corrections}.csv"
        write_prediction_csv(curve, path)
        print(f"k={k}: wrote {path}")
    return EXIT_OK


def cmd_compare(config: RunConfig) -> int:
    out = _ensure_out_dir(config)
    grid = _model_grid(config)
    variant = CORRECTION_VARIANTS[config.corrections]
    model = build_strength_model(config.params, variant)
    baseline = build_strength_model(config.params, "gaussian")
    report_all = {}
    for k in config.momenta:
        basis, decomp, _ = _decompose_sector(config, k)
        windows = empirics.windows_fixed_count(
            decomp.energies, config.default_window_levels(decomp.dim)
        )
        _, pr = empirics.empirical_participation_ratio(decomp)
        emp = np.array([pr[w.indices].mean() for w in windows])
        corrected = prediction_curve(basis, model, grid)
        uncorrected = prediction_curve(
            basis, baseline, grid, apply_symmetry_correction=False
        )
        rep_c = empirics.compare(
            grid, corrected.pr, windows, emp, decomp.dim, config.bulk_fraction
        )
        rep_u = empirics.compare(
            grid, uncorrected.pr, windows, emp, decomp.dim, config.bulk_fraction
        )
        report_all[f"k={k}"] = {
            "corrected": rep_c.to_dict(),
            "uncorrected": rep_u.to_dict(),
        }
        with open(out / f"compare_k{k}.csv", "w", newline="") as fh:
            fh.write("E,empirical_Pr,predicted_corrected,predicted_uncorrected,in_bulk\n")
            for row_c, row_u in zip(rep_c.rows, rep_u.rows):
                fh.write(
                    ",".join(
                        [
                            fmt_float(row_c.e_center),
                            fmt_float(row_c.empirical),
                            fmt_float(row_c.predicted),
                            fmt_float(row_u.predicted),
                            str(int(row_c.in_bulk)),
                        ]
                    )
                    + "\n"
                )
        print(
            f"k={k}: corrected median dev {rep_c.bulk_median:.4f}, "
            f"uncorrected {rep_u.bulk_median:.4f}"
        )
    (out / "comparison_report.json").write_text(json.dumps(report_all, indent=2))
    return EXIT_OK


def cmd_coeff_hist(config: RunConfig, symbols: list[int]) -> int:
    out = _ensure_out_dir(config)
    for k in config.momenta:
        basis, decomp, _ = _decompose_sector(config, k)
        chosen = symbols or [decomp.dim // 2]
        windows = empirics.windows_fixed_count(
            decomp.energies, config.default_window_levels(decomp.dim)
        )
        for sym in chosen:
            stats = empirics.windowed_coefficient_stats(decomp, sym, windows)
            path = out / f"coeff_hist_k{k}_s{sym}.csv"
            with open(path, "w", newline="") as fh:
                fh.write("window,bin_lo,bin_hi,count,density,chi2_reduced,n_samples\n")
                for i, st in enumerate(stats):
                    if st.insufficient:
                        continue
                    dens = st.density
                    for j, (lo, hi) in enumerate(zip(st.bin_edges[:-1], st.bin_edges[1:])):
                        fh.write(
                            ",".join(
                                [
                                    str(i),
                                    fmt_float(lo),
                                    fmt_float(hi),
                                    str(int(st.counts[j])),
                                    fmt_float(dens[j]),
                                    fmt_float(st.chi2_reduced),
                                    str(st.n_samples),
                                ]
                            )
                            + "\n"
                        )
            print(f"k={k} symbol={sym}: wrote {path}")
    return EXIT_OK


def cmd_spacing(config: RunConfig, surrogate: str | None) -> int:
    rng = np.random.default_rng(config.seed)
    print(
        f"reference values: GOE {empirics.GOE_MEAN_R:.4f}, "
        f"Poisson {empirics.POISSON_MEAN_R:.4f}"
    )
    if surrogate == "goe":
        rs = [
            empirics.spacing_ratio(empirics.goe_surrogate_levels(800, rng)).mean_r
            for _ in range(10)
        ]
        print(f"GOE surrogate mean r: {np.mean(rs):.4f}")
    elif surrogate == "poisson":
        r = empirics.spacing_ratio(empirics.poisson_surrogate_levels(200000, rng))
        print(f"Poisson surrogate mean r: {r.mean_r:.4f}")
    for k in config.momenta:
        if config.alpha == 0.0:
            # integrable line: z-parity is a symmetry and exact degeneracies
            # abound, so resolve sectors by exact block projection
            basis = momentum_basis(config.n_sites, k)
            h = build_sector_hamiltonian(basis, config.params).entries
            for label, energies in _integrable_subspectra(basis, h, k, config.n_sites):
                if energies.size < 20:
                    continue
                res = empirics.spacing_ratio(energies)
                print(
                    f"k={k} {label}: r = {res.mean_r:.4f} "
                    f"({res.n_excluded} degenerate spacings excluded)"
                )
            continue
        basis, decomp, _ = _decompose_sector(config, k)
        subsets = {"": np.arange(decomp.dim)}
        if k == 0 or 2 * k == config.n_sites:
            s_op = empirics.inversion_matrix(basis)
            plus, minus, _ = empirics.split_by_parity(decomp, s_op)
            subsets = {"parity +1": plus, "parity -1": minus}
        for label, idx in subsets.items():
            res = empirics.spacing_ratio(decomp.energies[idx])
            print(
                f"k={k} {label}: r = {res.mean_r:.4f} "
                f"({res.n_excluded} degenerate spacings excluded)"
            )
    return EXIT_OK


def _integrable_subspectra(basis: MomentumBasis, h: np.ndarray, k: int, n_sites: int):
    signs = empirics.z_parity_signs(basis)
    for zsign in (1, -1):
        subset = np.flatnonzero(signs == zsign)
        if subset.size == 0:
            continue
        if k == 0 or 2 * k == n_sites:
            hp, hm = empirics.inversion_blocks(basis, h, subset)
            for plabel, block in (("S+", hp), ("S-", hm)):
                if block.shape[0]:
                    yield f"z{zsign:+d} {plabel}", np.linalg.eigvalsh(block)
        else:
            sub = h[np.ix_(subset, subset)]
            yield f"z{zsign:+d}", np.linalg.eigvalsh(sub)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spins", type=int, required=True, help="chain length N")
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument(
        "--momentum",
        action="append",
        metavar="K",
        help="sector momentum (repeatable) or 'all'",
    )
    parser.add_argument(
        "--corrections",
        choices=sorted(CORRECTION_VARIANTS),
        default="gram-charlier",
    )
    parser.add_argument("--window-levels", type=int, default=None)
    parser.add_argument("--bulk-fraction", type=float, default=0.6)
    parser.add_argument("--grid", type=int, default=512)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingchaos",
        description="Momentum-sector diagonalization and eigenfunction statistics "
        "of the two-field Ising chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("basis-info", "diag", "predict", "compare", "coeff-hist", "spacing"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "coeff-hist":
            p.add_argument("--symbol", type=int, action="append", default=None)
        if name == "spacing":
            p.add_argument("--surrogate", choices=["goe", "poisson"], default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))  # exits with code 2
    try:
        if args.command == "basis-info":
            return cmd_basis_info(config)
        if args.command == "diag":
            return cmd_diag(config)
        if args.command == "predict":
            return cmd_predict(config)
        if args.command == "compare":
            return cmd_compare(config)
        if args.command == "coeff-hist":
            return cmd_coeff_hist(config, args.symbol or [])
        if args.command == "spacing":
            return cmd_spacing(config, args.surrogate)
    except (
        CacheCorruptionError,
        DiagonalizationError,
        NonHermitianError,
        GibbsFitError,
        GibbsInfeasibleError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
