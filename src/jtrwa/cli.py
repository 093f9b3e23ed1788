"""Command-line front end: benchmark tables, spectra, and symmetry studies.

Every command emits one table (CSV by default, JSON/pretty on request)
with a mandatory header row; floats are fixed at 9 significant digits so
identical configurations produce byte-identical output.  Summary lines go
to stderr so CSV on stdout stays clean.

Exit codes: 0 success, 1 acceptance-threshold failure, 2 usage error.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

import click
import numpy as np

from .fockspace import BasisSpec, make_basis, pauli_ops
from .models import (
    ModelParams,
    build_full_jt,
    build_nonhermitian,
    build_rotated,
    build_rwa,
    build_second_order,
)
from .pseudoherm import (
    check_combined_symmetry,
    check_pseudo_hermitian,
    check_pt,
    conjugation_closure,
    parity_op,
    reality_scan,
)
from .reference import EXACT_TOL, TABLE1_KAPPA2, published_row
from .spectra import (
    benchmark_rwa_energy,
    converge_ground,
    diagonalize,
    rwa_level_ladder,
    total_number_schedule,
)
from .transforms import residual_study

FORMATS = ("csv", "json", "pretty")
MODELS = {
    "full": build_full_jt,
    "rwa": build_rwa,
    "rotated": build_rotated,
    "second-order": build_second_order,
    "nonhermitian": build_nonhermitian,
}
SLOPE_RANGE = (2.7, 3.3)
IDENTITY_TOL = 1e-12
CLOSURE_TOL = 1e-10
TABLE1_SCHEDULE = (10, 20, 30, 40)
NON_NEGATIVE = click.FloatRange(min=0.0)
POSITIVE = click.FloatRange(min=0.0, min_open=True)
MAX_GRID_POINTS = 10_000  # longest accepted "start:stop:step" grid, checked before np.arange


@dataclass(frozen=True)
class RunConfig:
    """Per-invocation configuration shared by the command runners, checked by click."""

    command: str
    params: ModelParams
    basis_spec: BasisSpec | None = None
    fmt: str = "csv"
    out: str | None = None
    kappa2: float | None = None
    grid: tuple[float, ...] | None = None
    k_low: int = 4
    tol: float = 1e-8
    schedule: tuple[int, ...] = TABLE1_SCHEDULE
    model: str = "full"


@dataclass(frozen=True)
class CommandResult:
    rows: list
    summary: dict
    exit_code: int


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse an inclusive arithmetic grid "start:stop:step"."""
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError(f'grid must look like "start:stop:step", got {text!r}')
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise click.UsageError(f"grid endpoints must be numbers, got {text!r}") from None
    if not np.all(np.isfinite((start, stop, step))):
        raise click.UsageError(f"grid endpoints and step must be finite, got {text!r}")
    if step <= 0:
        raise click.UsageError("grid step must be positive")
    if stop < start:
        raise click.UsageError("grid stop must not precede start")
    if (stop - start) / step + 0.5 > MAX_GRID_POINTS:
        raise click.UsageError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return tuple(float(v) for v in np.arange(start, stop + 0.5 * step, step))


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def _format_summary_value(value) -> str:
    return "none" if value is None else _format_value(value)


def render(result: CommandResult, cfg: RunConfig) -> str:
    if cfg.fmt == "json":
        payload = {"command": cfg.command, "rows": result.rows, "summary": result.summary}
        return json.dumps(payload, indent=2) + "\n"
    if not result.rows:
        return ""
    columns = list(result.rows[0].keys())
    if cfg.fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_format_value(row[c]) for c in columns) for row in result.rows]
        return "\n".join(lines) + "\n"
    # pretty
    table = [[_format_value(row[c]) for c in columns] for row in result.rows]
    widths = [max(len(c), *(len(r[i]) for r in table)) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in table]
    for key, value in result.summary.items():
        lines.append(f"{key} = {_format_summary_value(value)}")
    return "\n".join(lines) + "\n"


def emit(result: CommandResult, cfg: RunConfig) -> None:
    text = render(result, cfg)
    if cfg.out:
        with open(cfg.out, "w") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)
    if cfg.fmt != "pretty":
        for key, value in result.summary.items():
            click.echo(f"{key} = {_format_summary_value(value)}", err=True)


def _basis_from(cfg: RunConfig) -> BasisSpec:
    return cfg.basis_spec if cfg.basis_spec is not None else BasisSpec.per_mode(8)


# ---------------------------------------------------------------- table1


def run_table1(cfg: RunConfig) -> CommandResult:
    kappa2_values = [cfg.kappa2] if cfg.kappa2 is not None else list(TABLE1_KAPPA2)
    schedule = total_number_schedule(cfg.schedule)
    benchmark_regime = cfg.params.omega == 1.0 and cfg.params.omega0 == 0.0

    rows = []
    worst_delta = 0.0
    threshold_failed = False
    for kappa2 in kappa2_values:
        params = replace(cfg.params, kappa=float(np.sqrt(kappa2)))
        spectrum = converge_ground(build_full_jt, params, schedule, cfg.tol)
        exact = (spectrum.ground_energy, spectrum.first_excited_energy())
        closed_form = rwa_level_ladder(params, 2)
        published = published_row(kappa2) if benchmark_regime else None
        for level, name in enumerate(("ground", "excited")):
            pub_rwa = pub_exact = delta = None
            if published is not None:
                pub_rwa, pub_exact = published[2 * level], published[2 * level + 1]
                delta = abs(exact[level] - pub_exact)
                worst_delta = max(worst_delta, delta)
                if delta > EXACT_TOL:
                    threshold_failed = True
            rows.append(
                {
                    "kappa2": float(kappa2),
                    "level": name,
                    "e_rwa_closed_form": closed_form[level],
                    "e_rwa_fit": benchmark_rwa_energy(level, params),
                    "e_exact_computed": exact[level],
                    "e_rwa_published": pub_rwa,
                    "e_exact_published": pub_exact,
                    "abs_delta": delta,
                }
            )
    summary = {"worst_abs_delta": worst_delta, "tolerance": EXACT_TOL}
    return CommandResult(rows, summary, 1 if threshold_failed else 0)


# ---------------------------------------------------------------- spectrum


def run_spectrum(cfg: RunConfig) -> CommandResult:
    basis = make_basis(_basis_from(cfg))
    spectrum = diagonalize(MODELS[cfg.model](cfg.params, basis))
    rows = [
        {"index": k, "re_energy": float(v.real), "im_energy": float(v.imag)}
        for k, v in enumerate(spectrum.eigenvalues)
    ]
    return CommandResult(rows, {"dimension": basis.dimension, "model": cfg.model}, 0)


# ---------------------------------------------------------------- converge


def run_converge(cfg: RunConfig) -> CommandResult:
    schedule = total_number_schedule(cfg.schedule)
    spectrum = converge_ground(MODELS[cfg.model], cfg.params, schedule, cfg.tol)
    rows = [{"cutoff": c, "ground_energy": e} for c, e in spectrum.cutoff_history]
    summary = {"converged": spectrum.converged, "tol": cfg.tol}
    return CommandResult(rows, summary, 0 if spectrum.converged else 1)


# ------------------------------------------------------- transform-residual


def run_transform_residual(cfg: RunConfig) -> CommandResult:
    basis = make_basis(_basis_from(cfg))
    grid = cfg.grid if cfg.grid is not None else (0.01, 0.02, 0.04, 0.08)
    report = residual_study(cfg.params, basis, grid)
    rows = [
        {"kappa": k, "residual_fro": f, "residual_spec": s}
        for k, f, s in zip(report.kappa_values, report.residual_norms, report.residual_norms_spectral)
    ]
    in_range = SLOPE_RANGE[0] <= report.fitted_slope <= SLOPE_RANGE[1]
    summary = {
        "fitted_slope": report.fitted_slope,
        "slope_range": f"{SLOPE_RANGE[0]}..{SLOPE_RANGE[1]}",
    }
    return CommandResult(rows, summary, 0 if in_range else 1)


# ---------------------------------------------------------------- pseudoherm


def run_pseudoherm(cfg: RunConfig) -> CommandResult:
    basis = make_basis(_basis_from(cfg))
    grid = cfg.grid if cfg.grid is not None else (0.1, 0.2, 0.3)
    _, _, sigma0 = pauli_ops(basis)
    parity = parity_op(basis)
    rows = []
    failed = False
    for gamma in grid:
        h = build_nonhermitian(replace(cfg.params, gamma=float(gamma)), basis)
        closure = conjugation_closure(diagonalize(h).eigenvalues)
        row = {
            "gamma": float(gamma),
            "sigma0_residual": check_pseudo_hermitian(h, sigma0),
            "parity_residual": check_pseudo_hermitian(h, parity),
            "combined_commutator": check_combined_symmetry(h),
            "conjugation_closure": closure,
            "pt_residual": check_pt(h),
        }
        rows.append(row)
        if (
            row["sigma0_residual"] > IDENTITY_TOL
            or row["parity_residual"] > IDENTITY_TOL
            or row["combined_commutator"] > IDENTITY_TOL
            or closure > CLOSURE_TOL
        ):
            failed = True
    summary = {"identity_tol": IDENTITY_TOL, "closure_tol": CLOSURE_TOL}
    return CommandResult(rows, summary, 1 if failed else 0)


# --------------------------------------------------------------- reality-scan


def run_reality_scan(cfg: RunConfig) -> CommandResult:
    basis = make_basis(_basis_from(cfg))
    grid = cfg.grid if cfg.grid is not None else parse_grid("0:0.5:0.005")
    try:
        report = reality_scan(cfg.params, basis, grid, k=cfg.k_low)
    except np.linalg.LinAlgError as exc:
        click.echo(f"eigensolver failed: {exc}", err=True)
        return CommandResult([], {}, 1)
    rows = [
        {"gamma": g, "max_imag_lowk": m}
        for g, m in zip(report.gamma_values, report.max_imag_lowk)
    ]
    summary = {"detected_threshold": report.detected_threshold, "k": report.k}
    return CommandResult(rows, summary, 0)


RUNNERS = {
    "table1": run_table1,
    "spectrum": run_spectrum,
    "converge": run_converge,
    "transform-residual": run_transform_residual,
    "pseudoherm": run_pseudoherm,
    "reality-scan": run_reality_scan,
}


def execute(cfg: RunConfig) -> int:
    result = RUNNERS[cfg.command](cfg)
    emit(result, cfg)
    return result.exit_code


# ------------------------------------------------------------------ click UI


def _common_options(func):
    options = [
        click.option("--omega", type=float, default=1.0, show_default=True, help="Oscillator frequency."),
        click.option("--omega0", type=float, default=0.0, show_default=True, help="Level-splitting parameter."),
        click.option("--format", "fmt", type=click.Choice(FORMATS), default="csv", show_default=True),
        click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the table to a file."),
    ]
    for option in reversed(options):
        func = option(func)
    return func


def _basis_options(func):
    options = [
        click.option("--nmax", type=int, default=8, show_default=True, help="Per-mode Fock cutoff."),
        click.option("--total-nmax", type=int, default=None, help="Total-number cutoff (overrides --nmax)."),
    ]
    for option in reversed(options):
        func = option(func)
    return func


def _basis_spec(nmax: int, total_nmax: int | None) -> BasisSpec:
    if total_nmax is not None:
        return BasisSpec.total_number(total_nmax)
    return BasisSpec.per_mode(nmax)


class _CommandGroup(click.Group):
    """Reports a ValueError (ResonanceError included) from any command as a usage error."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_CommandGroup)
def cli() -> None:
    """Spectral toolkit for the two-level, two-mode vibronic model."""


@cli.command("table1")
@_common_options
@click.option("--kappa2", type=NON_NEGATIVE, default=None, help="Single squared coupling instead of the benchmark grid.")
@click.option("--tol", type=POSITIVE, default=1e-8, show_default=True, help="Ground-energy convergence tolerance.")
def table1_command(omega, omega0, fmt, out, kappa2, tol):
    """Reproduce the published benchmark table and self-check the exact column.

    Emits, per coupling and level, the closed-form eigenvalue, the empirical
    fit that matches the published RWA column, the cutoff-converged exact
    energy, and the published references.  Exits 1 if any exact energy
    misses its published value by more than 5e-3.
    """
    cfg = RunConfig(
        command="table1",
        params=ModelParams(omega=omega, omega0=omega0),
        fmt=fmt,
        out=out,
        kappa2=kappa2,
        tol=tol,
    )
    sys.exit(execute(cfg))


@cli.command("spectrum")
@_common_options
@_basis_options
@click.option("--model", type=click.Choice(sorted(MODELS)), default="full", show_default=True)
@click.option("--kappa2", type=NON_NEGATIVE, default=0.0, show_default=True, help="Squared coupling.")
@click.option("--gamma", type=float, default=0.0, show_default=True, help="Imaginary coupling magnitude.")
def spectrum_command(omega, omega0, fmt, out, nmax, total_nmax, model, kappa2, gamma):
    """Diagonalize one model Hamiltonian and list its eigenvalues."""
    params = ModelParams(omega=omega, omega0=omega0, kappa=float(np.sqrt(kappa2)), gamma=gamma)
    cfg = RunConfig(
        command="spectrum",
        params=params,
        basis_spec=_basis_spec(nmax, total_nmax),
        fmt=fmt,
        out=out,
        model=model,
    )
    sys.exit(execute(cfg))


@cli.command("converge")
@_common_options
@click.option("--model", type=click.Choice(sorted(MODELS)), default="full", show_default=True)
@click.option("--kappa2", type=NON_NEGATIVE, default=0.0, show_default=True)
@click.option("--gamma", type=float, default=0.0, show_default=True)
@click.option("--tol", type=POSITIVE, default=1e-8, show_default=True)
@click.option("--grid", default="10:40:10", show_default=True, help="Total-number cutoff schedule start:stop:step.")
def converge_command(omega, omega0, fmt, out, model, kappa2, gamma, tol, grid):
    """Track the ground energy across a total-number cutoff schedule.

    Exits 1 when the schedule ends before the tolerance is reached.
    """
    values = parse_grid(grid)
    schedule = []
    for value in values:
        if abs(value - round(value)) > 1e-9 or value < 1:
            raise click.UsageError("cutoff schedule must consist of integers >= 1")
        schedule.append(int(round(value)))
    params = ModelParams(omega=omega, omega0=omega0, kappa=float(np.sqrt(kappa2)), gamma=gamma)
    cfg = RunConfig(
        command="converge",
        params=params,
        fmt=fmt,
        out=out,
        tol=tol,
        schedule=tuple(schedule),
        model=model,
    )
    sys.exit(execute(cfg))


@cli.command("transform-residual")
@click.option("--omega", type=float, default=1.0, show_default=True, help="Oscillator frequency.")
@click.option("--omega0", type=float, default=0.2, show_default=True, help="Level-splitting parameter.")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the table to a file.")
@_basis_options
@click.option("--grid", default=None, help="Coupling grid start:stop:step (default 0.01,0.02,0.04,0.08).")
def transform_residual_command(omega, omega0, fmt, out, nmax, total_nmax, grid):
    """Measure the decoupling-transform remainder and fit its coupling power.

    Exits 1 if the fitted log-log slope leaves [2.7, 3.3]; an empty or
    malformed grid is a usage error (exit 2).
    """
    cfg = RunConfig(
        command="transform-residual",
        params=ModelParams(omega=omega, omega0=omega0),
        basis_spec=_basis_spec(nmax, total_nmax),
        fmt=fmt,
        out=out,
        grid=parse_grid(grid) if grid is not None else None,
    )
    sys.exit(execute(cfg))


@cli.command("pseudoherm")
@_common_options
@_basis_options
@click.option("--grid", default="0.1:0.3:0.1", show_default=True, help="Gamma grid start:stop:step.")
def pseudoherm_command(omega, omega0, fmt, out, nmax, total_nmax, grid):
    """Verify the pseudo-Hermiticity identities of the imaginary-coupling model.

    Reports, per gamma, the two metric residuals, the combined-symmetry
    commutator, the conjugation closure of the spectrum, and the
    parity/time-reversal residual.  Exits 1 if an identity fails.
    """
    cfg = RunConfig(
        command="pseudoherm",
        params=ModelParams(omega=omega, omega0=omega0),
        basis_spec=_basis_spec(nmax, total_nmax),
        fmt=fmt,
        out=out,
        grid=parse_grid(grid),
    )
    sys.exit(execute(cfg))


@cli.command("reality-scan")
@_common_options
@_basis_options
@click.option("--grid", default="0:0.5:0.005", show_default=True, help="Gamma grid start:stop:step.")
@click.option("--k-low", type=click.IntRange(min=1), default=4, show_default=True, help="Number of low-lying levels to watch.")
def reality_scan_command(omega, omega0, fmt, out, nmax, total_nmax, grid, k_low):
    """Scan the imaginary coupling and report where low-lying reality breaks."""
    cfg = RunConfig(
        command="reality-scan",
        params=ModelParams(omega=omega, omega0=omega0),
        basis_spec=_basis_spec(nmax, total_nmax),
        fmt=fmt,
        out=out,
        grid=parse_grid(grid),
        k_low=k_low,
    )
    sys.exit(execute(cfg))


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
