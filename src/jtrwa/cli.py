"""Command-line front end: benchmark tables, spectra, and symmetry studies.

Every command emits one table (CSV by default, JSON/pretty on request)
with a mandatory header row; floats are fixed at 9 significant digits so
identical configurations produce byte-identical output.  Summary lines go
to stderr so CSV on stdout stays clean.  Each command is declared once,
by `command(name, *options)`; its body returns the table as columns, and
`_emit` formats a whole table with one `%`, one spec per column.

Exit codes: 0 success, 1 acceptance-threshold failure or eigensolver
failure, 2 usage error (a problem too large for memory included).
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import replace
from itertools import chain

import click
import numpy as np

from .fockspace import BasisSpec, diagonal_op, make_basis
from .models import (
    ModelParams,
    assemble,
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
    gamma_grids,
    parity_op,
    reality_scan,
)
from .reference import EXACT_TOL, TABLE1_KAPPA2, published_row
from .spectra import (
    benchmark_rwa_energy,
    block_eigenvalues,
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
RESIDUAL_KAPPAS = (0.01, 0.02, 0.04, 0.08)  # default transform-residual coupling grid


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
    if stop == start:  # a step too small to move stop + step / 2 off stop would give arange no point
        return (start,)
    return tuple(float(v) for v in np.arange(start, stop + 0.5 * step, step))


def _schedule(text: str) -> tuple[int, ...]:
    """Parse a total-number cutoff schedule: a grid of integers >= 1."""
    values = parse_grid(text)
    if any(abs(v - round(v)) > 1e-9 or v < 1 for v in values):
        raise click.UsageError("cutoff schedule must consist of integers >= 1")
    return tuple(int(round(v)) for v in values)


def _kappa_grid(text: str | None) -> tuple[float, ...]:
    return parse_grid(text) if text is not None else RESIDUAL_KAPPAS


def _format_value(value) -> str:
    if value is None:
        return ""
    return "%.9g" % value if isinstance(value, float) else str(value)


def _spec(column: list) -> str:
    """The `%` spec of a column: "%.9g" for floats alone, "%d" for ints alone, else "%s" of `_format_value`."""
    types = set(map(type, column))
    if all(issubclass(t, float) for t in types):
        return "%.9g"
    return "%d" if types == {int} else "%s"


def _emit(command: str, columns: dict, summary: dict, exit_code: int, fmt: str, out: str | None) -> int:
    """Write a command's table to stdout or `out` and its summary lines, and pass its exit code on.

    `columns` maps each column name, in table order, to its values (an array or a sequence, all of one length).
    Each column has one spec (`_spec`); the CSV is one `%` of the repeated row format over the cells in row order.
    The summary goes to stderr, except in the pretty format, which appends it to the table.
    """
    notes = [f"{key} = {'none' if value is None else _format_value(value)}" for key, value in summary.items()]
    values = [column.tolist() if isinstance(column, np.ndarray) else list(column) for column in columns.values()]
    count = len(values[0]) if values else 0
    text = ""
    if fmt == "json":
        rows = [dict(zip(columns, row)) for row in zip(*values)]
        text = json.dumps({"command": command, "rows": rows, "summary": summary}, indent=2) + "\n"
    elif count:
        specs = [_spec(column) for column in values]
        cells = [column if spec != "%s" else [_format_value(v) for v in column] for spec, column in zip(specs, values)]
        if fmt == "csv":
            text = ",".join(columns) + "\n" + (",".join(specs) + "\n") * count % tuple(chain.from_iterable(zip(*cells)))
        else:
            table = [[name] + [spec % v for v in column] for name, spec, column in zip(columns, specs, cells)]
            widths = [max(map(len, column)) for column in table]
            lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in zip(*table)] + notes
            text = "".join(line + "\n" for line in lines)
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write the table to {out}: {exc.strerror}") from exc
    else:
        # explicit streams: click.echo's default-stream cache never drops a stream it wraps,
        # so it would keep the captured streams of every in-process (CliRunner) invocation
        click.echo(text, file=click.get_text_stream("stdout"), nl=False)
    if fmt != "pretty":
        click.echo("".join(note + "\n" for note in notes), file=click.get_text_stream("stderr"), nl=False)
    return exit_code


def _model_params(model: str, omega: float, omega0: float, kappa2: float, gamma: float) -> ModelParams:
    """The parameters of `model`; a nonzero coupling that the model does not use is a usage error."""
    unused, value = ("--kappa2", kappa2) if model == "nonhermitian" else ("--gamma", gamma)
    if value != 0.0:
        raise ValueError(f"--model {model} does not use {unused}, got {value}")
    return ModelParams(omega=omega, omega0=omega0, kappa=float(np.sqrt(kappa2)), gamma=gamma)


def _basis(nmax: int, total_nmax: int | None):
    return make_basis(BasisSpec.total_number(total_nmax) if total_nmax is not None else BasisSpec.per_mode(nmax))


class _CommandGroup(click.Group):
    """Reports an eigensolver failure with exit 1, and a ValueError (ResonanceError
    included) or a problem too large for memory as a usage error."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except np.linalg.LinAlgError as exc:
            click.echo(f"eigensolver failed: {exc}", file=click.get_text_stream("stderr"))
            sys.exit(1)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        except MemoryError as exc:
            raise click.UsageError(f"problem too large for memory: {exc}") from exc


@click.group(cls=_CommandGroup)
def cli() -> None:
    """Spectral toolkit for the two-level, two-mode vibronic model."""


def command(name: str, *options):
    """Declare the CLI command `name` with its click options, `--format` and `--out` among them.

    The decorated body takes the other option values and returns (columns, summary, exit code): see `_emit`.
    The process exits only after the body has returned, so the traceback that the exit
    carries holds none of the body's arrays.
    """

    def register(body):
        @functools.wraps(body)
        def run(fmt: str, out: str | None, **values):
            sys.exit(_emit(name, *body(**values), fmt, out))

        for option in reversed(options):
            run = option(run)
        cli.command(name)(run)
        return body

    return register


def _common(omega0: float = 0.0) -> tuple:
    return (
        click.option("--omega", type=float, default=1.0, show_default=True, help="Oscillator frequency."),
        click.option("--omega0", type=float, default=omega0, show_default=True, help="Level-splitting parameter."),
        click.option("--format", "fmt", type=click.Choice(FORMATS), default="csv", show_default=True),
        click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the table to a file."),
    )


def _grid(default: str | None, description: str, parse=parse_grid):
    """The --grid option, its text turned into values by `parse` when click reads it."""
    return click.option(
        "--grid", default=default, show_default=True, help=description, callback=lambda _ctx, _param, text: parse(text)
    )


BASIS = (
    click.option("--nmax", type=int, default=8, show_default=True, help="Per-mode Fock cutoff."),
    click.option("--total-nmax", type=int, default=None, help="Total-number cutoff (overrides --nmax)."),
)
MODEL = click.option("--model", type=click.Choice(sorted(MODELS)), default="full", show_default=True)


@command(
    "table1",
    *_common(),
    click.option("--kappa2", type=NON_NEGATIVE, default=None, help="Single squared coupling instead of the benchmark grid."),
    click.option("--tol", type=POSITIVE, default=1e-8, show_default=True, help="Convergence tolerance of E0 and E1."),
)
def table1_command(omega, omega0, kappa2, tol):
    """Reproduce the published benchmark table and self-check the exact column.

    Emits, per coupling and level, the closed-form eigenvalue, the empirical
    fit that matches the published RWA column, the cutoff-converged exact
    energy, and the published references.  Exits 1 if any exact energy
    misses its published value by more than 5e-3, or if a row's ground or
    first excited energy (E0 or E1) did not converge over the cutoff schedule.
    """
    base = ModelParams(omega=omega, omega0=omega0)
    schedule = total_number_schedule(TABLE1_SCHEDULE)
    benchmark_regime = omega == 1.0 and omega0 == 0.0
    rows = []
    worst_delta = 0.0
    converged = True
    for k2 in [kappa2] if kappa2 is not None else TABLE1_KAPPA2:
        params = replace(base, kappa=float(np.sqrt(k2)))
        spectrum = converge_ground(build_full_jt, params, schedule, tol, levels=2)
        converged &= spectrum.converged
        exact = (spectrum.ground_energy, spectrum.first_excited_energy())
        closed_form = rwa_level_ladder(params, 2)
        published = published_row(k2) if benchmark_regime else None
        for level, name in enumerate(("ground", "excited")):
            pub_rwa = pub_exact = delta = None
            if published is not None:
                pub_rwa, pub_exact = published[2 * level], published[2 * level + 1]
                delta = abs(exact[level] - pub_exact)
                worst_delta = max(worst_delta, delta)
            cells = (closed_form[level], benchmark_rwa_energy(level, params), exact[level], pub_rwa, pub_exact, delta)
            rows.append((float(k2), name, *cells))
    names = "kappa2 level e_rwa_closed_form e_rwa_fit e_exact_computed e_rwa_published e_exact_published abs_delta"
    summary = {"worst_abs_delta": worst_delta, "tolerance": EXACT_TOL, "converged": converged}
    return dict(zip(names.split(), zip(*rows))), summary, int(worst_delta > EXACT_TOL or not converged)


@command(
    "spectrum",
    *_common(),
    *BASIS,
    MODEL,
    click.option("--kappa2", type=NON_NEGATIVE, default=0.0, show_default=True, help="Squared coupling."),
    click.option("--gamma", type=float, default=0.0, show_default=True, help="Imaginary coupling magnitude."),
)
def spectrum_command(omega, omega0, nmax, total_nmax, model, kappa2, gamma):
    """Diagonalize one model Hamiltonian and list its eigenvalues."""
    params = _model_params(model, omega, omega0, kappa2, gamma)
    basis = _basis(nmax, total_nmax)
    levels = diagonalize(MODELS[model](params, basis)).eigenvalues
    columns = {"index": np.arange(len(levels)), "re_energy": levels.real, "im_energy": levels.imag}
    return columns, {"dimension": basis.dimension, "model": model}, 0


@command(
    "converge",
    *_common(),
    MODEL,
    click.option("--kappa2", type=NON_NEGATIVE, default=0.0, show_default=True),
    click.option("--gamma", type=float, default=0.0, show_default=True),
    click.option("--tol", type=POSITIVE, default=1e-8, show_default=True),
    _grid("10:40:10", "Total-number cutoff schedule start:stop:step.", _schedule),
)
def converge_command(omega, omega0, model, kappa2, gamma, tol, grid):
    """Track the ground energy across a total-number cutoff schedule.

    Exits 1 when the schedule ends before the tolerance is reached.
    """
    params = _model_params(model, omega, omega0, kappa2, gamma)
    spectrum = converge_ground(MODELS[model], params, total_number_schedule(grid), tol, levels=1)
    columns = dict(zip(("cutoff", "ground_energy"), zip(*spectrum.cutoff_history)))
    return columns, {"converged": spectrum.converged, "tol": tol}, int(not spectrum.converged)


@command(
    "transform-residual",
    *_common(omega0=0.2),
    *BASIS,
    _grid(None, "Coupling grid start:stop:step (default 0.01,0.02,0.04,0.08).", _kappa_grid),
)
def transform_residual_command(omega, omega0, nmax, total_nmax, grid):
    """Measure the decoupling-transform remainder and fit its coupling power.

    Exits 1 if the fitted log-log slope leaves [2.7, 3.3]; an empty or
    malformed grid is a usage error (exit 2).
    """
    params = ModelParams(omega=omega, omega0=omega0)
    report = residual_study(params, _basis(nmax, total_nmax), grid)
    norms = {"residual_fro": report.residual_norms, "residual_spec": report.residual_norms_spectral}
    in_range = SLOPE_RANGE[0] <= report.fitted_slope <= SLOPE_RANGE[1]
    summary = {"fitted_slope": report.fitted_slope, "slope_range": f"{SLOPE_RANGE[0]}..{SLOPE_RANGE[1]}"}
    return {"kappa": report.kappa_values, **norms}, summary, int(not in_range)


@command("pseudoherm", *_common(), *BASIS, _grid("0.1:0.3:0.1", "Gamma grid start:stop:step."))
def pseudoherm_command(omega, omega0, nmax, total_nmax, grid):
    """Verify the pseudo-Hermiticity identities of the imaginary-coupling model.

    Reports, per gamma, the two metric residuals, the combined-symmetry
    commutator, the conjugation closure of the spectrum, and the
    parity/time-reversal residual.  Exits 1 if an identity fails.
    """
    basis = _basis(nmax, total_nmax)
    sigma0, parity = diagonal_op(basis, basis.spin), parity_op(basis)
    names = "gamma sigma0_residual parity_residual combined_commutator conjugation_closure pt_residual".split()
    columns, failed = {name: [] for name in names}, False
    for gammas in gamma_grids(basis, grid):
        h = assemble(basis, "nonhermitian", ModelParams(omega=omega, omega0=omega0), gammas)
        closure = [conjugation_closure(vals) for vals in block_eigenvalues(h.blocks())]
        checks = (check_pseudo_hermitian(h, sigma0), check_pseudo_hermitian(h, parity), check_combined_symmetry(h))
        failed |= any(v > IDENTITY_TOL for column in checks for v in column) or any(v > CLOSURE_TOL for v in closure)
        for column, values in zip(columns.values(), (gammas.tolist(), *checks, closure, check_pt(h))):
            column.extend(values)
    return columns, {"identity_tol": IDENTITY_TOL, "closure_tol": CLOSURE_TOL}, int(failed)


@command(
    "reality-scan",
    *_common(),
    *BASIS,
    _grid("0:0.5:0.005", "Gamma grid start:stop:step."),
    click.option(
        "--k-low", type=click.IntRange(min=1), default=4, show_default=True, help="Number of low-lying levels to watch."
    ),
)
def reality_scan_command(omega, omega0, nmax, total_nmax, grid, k_low):
    """Scan the imaginary coupling and report where low-lying reality breaks."""
    report = reality_scan(ModelParams(omega=omega, omega0=omega0), _basis(nmax, total_nmax), grid, k=k_low)
    columns = {"gamma": report.gamma_values, "max_imag_lowk": report.max_imag_lowk}
    return columns, {"detected_threshold": report.detected_threshold, "k": report.k}, 0


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
