import gc
import json
import os
import resource
import subprocess
import sys
import weakref

import click
import numpy as np
import pytest
from click.testing import CliRunner

from jtrwa import (
    BasisSpec,
    ModelParams,
    build_nonhermitian,
    check_combined_symmetry,
    check_pseudo_hermitian,
    check_pt,
    conjugation_closure,
    diagonalize,
    make_basis,
    models,
    parity_op,
    pseudoherm,
    reality_scan,
    spectra,
)
from jtrwa import cli as cli_module
from jtrwa.cli import MAX_GRID_POINTS, cli, parse_grid
from jtrwa.fockspace import diagonal_op
from jtrwa.models import assemble, assemble_blocks


def run_cli(args, out=None):
    runner = CliRunner()
    argv = list(args)
    if out is not None:
        argv += ["--out", str(out)]
    return runner.invoke(cli, argv, catch_exceptions=False)


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "jtrwa", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "vibronic" in proc.stdout


def test_import_leaves_scipy_optimize_unloaded():
    # the runtime is numpy and click (tests/test_structure.py); scipy's assignment solver is a test oracle
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, jtrwa.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_import_leaves_scipy_unloaded():
    # no module of the package imports scipy, at the top or inside a function
    code = "import sys, jtrwa.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


def test_transform_path_leaves_scipy_unloaded():
    # the transforms exponentiate and take norms with numpy's LAPACK alone, and the
    # conjugation closure of pseudoherm pairs levels in order, without an assignment solver
    code = (
        "import sys\n"
        "from jtrwa import BasisSpec, make_basis, mode_rotation\n"
        "from jtrwa.cli import cli\n"
        "mode_rotation(make_basis(BasisSpec.total_number(6)))\n"
        "for command in ('transform-residual', 'pseudoherm'):\n"
        "    try:\n"
        "        cli([command, '--out', sys.argv[1]])\n"
        "    except SystemExit as done:\n"
        "        assert done.code == 0, (command, done.code)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, os.devnull], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_reality_scan_header_and_zero_row(tmp_path):
    out = tmp_path / "scan.csv"
    result = run_cli(["reality-scan", "--grid", "0:0.1:0.05", "--nmax", "4"], out)
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "gamma,max_imag_lowk"
    gamma, max_imag = lines[1].split(",")
    assert float(gamma) == 0.0
    assert float(max_imag) <= 1e-12


def test_reality_scan_threshold_summary(tmp_path):
    out = tmp_path / "scan.csv"
    result = run_cli(
        ["reality-scan", "--grid", "0.30:0.40:0.005", "--nmax", "6", "--k-low", "2"], out
    )
    assert result.exit_code == 0
    assert "detected_threshold = 0.355" in result.output


def test_reality_scan_is_byte_deterministic(tmp_path):
    args = ["reality-scan", "--grid", "0:0.2:0.01", "--nmax", "4"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(args, first)
    run_cli(args, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("grid, last, threshold", [
    ("0:1e200:1e199", "1e+200,4e+200", "1e+199"),
    ("0:1e300:1e299", "1e+300,4e+300", "1e+299"),
])
def test_reality_scan_stays_finite_at_huge_gamma(grid, last, threshold):
    # the closed-form 2x2 solve squares entries of order gamma; scaled, it neither overflows nor warns
    result = run_cli(["reality-scan", "--grid", grid])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[-1] == last
    assert f"detected_threshold = {threshold}" in result.stderr


def test_table1_json_keeps_apart_closed_form_levels_that_print_alike():
    # at 9 significant digits the CSV prints both closed-form levels as -999999.5; json carries every digit
    csv = run_cli(["table1", "--kappa2", "1e6"]).stdout.splitlines()
    assert [line.split(",")[2] for line in csv[1:]] == ["-999999.5", "-999999.5"]
    rows = json.loads(run_cli(["table1", "--kappa2", "1e6", "--format", "json"]).stdout)["rows"]
    assert [row["e_rwa_closed_form"] for row in rows] == [-999999.5, -999999.4999985001]


def test_transform_residual_defaults_pass_slope_gate(tmp_path):
    out = tmp_path / "residual.csv"
    result = run_cli(["transform-residual"], out)
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kappa,residual_fro,residual_spec"
    kappas = [float(line.split(",")[0]) for line in lines[1:]]
    assert kappas == [0.01, 0.02, 0.04, 0.08]
    assert "fitted_slope" in result.output


def test_in_process_runs_release_their_captured_streams(monkeypatch):
    # every CliRunner invocation captures output in fresh stream objects; writing
    # through click's cached default streams kept each of them alive for good
    streams = []
    emit = cli_module._emit

    def recording(*args):
        streams.extend(weakref.ref(stream) for stream in (sys.stdout, sys.stderr))
        return emit(*args)

    monkeypatch.setattr(cli_module, "_emit", recording)
    for _ in range(3):
        assert run_cli(["spectrum", "--nmax", "1"]).exit_code == 0
    gc.collect()
    assert len(streams) == 6 and all(ref() is None for ref in streams)


def test_transform_residual_default_grid_passes_at_omega0_one():
    # the guard bounds kappa by the spin-flip detunings omega +/- 2 omega0 (here 3 and -1)
    result = run_cli(["transform-residual", "--omega0", "1.0"])
    assert result.exit_code == 0
    assert "fitted_slope" in result.output


def test_transform_residual_empty_grid_is_usage_error():
    result = run_cli(["transform-residual", "--grid", "0.5:0.1:0.1"])
    assert result.exit_code == 2


def test_transform_residual_one_point_grid_is_usage_error():
    # a slope needs two couplings; one point used to print a RankWarning and exit 1
    result = run_cli(["transform-residual", "--grid", "0.01:0.01:0.01"])
    assert result.exit_code == 2
    assert result.stderr == "Error: kappa grid needs two or more couplings for a slope, got 1\n"
    assert result.stdout == ""


def test_transform_residual_malformed_grid_is_usage_error():
    result = run_cli(["transform-residual", "--grid", "nope"])
    assert result.exit_code == 2


def test_transform_residual_without_interior_is_usage_error():
    # a per-mode cutoff of 1 leaves no state 2 layers inside, where the remainder is measured
    result = run_cli(["transform-residual", "--nmax", "1"])
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("Error: ")
    assert result.stdout == ""


def test_reality_scan_k_beyond_the_basis_is_usage_error():
    # the per-mode cutoff 1 basis has 8 levels to watch
    result = run_cli(["reality-scan", "--nmax", "1", "--k-low", "100"])
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("Error: ")
    assert result.stdout == ""
    assert run_cli(["reality-scan", "--nmax", "1", "--k-low", "8", "--grid", "0:0.1:0.1"]).exit_code == 0


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--model", "full", "--gamma", "0.3"],
        ["spectrum", "--model", "nonhermitian", "--kappa2", "0.3"],
        ["converge", "--model", "rwa", "--gamma", "0.3"],
        ["converge", "--model", "nonhermitian", "--kappa2", "0.3"],
    ],
)
def test_unused_coupling_is_usage_error(args):
    result = run_cli(args)
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1 and "does not use" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--omega", "1e308"],
        ["table1", "--omega", "1e308", "--kappa2", "0.5"],
        ["reality-scan", "--omega", "1e308"],
        ["reality-scan", "--omega", "1e307", "--nmax", "9"],  # only the states of n1 + n2 >= 17, in no solved block
        ["pseudoherm", "--omega", "1e308"],
        ["transform-residual", "--omega", "1e308", "--omega0", "0"],
    ],
)
def test_overflowing_magnitudes_are_usage_errors(args):
    # the operator entries overflow to inf: one line, exit 2, no warning
    result = run_cli(args)
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("Error: ")
    assert "not finite" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["--omega", "1e-200"],  # omega^2 underflows to 0
        ["--omega", "1e300"],
        ["--omega", "1e160", "--kappa2", "0.5"],
        ["--omega0", "1e300"],
        ["--omega", "1e146", "--kappa2", "1e300"],  # 8 kappa^2 (n + 1) overflows in a shell near j = 1e8
    ],
)
def test_table1_closed_forms_out_of_range_are_usage_errors(args):
    # the operators stay finite; the closed-form ladder squares omega, omega - 2 omega0 and kappa
    result = run_cli(["table1", *args])
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("Error: the closed-form ")
    assert result.stdout == ""


def test_transform_residual_norms_stay_finite_where_only_their_squares_overflow():
    # every remainder entry is finite (about 1e186); each norm is taken on its column scaled to a largest |entry| of 1
    result = run_cli(["transform-residual", "--omega", "1e200", "--omega0", "0"])
    assert result.exit_code == 1  # the remainder no longer falls with the coupling: the slope is about 0
    rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
    assert len(rows) == 4 and all(1e186 < float(fro) < 1e188 for _, fro, _ in rows)
    assert abs(float(result.stderr.splitlines()[0].split(" = ")[1])) < 1e-6


def test_converge_at_an_absurd_coupling_reads_as_before():
    # diagonalize(..., levels=1) solves a few blocks; the ground energies are those of the whole spectrum
    result = run_cli(["converge", "--kappa2", "1e200"])
    assert result.exit_code == 1
    assert result.stdout == (
        "cutoff,ground_energy\n10,-3.77625516e+100\n20,-5.62874773e+100\n30,-7.06018567e+100\n40,-8.26904092e+100\n"
    )
    assert result.stderr == "converged = False\ntol = 1e-08\n"


def test_table1_zero_coupling_row(tmp_path):
    out = tmp_path / "t.csv"
    result = run_cli(["table1", "--kappa2", "0"], out)
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:5] == [
        "kappa2",
        "level",
        "e_rwa_closed_form",
        "e_rwa_fit",
        "e_exact_computed",
    ]
    ground = dict(zip(header, lines[1].split(",")))
    assert ground["level"] == "ground"
    assert float(ground["e_exact_computed"]) == 1.0
    assert ground["e_exact_published"] == ""  # no published row for kappa2 = 0


def test_table1_matching_row_exits_zero(tmp_path):
    out = tmp_path / "t.csv"
    result = run_cli(["table1", "--kappa2", "0.5"], out)
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    ground = dict(zip(header, lines[1].split(",")))
    excited = dict(zip(header, lines[2].split(",")))
    assert abs(float(ground["e_exact_computed"]) - 0.57798) <= 5e-3
    assert abs(float(excited["e_exact_computed"]) - 1.31592) <= 5e-3
    assert float(ground["abs_delta"]) <= 5e-3


def test_table1_flags_the_misprinted_benchmark_entry(tmp_path):
    # the published excited energy at kappa2 = 0.4 is inconsistent with the
    # model; the self-check notices and exits 1
    out = tmp_path / "t.csv"
    result = run_cli(["table1", "--kappa2", "0.4"], out)
    assert result.exit_code == 1
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    excited = dict(zip(header, lines[2].split(",")))
    assert float(excited["abs_delta"]) > 5e-3
    assert abs(float(excited["e_exact_computed"]) - 1.42602) <= 5e-3
    assert excited["e_rwa_published"] == "1.51676"
    assert excited["e_exact_published"] == "1.36373"


@pytest.mark.parametrize("kappa2, code", [("25", 1), ("0.5", 0)])
def test_table1_exits_one_when_a_row_has_not_converged(kappa2, code):
    # at kappa2 = 25 the ground energy still moves 5e-5 between the last two cutoffs, 30 and 40
    result = run_cli(["table1", "--kappa2", kappa2])
    assert result.exit_code == code
    assert f"converged = {code == 0}" in result.stderr


def test_table1_negative_kappa2_is_usage_error():
    result = run_cli(["table1", "--kappa2", "-0.3"])
    assert result.exit_code == 2


def test_second_order_spectrum_on_total_number_basis():
    result = run_cli(["spectrum", "--model", "second-order", "--total-nmax", "30", "--kappa2", "0.3"])
    assert result.exit_code == 0
    assert "dimension = 992" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--kappa2", "nan"],
        ["spectrum", "--omega", "inf"],
        ["spectrum", "--model", "nonhermitian", "--gamma", "nan"],
        ["table1", "--kappa2", "inf"],
        ["reality-scan", "--grid", "0:inf:0.1"],
        ["pseudoherm", "--grid", "nan:0.3:0.1"],
        ["converge", "--grid", "10:40:nan"],
        ["converge", "--tol", "nan"],
    ],
)
def test_non_finite_input_is_usage_error(args):
    result = run_cli(args)
    assert result.exit_code == 2
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "finite" in errors[0]


def test_grid_length_is_capped():
    assert len(parse_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS
    with pytest.raises(click.UsageError, match="more than"):
        parse_grid(f"1:{MAX_GRID_POINTS + 1}:1")
    with pytest.raises(click.UsageError, match="more than"):
        parse_grid("0:1:1e-300")


@pytest.mark.parametrize(
    "args",
    [
        ["reality-scan", "--k-low", "0"],
        ["converge", "--tol", "0"],
        ["spectrum", "--kappa2", "-1"],
        ["pseudoherm", "--grid", "-0.1:0.1:0.1"],
    ],
)
def test_out_of_range_option_is_usage_error(args):
    result = run_cli(args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert len([line for line in result.stderr.splitlines() if line.startswith("Error:")]) == 1


def test_oversized_grid_is_usage_error():
    result = run_cli(["reality-scan", "--grid", "0:1e12:1"])
    assert result.exit_code == 2
    assert "more than" in result.stderr


def test_spectrum_lists_sorted_eigenvalues(tmp_path):
    out = tmp_path / "s.csv"
    result = run_cli(
        ["spectrum", "--model", "rotated", "--kappa2", "0.2", "--nmax", "3"], out
    )
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,re_energy,im_energy"
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    assert energies == sorted(energies)
    assert len(energies) == 2 * 16


def test_converge_emits_history_and_converges(tmp_path):
    out = tmp_path / "c.csv"
    result = run_cli(
        ["converge", "--kappa2", "0.3", "--grid", "4:12:4", "--tol", "1e-6"], out
    )
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "cutoff,ground_energy"
    assert "converged = True" in result.output


def test_converge_reports_failure_on_short_schedule(tmp_path):
    out = tmp_path / "c.csv"
    result = run_cli(
        ["converge", "--kappa2", "0.9", "--grid", "2:3:1", "--tol", "1e-12"], out
    )
    assert result.exit_code == 1
    assert "converged = False" in result.output


def test_converge_one_cutoff_schedule_is_usage_error():
    # one cutoff cannot converge; it used to exit 1 with converged = False
    result = run_cli(["converge", "--grid", "10:10:10"])
    assert result.exit_code == 2
    assert result.stderr == "Error: cutoff schedule needs two or more cutoffs, got 1\n"
    assert result.stdout == ""


def test_converge_rejects_fractional_schedule():
    result = run_cli(["converge", "--grid", "2.5:4:1"])
    assert result.exit_code == 2


def test_pseudoherm_identities_hold(tmp_path):
    out = tmp_path / "p.csv"
    result = run_cli(["pseudoherm", "--nmax", "5"], out)
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "gamma,sigma0_residual,parity_residual,combined_commutator,"
        "conjugation_closure,pt_residual"
    )
    assert len(lines) == 4  # header + gamma in {0.1, 0.2, 0.3}
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")]
        assert values[1] <= 1e-12 and values[2] <= 1e-12 and values[3] <= 1e-12
        assert values[4] <= 1e-10


def _exceptional_points(omega0, nmax):
    # gamma where the 2x2 block of n1 is defective: both solvers err by sqrt(eps) there
    return abs(1.0 - 2.0 * omega0) / np.sqrt(8.0 * (np.arange(nmax + 1) + 1))


@pytest.mark.parametrize("omega0, nmax, total_nmax, grid", [
    (0.0, 5, None, "0.1:0.3:0.1"),
    (0.2, 8, None, "0:0.6:0.01"),
    (-0.3, 8, 20, "0:0.5:0.01"),
    (0.7, 8, 20, "0:0.5:0.01"),
])
def test_pseudoherm_rows_equal_the_per_gamma_path(omega0, nmax, total_nmax, grid):
    # reference: one builder call, one diagonalize and the scalar checks per gamma
    basis = make_basis(BasisSpec.total_number(total_nmax) if total_nmax else BasisSpec.per_mode(nmax))
    eps = _exceptional_points(omega0, total_nmax or nmax)
    gammas = tuple(g for g in parse_grid(grid) if np.all(np.abs(g - eps) >= 1e-3 * eps))
    columns, _, code = cli_module.pseudoherm_command(1.0, omega0, nmax, total_nmax, gammas)
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    assert code == 0 and len(rows) == len(gammas)
    sigma0, parity = diagonal_op(basis, basis.spin), parity_op(basis)
    for row, gamma in zip(rows, gammas):
        h = build_nonhermitian(ModelParams(omega=1.0, omega0=omega0, gamma=gamma), basis)
        expected = {
            "gamma": gamma,
            "sigma0_residual": check_pseudo_hermitian(h, sigma0),
            "parity_residual": check_pseudo_hermitian(h, parity),
            "combined_commutator": check_combined_symmetry(h),
            "conjugation_closure": conjugation_closure(diagonalize(h).eigenvalues),
            "pt_residual": check_pt(h),
        }
        assert list(row) == list(expected)
        assert all(abs(row[key] - value) <= 1e-12 * max(1.0, abs(value)) for key, value in expected.items()), row
        assert row["conjugation_closure"] <= 1e-10


def test_gamma_commands_in_several_passes_equal_one_pass(monkeypatch):
    basis, grid = make_basis(BasisSpec.per_mode(4)), parse_grid("0:0.5:0.01")  # 51 points
    params = ModelParams(omega=1.0, omega0=0.1)
    whole = cli_module.pseudoherm_command(1.0, 0.1, 4, None, grid), reality_scan(params, basis, grid)
    passes = []

    def counted(function, is_whole):
        def count(*args):
            passes.append((args[3].size, is_whole))
            return function(*args)
        return count

    # where each command looks its assembly up: pseudoherm's body in cli, reality_scan in pseudoherm
    monkeypatch.setattr(cli_module, "assemble", counted(assemble, True))
    monkeypatch.setattr(pseudoherm, "assemble_blocks", counted(assemble_blocks, False))
    monkeypatch.setattr(pseudoherm, "GRID_STATES", 5 * basis.dimension)  # passes of five grid points
    for module in (cli_module, spectra, models):  # neither command builds or diagonalizes one operator per gamma
        for name in ("build_nonhermitian", "diagonalize"):
            monkeypatch.setattr(module, name, _raise(AssertionError(name)), raising=False)
    assert (cli_module.pseudoherm_command(1.0, 0.1, 4, None, grid), reality_scan(params, basis, grid)) == whole
    # pseudoherm assembles each pass whole; reality-scan assembles some blocks of a whole pass once per round, in one
    # or two rounds per pass: 19 calls for its 11 passes
    assert passes == [(5, True)] * 10 + [(1, True)] + [(5, False)] * 17 + [(1, False)] * 2


def test_json_format_mirrors_csv_fields(tmp_path):
    out = tmp_path / "scan.json"
    result = run_cli(
        ["reality-scan", "--grid", "0:0.1:0.05", "--nmax", "4", "--format", "json"], out
    )
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "reality-scan"
    assert set(payload["rows"][0]) == {"gamma", "max_imag_lowk"}
    assert "detected_threshold" in payload["summary"]


def test_pretty_format_renders_table():
    result = run_cli(["table1", "--kappa2", "0", "--format", "pretty"])
    assert result.exit_code == 0
    assert "e_exact_computed" in result.output
    assert "worst_abs_delta" in result.output


def _raise(exc):
    def fail(*_args, **_kwargs):
        raise exc

    return fail


@pytest.mark.parametrize(
    "target, args",
    [("diagonalize", ["spectrum", "--nmax", "2"]), ("reality_scan", ["reality-scan", "--nmax", "2"])],
)
def test_eigensolver_failure_exits_one(monkeypatch, target, args):
    monkeypatch.setattr(f"jtrwa.cli.{target}", _raise(np.linalg.LinAlgError("Eigenvalues did not converge")))
    result = run_cli(args)
    assert result.exit_code == 1
    assert result.stderr == "eigensolver failed: Eigenvalues did not converge\n"
    assert result.stdout == ""


def test_out_of_memory_is_usage_error(monkeypatch):
    monkeypatch.setitem(cli_module.MODELS, "full", _raise(MemoryError("Unable to allocate 14.6 TiB")))
    result = run_cli(["spectrum", "--nmax", "2"])
    assert result.exit_code == 2
    assert result.stderr == "Error: problem too large for memory: Unable to allocate 14.6 TiB\n"
    assert "Traceback" not in result.output


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def test_absurd_cutoff_fails_fast_with_a_reason():
    # 3 GB of address space for the child only; the cutoff's basis alone would need over 100 GB.
    # One BLAS thread, so that the thread buffers reserved at import fit the limit on any core count.
    proc = subprocess.run(
        [sys.executable, "-m", "jtrwa", "spectrum", "--nmax", "100000"],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    prefix, _, reason = proc.stderr.partition("problem too large for memory:")
    assert prefix == "Error: " and reason.strip()


def _peak_rss_kib(*args):
    """Exit code and peak RSS (KiB) of `python -m jtrwa *args` run in a child of a measuring child."""
    measure = (
        "import resource, subprocess, sys; "
        "code = subprocess.run(sys.argv[1:]).returncode; "
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss); sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", measure, sys.executable, "-m", "jtrwa", *args], capture_output=True, text=True,
        timeout=120,
    )
    return proc.returncode, int(proc.stdout)


def test_total_cutoff_200_is_solved_in_sectors_within_150_mb(tmp_path):
    # dim 40 602: the dense matrix alone would need 26 GB; the sectors hold at most 201 states
    out = tmp_path / "spectrum.csv"
    code, peak = _peak_rss_kib("spectrum", "--total-nmax", "200", "--kappa2", "0.9", "--out", str(out))
    assert code == 0
    assert peak <= 150 * 1024
    lines = out.read_text().splitlines()
    assert len(lines) == 40_603
    assert lines[1].split(",")[1] == "0.29856252"  # table1's converged ground energy at kappa^2 = 0.9


def test_pseudoherm_at_total_cutoff_200_checks_pt_on_triplets_within_150_mb(tmp_path):
    # the PT residual is taken on triplets; a dense dim x dim image would need 26 GB
    out = tmp_path / "pseudoherm.csv"
    code, peak = _peak_rss_kib(
        "pseudoherm", "--total-nmax", "200", "--omega0", "0.1", "--grid", "0.1:0.3:0.1", "--out", str(out)
    )
    assert code == 0
    assert peak <= 150 * 1024
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    column = lines[0].split(",").index("pt_residual")
    for line in lines[1:]:
        assert float(line.split(",")[column]) == pytest.approx(2 * 0.1 * np.sqrt(40_602), rel=1e-9, abs=0.0)


def test_reality_scan_at_total_cutoff_200_solves_its_grid_within_150_mb(tmp_path):
    # the gamma grid is solved a few rows at a time; all 101 rows at once would hold about 0.5 GB
    out = tmp_path / "scan.csv"
    code, peak = _peak_rss_kib("reality-scan", "--total-nmax", "200", "--out", str(out))
    assert code == 0
    assert peak <= 150 * 1024
    assert len(out.read_text().splitlines()) == 102


def test_transform_residual_at_total_cutoff_40_stays_on_triplets_within_150_mb(tmp_path):
    # dim 1722: the transform runs one pair of generator blocks at a time; dense dim x dim products peaked at 230 MB
    out = tmp_path / "residual.json"
    code, peak = _peak_rss_kib("transform-residual", "--total-nmax", "40", "--format", "json", "--out", str(out))
    assert code == 0
    assert peak <= 150 * 1024
    report = json.loads(out.read_text())
    assert len(report["rows"]) == 4
    assert 2.7 <= report["summary"]["fitted_slope"] <= 3.3


def test_out_into_a_missing_directory_is_usage_error(tmp_path):
    out = tmp_path / "missing" / "spectrum.csv"
    result = run_cli(["spectrum", "--nmax", "2"], out=out)
    assert result.exit_code == 2
    assert result.stderr == f"Error: cannot write the table to {out}: No such file or directory\n"
    assert result.stdout == ""
