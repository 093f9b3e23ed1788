"""Benchmark of the `jtrwa` CLI: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload all                  # every workload, untraced
    python3 bench/run.py --workload table1 --seed 3 --seconds 20 --trace 0

Each run is one process with one client in a closed loop: it invokes the
CLI in-process, one operation after another, and checks every output.
`--trace 0` reports the end-to-end metrics (setup_s, wall_s, peak_rss_mb);
`--trace 1` is a separate run that installs span wrappers around each
module's public functions and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  BLAS keeps its default thread count.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS, ops_for_pass

SETUP_IMPORTS = 5  # timed cold imports per run, after one untimed
IMPORTTIME_RUNS = 5
IMPORT_MODULES = (
    "jtrwa", "jtrwa.fockspace", "jtrwa.models", "jtrwa.pseudoherm", "jtrwa.spectra",
    "jtrwa.transforms", "jtrwa.reference", "jtrwa.cli",
    "numpy", "scipy.linalg", "scipy.optimize", "click",
)

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, key in the tracer's per-pass table)
PER_LAYER = {
    "fockspace.make_basis.s": ("s", "fockspace.make_basis.s"),
    "fockspace.boson_ops.s": ("s", "fockspace.boson_ops.s"),
    "fockspace.boson_ops.calls": ("count", "fockspace.boson_ops.calls"),
    "fockspace.pauli_ops.s": ("s", "fockspace.pauli_ops.s"),
    "fockspace.pauli_ops.calls": ("count", "fockspace.pauli_ops.calls"),
    "fockspace.validate.s": ("s", "fockspace.validate.s"),
    "fockspace.validate.calls": ("count", "fockspace.validate.calls"),
    "fockspace.validate.failed": ("count", "fockspace.validate.failed"),
    "models.build.s": ("s", "models.build.s"),
    "models.build.calls": ("count", "models.build.calls"),
    "models.dense_bytes": ("B", "dense_bytes"),
    "spectra.diagonalize.hermitian.s": ("s", "spectra.diagonalize.hermitian.s"),
    "spectra.diagonalize.general.s": ("s", "spectra.diagonalize.general.s"),
    "spectra.converge_ground.cutoffs_tried": ("count", "cutoffs_tried"),
    "transforms.generator.s": ("s", "transforms.generator.s"),
    "transforms.expm.s": ("s", "transforms.expm.s"),
    "transforms.conjugate.s": ("s", "transforms.conjugate.s"),
    "transforms.residual_study.s": ("s", "transforms.residual_study.s"),
    "pseudoherm.metric_check.s": ("s", "pseudoherm.metric_check.s"),
    "pseudoherm.symmetry_check.s": ("s", "pseudoherm.symmetry_check.s"),
    "pseudoherm.closure.s": ("s", "pseudoherm.closure.s"),
    "pseudoherm.reality_scan.s": ("s", "pseudoherm.reality_scan.s"),
    "cli.self.s": ("s", "cli.s"),
    "cli.output_bytes": ("B", "output_bytes"),
    "table1.known_misprint": ("count", "known_misprint"),
}
# Metrics that are not a per-pass median of one table key.
DERIVED = {
    "fockspace.dim_max": "count",
    "fockspace.nnz_max": "count",
    "spectra.diagonalize.calls": "count",
    "spectra.levels_useful_ratio": "ratio",
    "trace.overhead_s": "s",
    **{f"setup.import.{module}.s": "s" for module in IMPORT_MODULES},
}


def import_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


# ------------------------------------------------------------------ set-up


def cold_import_seconds() -> float:
    """Wall time of a fresh interpreter that imports `jtrwa.cli` and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import jtrwa.cli"], env=import_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


def setup_seconds() -> list[float]:
    cold_import_seconds()  # compiles bytecode and warms the file cache
    return [cold_import_seconds() for _ in range(SETUP_IMPORTS)]


def import_breakdown() -> dict[str, float]:
    """Median cumulative import time per module, from `python -X importtime`."""
    samples: dict[str, list[float]] = {module: [] for module in IMPORT_MODULES}
    for _ in range(IMPORTTIME_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import jtrwa.cli"],
            env=import_env(), cwd=ROOT, check=True, capture_output=True, text=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                seen[fields[2].strip()] = int(fields[1]) * 1e-6
        for module in IMPORT_MODULES:
            samples[module].append(seen.get(module, 0.0))
    # the first run compiles bytecode and warms the file cache
    return {module: statistics.median(values[1:]) for module, values in samples.items()}


# ---------------------------------------------------------------- machine


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded into this process, by library file."""
    threads = {}
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[Path(path).name] = getter()
                break
    return threads


def machine_facts() -> dict:
    import numpy

    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo
                if line.startswith("model name")), platform.processor())
    meminfo = Path("/proc/meminfo").read_text().splitlines()
    mem_kb = next(int(line.split()[1]) for line in meminfo if line.startswith("MemTotal"))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "mem_total_mb": round(mem_kb / 1024),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        **{name: metadata.version(name) for name in ("numpy", "scipy", "click")},
    }


# ---------------------------------------------------------------- passes


class Session:
    """One client invoking the CLI in-process and checking every output."""

    def __init__(self, workload: str, seed: int, tracer=None) -> None:
        from click.testing import CliRunner

        import checks
        from jtrwa.cli import cli

        self.workload, self.seed, self.tracer = workload, seed, tracer
        self._runner, self._cli, self._check = CliRunner(), cli, checks.check
        self.attempted = self.failed = self.misprints = 0
        self.problems: list[str] = []
        self._next_pass = 0

    def run_pass(self, traced: bool = False) -> float:
        """Run the next pass; returns its wall time, outputs checked outside it."""
        if traced:
            self.tracer.install()
            try:
                return self._run_pass(self.tracer)
            finally:
                self.tracer.uninstall()
        return self._run_pass(None)

    def _run_pass(self, tracer) -> float:
        pass_index = self._next_pass
        self._next_pass += 1
        wall = 0.0
        for op in ops_for_pass(self.workload, self.seed, pass_index):
            op_id = self.attempted
            start = time.perf_counter()
            if tracer is None:
                result = self._runner.invoke(self._cli, list(op.args), prog_name="jtrwa")
            else:
                with tracer.operation(op_id, pass_index):
                    result = self._runner.invoke(self._cli, list(op.args), prog_name="jtrwa")
            wall += time.perf_counter() - start

            raised = None if isinstance(result.exception, (SystemExit, type(None))) else result.exception
            verdict = self._check(op, result.exit_code, result.stdout, result.stderr, raised)
            self.attempted += 1
            self.misprints += verdict.misprints
            if not verdict.ok:
                self.failed += 1
                self.problems += [f"{' '.join(op.args)}: {p}" for p in verdict.problems]
            if tracer is not None:
                tracer.count("levels_reported", op.levels_reported)
                tracer.count("output_bytes", len(result.stdout_bytes))
                tracer.count("known_misprint", verdict.misprints)
        return wall


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Session, dict, list[str]]:
    setup = setup_seconds()
    session = Session(workload, seed)
    session.run_pass()  # warm-up: lazy imports, allocator and BLAS buffers
    walls, start = [], time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(session.run_pass())
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"setup_s: median of {len(setup)} cold imports of jtrwa.cli",
        f"wall_s: median of {len(walls)} passes, {_quartiles(walls)}",
        "peak_rss_mb: high-water RSS of this process",
    ]
    return session, metrics, notes


def per_layer(workload: str, seed: int, seconds: float) -> tuple[Session, dict, list[str]]:
    """Untraced and traced passes alternate, so drift in the machine's speed
    does not show up as tracing overhead."""
    from spans import Tracer

    imports = import_breakdown()
    tracer = Tracer()
    session = Session(workload, seed, tracer)
    session.run_pass()
    session.run_pass(traced=True)  # traced warm-up; its spans are left out of the metrics
    untraced, traced, start = [], [], time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(session.run_pass())
        traced.append(session.run_pass(traced=True))

    table = tracer.per_pass()
    passes = [table[p] for p in sorted(set(tracer.op_pass.values()))[1:]]

    def median_of(key: str) -> float:
        return statistics.median(row.get(key, 0.0) for row in passes)

    metrics = {name: median_of(key) for name, (_, key) in PER_LAYER.items()}
    reported = sum(row.get("levels_reported", 0.0) for row in passes)
    computed = sum(row.get("levels_computed", 0.0) for row in passes)
    metrics.update({
        "fockspace.dim_max": tracer.maxima["fockspace.dim_max"],
        "fockspace.nnz_max": tracer.maxima["fockspace.nnz_max"],
        "spectra.diagonalize.calls": median_of("spectra.diagonalize.hermitian.calls")
        + median_of("spectra.diagonalize.general.calls"),
        "spectra.levels_useful_ratio": reported / computed if computed else 0.0,
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        **{f"setup.import.{module}.s": value for module, value in imports.items()},
    })
    spans_path = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json"
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": tracer.spans}))
    notes = [
        f"per-layer values: median over {len(passes)} traced passes of the per-pass sum",
        f"untraced wall_s median {statistics.median(untraced):.4f} s over {len(untraced)} passes",
        "models.dense_bytes is computed (dim^2 * 16 B per built operator), not measured",
        f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
    ]
    return session, metrics, notes


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "one sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.4f}..{q3:.4f} s"


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER[name][0] if name in PER_LAYER else DERIVED[name]


# ------------------------------------------------------------------ main


def run_one(args) -> int:
    measure = per_layer if args.trace else end_to_end
    session, metrics, notes = measure(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit_of(name)}")
    share = session.failed / session.attempted
    print(f"  {'ops_failed':<40} {share:>14.6g} share ({session.failed} of {session.attempted})")
    print(f"  table1.known_misprint total {session.misprints}")
    for note in notes:
        print(f"  # {note}")
    for problem in session.problems[:20]:
        print(f"  FAILED {problem}")
    print("machine " + json.dumps(machine_facts()))
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, then one table of the results."""
    rows, ok = [], True
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {proc.returncode})")
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"]
        for name, metric in result["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
        rows.append((workload, "ops_failed", result["failed"] / result["attempted"],
                     f"share of {result['attempted']}"))
    print()
    for workload, name, value, unit in rows:
        print(f"{workload:<16} {name:<40} {value:>14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jtrwa" / "__init__.py").is_file():
        print(f"bench: no jtrwa sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
