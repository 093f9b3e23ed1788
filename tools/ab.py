"""A/B timing of two source trees of jtrwa on the benchmark's own operations, judged by the benchmark's claim rule.

    python3 tools/ab.py --base HEAD~1 --workload table1
    python3 tools/ab.py --base HEAD~1 --workload all --out BENCH_$(git rev-parse --short HEAD).json

The base revision's `src/jtrwa` is exported with `git archive` to a
temporary directory.  A pass is the list of operations that
`bench/workloads.py` draws for (workload, seed, pass index), invoked through
click's `CliRunner` as `bench/run.py` invokes them, and timed the same way:
the sum of the operations' wall times.  A round first times each tree's
first pass (pass index 0) in a fresh spawned process that loads only that
tree, the head first in every other round, so that its one-time costs
(structure builds, lazy imports) show and the other tree's cannot hide
them.  Then it runs in one fresh spawned process, which loads the base and
this checkout's `src/jtrwa` under distinct package names (the package
imports itself by relative imports only), the head first in every other
round, so that neither tree keeps the same place in a process from round to
round.  There, after an untimed warm-up pass each, each pass runs on both
trees, one after the other, the tree that goes first alternating from pass
to pass, each after an untimed full garbage collection.  Every operation's
exit code, stdout and stderr must be identical between the two trees, else
the script stops with exit 1.

A round's first passes are one pair of runs ("first pass"), its median
pass of each tree another, and so is its median wall time of each command
within a pass (its operations summed; the two `spectrum` models of
`large-cutoff` apart), so that a change to one command shows apart from the
others.  Over the rounds, `verdict` applies
the benchmark's claim rule to the pairs: faster or slower only with at
least MIN_ROUNDS pairs, nine tenths of them won by one side (ties count for
neither) and the medians apart by more than the interquartile range of the
base's round medians, else unresolved.  It prints each round and then the
verdicts, and writes a JSON file (`--out`) with those numbers, both
revisions, the host, the BLAS threads, the library versions and each tree's
`src_lines` (the total of `wc -l src/jtrwa/*.py`), which it also prints.
BLAS keeps its default thread count, as in the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from io import BytesIO
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import machine_facts  # noqa: E402  (bench/ is on the path only from here on)
from workloads import WORKLOADS, ops_for_pass  # noqa: E402

MIN_ROUNDS = 10  # pairs of runs the claim rule needs


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export_package(rev: str, into: Path) -> Path:
    """`src/jtrwa` of revision `rev`, written under `into`; returns the package directory."""
    archive = subprocess.run(["git", "archive", rev, "src/jtrwa"], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src" / "jtrwa"


def src_lines(package: Path) -> int:
    """The line count of the package's modules, as `wc -l <package>/*.py` totals it (newlines)."""
    return sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))


def load_cli(name: str, package: Path):
    """The click group `cli` of the package in directory `package`, imported as the top-level package `name`."""
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli").cli


class Tree:
    """One loaded copy of the package."""

    def __init__(self, name: str, package: Path) -> None:
        from click.testing import CliRunner

        self.cli, self.runner = load_cli(name, package), CliRunner()

    def run_pass(self, ops) -> tuple[dict[str, float], list[tuple]]:
        """Wall time of the pass per command (the sum over its operations of that command, told apart by model where
        the workload gives one) and each operation's (exit code, stdout, stderr, exception raised)."""
        walls, outputs = {}, []
        for op in ops:
            start = time.perf_counter()
            result = self.runner.invoke(self.cli, list(op.args), prog_name="jtrwa")
            name = f"{op.command} {op.params.get('model', '')}".strip()
            walls[name] = walls.get(name, 0.0) + time.perf_counter() - start
            raised = None if isinstance(result.exception, (SystemExit, type(None))) else repr(result.exception)
            outputs.append((result.exit_code, result.stdout, result.stderr, raised))
        return walls, outputs


def spawned(function, *args):
    """function(*args) in a fresh spawned process of its own."""
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        return pool.submit(function, *args).result()


def same_outputs(ops, base: list[tuple], head: list[tuple]) -> None:
    """Stop the script unless both trees gave every operation the same outputs."""
    for op, one, other in zip(ops, base, head, strict=True):
        if one != other:
            raise SystemExit(f"ab: outputs differ on `jtrwa {' '.join(op.args)}`:\n  base {one!r}\n  head {other!r}")


def first_pass(at: int, package: Path, workload: str, seed: int) -> tuple[float, list[tuple]]:
    """In a process that loads only this tree (base 0, head 1): its first pass, one-time costs included, in ms, and
    the operations' outputs."""
    tree = Tree(("jtrwa_base", "jtrwa_head")[at], package)
    gc.collect()
    walls, outputs = tree.run_pass(ops_for_pass(workload, seed, 0))
    return 1e3 * sum(walls.values()), outputs


def run_round(packages: tuple[Path, Path], head_first: bool, workload: str, seed: int, first: int, passes: int):
    """One round in this process: the trees (base, head) loaded, the head first if `head_first`, and after a warm-up
    pass each, passes `first`, `first` + 1, ... run on both; per tree the median pass and each command's median (ms)."""
    trees = {at: Tree(("jtrwa_base", "jtrwa_head")[at], packages[at]) for at in ((1, 0) if head_first else (0, 1))}
    for at in trees:  # warm-up: lazy imports, caches, allocator and BLAS buffers
        trees[at].run_pass(ops_for_pass(workload, seed, 0))
    walls = ([], [])
    for index in range(first, first + passes):
        ops, outputs = ops_for_pass(workload, seed, index), [None, None]
        for at in (0, 1) if index % 2 == 0 else (1, 0):
            gc.collect()  # else the collector, counting allocations, runs in one tree's passes more than the other's
            wall, outputs[at] = trees[at].run_pass(ops)
            walls[at].append({"pass": sum(wall.values()), **wall})
        same_outputs(ops, *outputs)
    return {name: [1e3 * statistics.median(p[name] for p in tree) for tree in walls] for name in walls[0][0]}


def verdict(base: list[float], head: list[float]) -> str:
    """The benchmark's claim rule on paired runs: "faster" when there are MIN_ROUNDS pairs or more, the head wins nine
    tenths of them or more (a tie counts for neither side) and its median lies below the base's by more than the
    interquartile range of the base's runs; "slower" in the mirror case; else "unresolved"."""
    if len(base) < MIN_ROUNDS:
        return "unresolved"
    q1, _, q3 = statistics.quantiles(base, n=4)
    gap = statistics.median(base) - statistics.median(head)
    for name, sign in (("faster", 1.0), ("slower", -1.0)):
        if 10 * sum(sign * (b - h) > 0 for b, h in zip(base, head)) >= 9 * len(base) and sign * gap > q3 - q1:
            return name
    return "unresolved"


def compare(workload: str, seed: int, rounds: int, passes: int, packages: tuple[Path, Path]) -> dict:
    """`rounds` rounds, each of a first pass per tree in a process of its own and then `passes` alternating passes in a
    fresh spawned process; per name (the first pass, the pass, each command) the round's times of each tree (ms, a
    median but for the first pass), the rounds won and lost by the head, and the verdict."""
    medians = []
    for r in range(rounds):
        firsts = {at: spawned(first_pass, at, packages[at], workload, seed) for at in ((1, 0) if r % 2 else (0, 1))}
        same_outputs(ops_for_pass(workload, seed, 0), firsts[0][1], firsts[1][1])
        medians.append({"first pass": [firsts[0][0], firsts[1][0]],
                        **spawned(run_round, packages, r % 2 == 1, workload, seed, 1 + r * passes, passes)})
        for name, (base, head) in medians[-1].items():
            print(f"{workload:<16} round {r + 1:<2} {name:<22} base {base:8.3f} ms  head {head:8.3f} ms  "
                  f"{100 * (head / base - 1.0):+6.1f} %", flush=True)
    results = {}
    for name in medians[0]:
        base, head = ([m[name][at] for m in medians] for at in (0, 1))
        won, lost = sum(h < b for b, h in zip(base, head)), sum(h > b for b, h in zip(base, head))
        change = statistics.median(head) / statistics.median(base) - 1.0
        results[name] = {"base_ms": base, "head_ms": head, "change": change, "won": won, "lost": lost,
                         "verdict": verdict(base, head)}
        print(f"{workload:<16} {name:<22} medians {100 * change:+6.1f} %, head won {won}/{rounds} rounds, lost "
              f"{lost}: {results[name]['verdict']}", flush=True)
    return {"workload": workload, "seed": seed, "passes": passes, "results": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", default="HEAD", help="git revision to compare the working tree against")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="table1")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=MIN_ROUNDS, help="rounds, each in a fresh process")
    parser.add_argument("--passes", type=int, default=20, help="alternating passes per round")
    parser.add_argument("--out", type=Path, default=None, help="JSON file to write (default: none)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes take counts >= 1")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    with tempfile.TemporaryDirectory(prefix="jtrwa-ab-") as scratch:
        packages = export_package(args.base, Path(scratch)), ROOT / "src" / "jtrwa"
        lines = [src_lines(package) for package in packages]
        print(f"src lines: base {lines[0]}  head {lines[1]}  ({lines[1] - lines[0]:+d})", flush=True)
        results = [compare(w, args.seed, args.rounds, args.passes, packages) for w in workloads]
    report = {
        "tool": "tools/ab.py",
        "base": {"rev": args.base, "sha": git("rev-parse", "--short", args.base), "src_lines": lines[0]},
        "head": {"sha": git("rev-parse", "--short", "HEAD"), "src_dirty": bool(git("status", "--porcelain", "src")),
                 "src_lines": lines[1]},
        "host": platform.node(),
        "machine": machine_facts(),
        "results": results,
    }
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
