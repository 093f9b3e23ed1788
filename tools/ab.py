"""In-process A/B timing of two source trees of jtrwa on the benchmark's own operations.

    python3 tools/ab.py --base HEAD~1 --workload table1 --rounds 3 --passes 60
    python3 tools/ab.py --base HEAD~1 --workload all --out BENCH_$(git rev-parse --short HEAD).json

The base revision's `src/jtrwa` is exported with `git archive` to a
temporary directory, and both it and this checkout's `src/jtrwa` are
loaded into one process under distinct package names (the package imports
itself by relative imports only).  A pass is the list of operations that
`bench/workloads.py` draws for (workload, seed, pass index), invoked
through click's `CliRunner` as `bench/run.py` invokes them, and timed the
same way: the sum of the operations' wall times.  Each pass runs on both
trees, one after the other, the tree that goes first alternating from pass
to pass, so that drift in the machine's speed falls on both alike.  Every
operation's exit code, stdout and stderr must be identical between the two
trees, else the script stops with exit 1.

It prints, per round, the median pass of each tree, their ratio, a 95 %
bootstrap interval of that ratio and the share of passes the working tree
won, then the same per command: the median of each command's wall time
within a pass (its operations summed; the two `spectrum` models of
`large-cutoff` apart), so that a change to one command shows apart from the
others.  The interval resamples whole passes (each runs the same operations
on both trees) BOOTSTRAP times, from a generator seeded with `--seed`, so a
rerun on the same timings gives the same interval.  It covers the noise
within one round, not the host's drift between rounds, so the verdict of a
workload (`verdict`) calls a change faster or slower only when the interval
of every round lies on that side of 0, and inconsistent otherwise.  It
writes a JSON file (`--out`) with those numbers, both revisions, the host,
the BLAS threads and the library versions.  BLAS keeps its default thread count, as in the
benchmark.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import machine_facts  # noqa: E402  (bench/ is on the path only from here on)
from workloads import WORKLOADS, ops_for_pass  # noqa: E402


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export_package(rev: str, into: Path) -> Path:
    """`src/jtrwa` of revision `rev`, written under `into`; returns the package directory."""
    archive = subprocess.run(["git", "archive", rev, "src/jtrwa"], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src" / "jtrwa"


def load_cli(name: str, package: Path):
    """The click group `cli` of the package in directory `package`, imported as the top-level package `name`."""
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli").cli


class Tree:
    """One loaded copy of the package and the outputs of its last pass."""

    def __init__(self, name: str, package: Path) -> None:
        from click.testing import CliRunner

        self.name, self.cli, self.runner = name, load_cli(name, package), CliRunner()

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


BOOTSTRAP = 2000  # resamples per interval


def interval(base: list[float], head: list[float], rng: random.Random) -> list[float]:
    """A 95 % percentile bootstrap interval of median(head) / median(base) - 1, resampling the passes as pairs."""
    changes = sorted(statistics.median(head[i] for i in picks) / statistics.median(base[i] for i in picks) - 1.0
                     for picks in (rng.choices(range(len(base)), k=len(base)) for _ in range(BOOTSTRAP)))
    return [changes[round(0.025 * (BOOTSTRAP - 1))], changes[round(0.975 * (BOOTSTRAP - 1))]]


def medians(walls: dict[str, list[dict[str, float]]], trees: tuple[str, str], rng: random.Random) -> dict:
    """The median pass (ms) of the trees (base, head), each pass given as its wall time per command, the bootstrap
    interval of their ratio and the passes the head won."""
    base, head = ([sum(p.values()) for p in walls[t]] for t in trees)
    base_ms, head_ms = (1e3 * statistics.median(w) for w in (base, head))
    return {"base_ms": base_ms, "head_ms": head_ms, "change": head_ms / base_ms - 1.0,
            "ci95": interval(base, head, rng), "won": sum(h < b for b, h in zip(base, head)), "passes": len(base)}


def verdict(rounds: list[dict]) -> str:
    """"faster" or "slower" when the interval of every round excludes 0 on that side, else "inconsistent"."""
    for name, side in (("faster", lambda low, high: high < 0.0), ("slower", lambda low, high: low > 0.0)):
        if all(side(*r["ci95"]) for r in rounds):
            return name
    return "inconsistent"


def compare(workload: str, seed: int, rounds: int, passes: int, base: Tree, head: Tree) -> dict:
    """`rounds` rounds of `passes` alternating passes; per round the median pass of each tree (ms), the bootstrap
    interval of their ratio and the passes the working tree won."""
    rng = random.Random(seed)
    for tree in (base, head):  # warm-up: lazy imports, caches, allocator and BLAS buffers
        tree.run_pass(ops_for_pass(workload, seed, 0))
    results, index = [], 1
    for r in range(rounds):
        walls = {base.name: [], head.name: []}
        for p in range(passes):
            ops, outputs = ops_for_pass(workload, seed, index), {}
            for tree in (base, head) if p % 2 == 0 else (head, base):
                wall, outputs[tree.name] = tree.run_pass(ops)
                walls[tree.name].append(wall)
            for op, one, other in zip(ops, outputs[base.name], outputs[head.name], strict=True):
                if one != other:
                    raise SystemExit(f"ab: outputs differ on `jtrwa {' '.join(op.args)}`:\n  base {one!r}\n"
                                     f"  head {other!r}")
            index += 1
        trees = (base.name, head.name)
        result = medians(walls, trees, rng)
        result["commands"] = {command: medians({t: [{command: p[command]} for p in walls[t]] for t in trees},
                                               trees, rng) for command in walls[base.name][0]}
        results.append(result)
        for name, row in (("pass", result), *result["commands"].items()):
            low, high = (100 * bound for bound in row["ci95"])
            print(f"{workload:<16} round {r + 1} {name:<22} base {row['base_ms']:8.3f} ms  "
                  f"head {row['head_ms']:8.3f} ms  {100 * row['change']:+6.1f} % [{low:+6.1f}, {high:+6.1f}]  "
                  f"head won {row['won']}/{row['passes']}", flush=True)
    won, total, call = sum(r["won"] for r in results), sum(r["passes"] for r in results), verdict(results)
    print(f"{workload:<16} head won {won}/{total} passes ({100 * won / total:.0f} %), verdict {call}", flush=True)
    return {"workload": workload, "seed": seed, "rounds": results, "won": won, "passes": total, "verdict": call}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", default="HEAD", help="git revision to compare the working tree against")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="table1")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--passes", type=int, default=60, help="alternating passes per round")
    parser.add_argument("--out", type=Path, default=None, help="JSON file to write (default: none)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes take counts >= 1")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    with tempfile.TemporaryDirectory(prefix="jtrwa-ab-") as scratch:
        base = Tree("jtrwa_base", export_package(args.base, Path(scratch)))
        head = Tree("jtrwa_head", ROOT / "src" / "jtrwa")
        results = [compare(w, args.seed, args.rounds, args.passes, base, head) for w in workloads]
    report = {
        "tool": "tools/ab.py",
        "base": {"rev": args.base, "sha": git("rev-parse", "--short", args.base)},
        "head": {"sha": git("rev-parse", "--short", "HEAD"), "src_dirty": bool(git("status", "--porcelain", "src"))},
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
