"""In-memory span tracer installed around the public functions of each module.

Spans are recorded from outside the program: `Tracer.install` rebinds each
traced function, in every `jtrwa` module namespace that holds it, to a
wrapper that records (name, start, end, parent, operation id).  Three
bindings are not plain module attributes and are patched explicitly: the
builders held in `cli.MODELS`, the method `OperatorMatrix.validate`, and
`expm` as imported into `transforms`.

Counts that the per-layer metrics need (calls, dense bytes, dimensions,
nonzeros, levels, cutoffs tried, validation failures) are taken at the
same boundaries.  Work the wrappers themselves do after a call (counting
nonzeros) is recorded as a `trace.bookkeeping` child span, so it never
inflates a layer's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

BUILDERS = ("build_full_jt", "build_rwa", "build_rotated", "build_nonhermitian", "build_second_order")

# (module, attribute, span name); the span name may depend on the call.
TARGETS = [
    ("fockspace", "make_basis", "fockspace.make_basis"),
    ("fockspace", "boson_ops", "fockspace.boson_ops"),
    ("fockspace", "pauli_ops", "fockspace.pauli_ops"),
    *(("models", name, "models.build") for name in BUILDERS),
    ("spectra", "diagonalize", "spectra.diagonalize"),
    ("spectra", "converge_ground", "spectra.converge_ground"),
    ("transforms", "decoupling_generator", "transforms.generator"),
    ("transforms", "conjugate", "transforms.conjugate"),
    ("transforms", "residual_study", "transforms.residual_study"),
    ("transforms", "expm", "transforms.expm"),
    ("pseudoherm", "check_pseudo_hermitian", "pseudoherm.metric_check"),
    ("pseudoherm", "check_combined_symmetry", "pseudoherm.symmetry_check"),
    ("pseudoherm", "check_pt", "pseudoherm.symmetry_check"),
    ("pseudoherm", "conjugation_closure", "pseudoherm.closure"),
    ("pseudoherm", "reality_scan", "pseudoherm.reality_scan"),
]

ROOT_SPAN = "cli"


class Tracer:
    """Spans and counters of one run, grouped by operation and by pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.op_pass: dict[int, int] = {}  # op id -> pass index
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple] = []

    # -------------------------------------------------------------- recording

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op_id: int, pass_index: int):
        """Root span of one CLI invocation."""
        self._op = op_id
        self.op_pass[op_id] = pass_index
        index = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[self.op_pass.get(self._op, -1)][name] += value

    def high_water(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def _wrap(self, fn, name, after=None):
        """Wrapper recording one span per call; `after(result)` runs as bookkeeping."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args) if callable(name) else name
            index = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._close(index)
                tracer.count(span_name + ".failed")
                raise
            tracer._close(index)
            tracer.count(span_name + ".calls")
            if after is not None:
                keep = tracer._open("trace.bookkeeping")
                after(result)
                tracer._close(keep)
            return result

        traced.__traced__ = True
        return traced

    # ----------------------------------------------------------- installation

    def install(self) -> None:
        """Rebind every traced function in the loaded `jtrwa` modules."""
        import jtrwa.cli  # noqa: F401  (loads every module)
        from jtrwa import fockspace

        def diagonalize_name(op, *_):
            path = "hermitian" if op.hint is fockspace.Hermiticity.HERMITIAN else "general"
            return f"spectra.diagonalize.{path}"

        modules = [m for key, m in sys.modules.items() if key == "jtrwa" or key.startswith("jtrwa.")]
        after = {
            "fockspace.make_basis": lambda basis: self.high_water("fockspace.dim_max", basis.dimension),
            "models.build": self._after_build,
            "spectra.diagonalize": lambda spectrum: self.count("levels_computed", len(spectrum.eigenvalues)),
            "spectra.converge_ground": lambda spectrum: self.count(
                "cutoffs_tried", len(spectrum.cutoff_history)),
        }
        for module_name, attr, span in TARGETS:
            original = getattr(sys.modules[f"jtrwa.{module_name}"], attr)
            name = diagonalize_name if span == "spectra.diagonalize" else span
            wrapper = self._wrap(original, name, after.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper, setattr)
            models = sys.modules["jtrwa.cli"].MODELS
            for key, value in list(models.items()):
                if value is original:
                    self._rebind(models, key, wrapper, dict.__setitem__)
        validate = fockspace.OperatorMatrix.validate
        self._rebind(fockspace.OperatorMatrix, "validate",
                     self._wrap(validate, "fockspace.validate"), setattr)

    def _rebind(self, container, key, value, setter) -> None:
        getter = dict.__getitem__ if setter is dict.__setitem__ else getattr
        self._undo.append((container, key, getter(container, key), setter))
        setter(container, key, value)

    def uninstall(self) -> None:
        while self._undo:
            container, key, original, setter = self._undo.pop()
            setter(container, key, original)

    def _after_build(self, op) -> None:
        dim = op.dimension
        self.count("dense_bytes", dim * dim * 16)
        self.high_water("fockspace.nnz_max", int(np.count_nonzero(op.entries)))

    # --------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time covered by its child spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Self time summed by span name (key `<name>.s`) and counts, per pass."""
        table = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            table[self.op_pass[span[4]]][span[0] + ".s"] += own
        for pass_index, counts in self.counts.items():
            for key, value in counts.items():
                table[pass_index][key] += value
        return table

