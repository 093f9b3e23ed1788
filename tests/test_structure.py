"""Source-level rules that keep one owner per helper, the runtime on numpy and click, and no dense view in src."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "jtrwa").glob("*.py"))
RUNTIME = set(sys.stdlib_module_names) | {"numpy", "click", "jtrwa"}


def _private_imports(path):
    """(module, name) of every underscore-prefixed name that `path` imports from another jtrwa module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "jtrwa"):
            yield from ((node.module, alias.name) for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert list(_private_imports(path)) == []


def test_the_rule_sees_relative_and_absolute_imports(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from .spectra import _blocks, diagonalize\nfrom jtrwa.fockspace import _sectors\n")
    assert list(_private_imports(source)) == [("spectra", "_blocks"), ("jtrwa.fockspace", "_sectors")]


def _imported_packages(path):
    """Top-level package of every import in `path`, at any depth; a relative import names jtrwa."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "jtrwa" if node.level > 0 else node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_names_the_standard_library_numpy_click_or_jtrwa(path):
    assert set(_imported_packages(path)) - RUNTIME == set()


def test_the_import_rule_sees_an_import_inside_a_function(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy as np\nfrom . import spectra\n\n"
        "def closure(vals):\n    from scipy.optimize import linear_sum_assignment\n"
    )
    assert list(_imported_packages(source)) == ["numpy", "jtrwa", "scipy"]
    assert set(_imported_packages(source)) - RUNTIME == {"scipy"}


def _dense_views(path):
    """Line of every read of an `.entries` attribute and of every `OperatorMatrix(...)` call (the dense constructor)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "entries":
            yield node.lineno
        elif isinstance(node, ast.Call):
            if "OperatorMatrix" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_transforms_reads_the_dense_view(path):
    # the name predates the triplet transforms: now no module, transforms included, reads or builds a dense matrix;
    # fockspace still defines both for the acceptance tests, which scatter their oracles through them
    assert list(_dense_views(path)) == []


def test_the_dense_view_rule_sees_a_read_in_a_function_body(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "class Op:\n    @property\n    def entries(self):\n        return None\n\n"
        "def check(h):\n    rows = h.triplets[0]\n    return h.entries - rows\n"
    )
    assert list(_dense_views(source)) == [8]


def test_the_dense_view_rule_sees_a_dense_constructor_call(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .fockspace import OperatorMatrix\nfrom . import fockspace\n\n"
        "def rotation(basis, u):\n    op = OperatorMatrix.from_triplets(basis, [], [], [])\n"
        "    return OperatorMatrix(basis, u), fockspace.OperatorMatrix(basis, u)\n"
    )
    assert list(_dense_views(source)) == [6, 6]


HINTS = {"HERMITIAN", "ANTI_HERMITIAN", "GENERAL"}


def _lines_outside(path, function, matches):
    """Line of every node of `path` for which `matches` holds, outside a function named `function` (None: anywhere)."""
    def walk(node, inside):
        inside = inside or (isinstance(node, ast.FunctionDef) and node.name == function)
        if not inside and matches(node):
            yield node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, inside)

    yield from walk(ast.parse(path.read_text(), filename=str(path)), False)


def _names_a_hint(node):
    if not (isinstance(node, ast.Attribute) and node.attr in HINTS):
        return False
    return (node.value.id if isinstance(node.value, ast.Name) else getattr(node.value, "attr", None)) == "Hermiticity"


def _hints_named_outside_assemble(path):
    """Line of every `Hermiticity.<member>` in `path` outside a function named `assemble`."""
    return _lines_outside(path, "assemble", _names_a_hint)


HINT_RULED = ("models.py", "transforms.py", "pseudoherm.py", "cli.py")


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name in HINT_RULED], ids=lambda path: path.name)
def test_only_assemble_decides_a_model_operators_hint(path):
    # assemble derives the hint from the model and its coefficients; no builder, generator, consumer or scan
    # (gamma_grids and the commands on it) picks one
    assert list(_hints_named_outside_assemble(path)) == []


def test_the_hint_rule_flags_a_builder_that_names_a_hint(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "def assemble(basis, model, coefficients):\n    return Hermiticity.HERMITIAN\n\n"
        "def build(params, basis):\n    return assemble(basis, 'full', (1.0,), fockspace.Hermiticity.GENERAL)\n"
    )
    assert list(_hints_named_outside_assemble(source)) == [5]


def _cell_formatting_outside_emit(path):
    """Line of every use of the name `_format_value`, called or passed on, outside a function named `_emit`."""
    def names_it(node):
        return "_format_value" in (getattr(node, "id", None), getattr(node, "attr", None))

    return _lines_outside(path, "_emit", names_it)


def test_only_emit_formats_a_cell():
    # a table is formatted in one place, column by column; a command body hands `_emit` its values unformatted
    assert list(_cell_formatting_outside_emit(SOURCES[0].with_name("cli.py"))) == []


def test_the_cell_rule_flags_a_command_body_that_formats_its_cells(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "def _format_value(value):\n    return str(value)\n\n"
        "def _emit(columns):\n    return [_format_value(v) for v in columns]\n\n"
        "def spectrum_command(levels):\n    index = list(map(_format_value, range(len(levels))))\n"
        "    return {'index': index, 're_energy': [cli._format_value(v) for v in levels]}\n"
    )
    assert list(_cell_formatting_outside_emit(source)) == [8, 9]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _foreign_private_reads(path):
    """(line, name) of every read of a single-underscore attribute `x._name`, x not self or cls, that `path` does not
    define: as a function or method, a name bound in a class body, or an attribute it assigns."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        if isinstance(node, ast.ClassDef):
            defined.update(target.id for item in node.body if isinstance(item, (ast.Assign, ast.AnnAssign))
                           for target in getattr(item, "targets", [getattr(item, "target", None)])
                           if isinstance(target, ast.Name))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and _private(node.attr)
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
                and node.attr not in defined):
            yield node.lineno, node.attr


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_a_private_attribute_is_read_only_in_the_module_that_defines_it(path):
    # the block layout and the transpose map of an operator (OperatorMatrix._plan) stay behind fockspace
    assert list(_foreign_private_reads(path)) == []


def test_the_attribute_rule_flags_a_read_of_another_modules_private_attribute(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "class Op:\n    _scale = 2.0\n\n    def _layout(self):\n        return self._plan\n\n"
        "def solve(op, other):\n    other._cache = op._layout(), op._scale, other._cache\n"
        "    return op._plan.sizes, op.__class__\n"
    )
    assert list(_foreign_private_reads(source)) == [(9, "_plan")]


def _proof_reads(path):
    """Line of every read of an `.exact` attribute in `path` (an assignment to one, or a keyword, is not a read)."""
    return _lines_outside(path, None, lambda node: isinstance(node, ast.Attribute) and node.attr == "exact"
                          and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_the_proof_flag_is_read_only_in_fockspace(path):
    # OperatorMatrix.exact means "the hint is proved", and only validate() reads it: real arithmetic follows from the
    # dtype of the values (models.assemble makes them real), not from the proof
    assert (path.name == "fockspace.py") == bool(list(_proof_reads(path)))


def test_the_proof_flag_rule_flags_a_read_outside_fockspace(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "def assemble(terms, values, exact):\n    op = terms.with_values(values, exact=exact)\n    op.exact = exact\n"
        "    return op\n\ndef solve(op):\n    return op.triplets[2].real if op.exact else op.triplets[2]\n"
    )
    assert list(_proof_reads(source)) == [7]


def _calls(ufunc, method):
    """Whether a node calls `<ufunc>.<method>`: on np.<ufunc>, numpy.<ufunc> or a bare imported <ufunc>."""
    def matches(node):
        return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == method
                and ufunc in (getattr(node.func.value, "id", None), getattr(node.func.value, "attr", None)))

    return matches


def _minimum_reduceat_calls(path):
    """Line of every call of `minimum.reduceat` in `path`."""
    return _lines_outside(path, None, _calls("minimum", "reduceat"))


def _modules_reducing_bounds_to_blocks(paths):
    return [path.name for path in paths if list(_minimum_reduceat_calls(path))]


def test_one_module_reduces_a_per_state_bound_to_the_blocks():
    # OperatorMatrix.block_minima serves block_bounds (table1's bound) and models.gershgorin (reality-scan's)
    assert _modules_reducing_bounds_to_blocks(SOURCES) == ["fockspace.py"]


def test_the_reduction_rule_flags_a_second_caller(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy as np\nfrom numpy import minimum\n\n"
        "def term_bounds(per_row, states, starts):\n    lower = np.minimum.reduceat(per_row[states], starts)\n"
        "    return lower, minimum.reduceat(per_row, starts), np.maximum.reduceat(per_row, starts)\n"
    )
    assert list(_minimum_reduceat_calls(source)) == [5, 6]
    assert _modules_reducing_bounds_to_blocks([*SOURCES, source]) == ["fockspace.py", "probe.py"]


def _term_products(path):
    """Line of every call of `multiply` or `multiply.outer` in `path`, and of those outside a function named
    `_term_sum`."""
    outer = _calls("multiply", "outer")

    def calls(node):
        return outer(node) or (isinstance(node, ast.Call) and "multiply" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)))

    return list(_lines_outside(path, None, calls)), list(_lines_outside(path, "_term_sum", calls))


def test_one_function_multiplies_coefficients_into_terms():
    # models._term_sum sums coefficient * term for assemble and assemble_blocks alike, so that a block assembled alone
    # holds the whole operator's values bit for bit
    everywhere, outside = _term_products(SOURCES[0].with_name("models.py"))
    assert len(everywhere) == 1 and outside == []


def test_the_term_product_rule_flags_a_second_site(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy as np\nfrom numpy import multiply\n\n"
        "def _term_sum(terms, c):\n    return sum(np.multiply.outer(t, c) for t in terms)\n\n"
        "def assemble_blocks(stacks, c):\n    return [multiply.outer(s, c) for s in stacks], np.add.outer(c, c)\n"
    )
    assert _term_products(source) == ([5, 8], [8])
    source.write_text("def _term_sum(a, b, c):\n    return np.multiply.outer(a, c) + np.multiply.outer(b, c)\n")
    assert _term_products(source) == ([2, 2], [])
    source.write_text("from numpy import multiply\n\ndef assemble(a, c):\n    return np.multiply(a, c), multiply(a, c)\n")
    assert _term_products(source) == ([4, 4], [4, 4])


def _eigenvalue_solver_sites(path):
    """(function, line) of every use of `eigvalsh` or `eigvals` in `path`, called or passed on, by the innermost
    function that holds it (None: at module level)."""
    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if {getattr(node, "id", None), getattr(node, "attr", None)} & {"eigvalsh", "eigvals"}:
            yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)

    return list(walk(ast.parse(path.read_text(), filename=str(path)), None))


def _eigenvalue_solvers(paths):
    return {(path.name, function) for path in paths for function, _ in _eigenvalue_solver_sites(path)}


def test_one_function_finds_eigenvalues_only():
    # spectra.block_eigenvalues solves, one stack at a time, every problem that asks for eigenvalues only:
    # diagonalize's, reality-scan's, the conjugation closure's and the transform's spectral norm; eigh and eig
    # (expm, eigenvectors) are not ruled
    assert _eigenvalue_solvers(SOURCES) == {("spectra.py", "_stack_eigenvalues")}


def test_the_solver_rule_flags_a_second_site(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy as np\nfrom numpy.linalg import eigvalsh\n\n"
        "def _stack_eigenvalues(stack, hermitian):\n"
        "    return (np.linalg.eigvalsh if hermitian else np.linalg.eigvals)(stack)\n\n"
        "def _spectral_norm(half):\n    return np.abs(eigvalsh(half)).max(), np.linalg.eigh(half)\n"
    )
    assert _eigenvalue_solver_sites(source) == [("_stack_eigenvalues", 5), ("_stack_eigenvalues", 5),
                                                ("_spectral_norm", 8)]
    assert _eigenvalue_solvers([*SOURCES, source]) == {
        ("spectra.py", "_stack_eigenvalues"), ("probe.py", "_stack_eigenvalues"), ("probe.py", "_spectral_norm")}


SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _span_targets(path):
    """(module, attribute) of every entry of `TARGETS` in `path`, evaluated from its assignment and the module-level
    names it reads, without importing the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assignments = [node for node in tree.body if isinstance(node, ast.Assign)
                   and all(isinstance(target, ast.Name) for target in node.targets)]
    namespace = {}
    exec(compile(ast.Module(body=assignments, type_ignores=[]), str(path), "exec"), namespace)
    return [(module, attribute) for module, attribute, _ in namespace["TARGETS"]]


def _unresolved(targets):
    """The targets `module.attribute` that `jtrwa` does not hold."""
    return [f"{module}.{attribute}" for module, attribute in targets
            if not hasattr(importlib.import_module(f"jtrwa.{module}"), attribute)]


def test_every_name_the_bench_tracer_patches_resolves():
    # bench/spans.py rebinds these names, and the three bindings it patches explicitly; a rename would crash a
    # traced benchmark run
    targets = _span_targets(SPANS)
    assert ("spectra", "diagonalize") in targets and ("models", "build_full_jt") in targets
    assert _unresolved([*targets, ("cli", "MODELS"), ("transforms", "expm"), ("fockspace", "OperatorMatrix")]) == []
    assert callable(importlib.import_module("jtrwa.fockspace").OperatorMatrix.validate)


def test_the_tracer_rule_flags_a_missing_name(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "NAMES = ('diagonalize', 'diagonalise')\n"
        "TARGETS = [*(('spectra', name, 'spectra.solve') for name in NAMES), ('models', 'assemble', 'build')]\n"
    )
    targets = _span_targets(source)
    assert targets == [("spectra", "diagonalize"), ("spectra", "diagonalise"), ("models", "assemble")]
    assert _unresolved(targets) == ["spectra.diagonalise"]


def _partner_finder_calls(path):
    """(function, line) of every call of a method `partners` (_Plan's partner lookup; no other name in the package)
    in `path`, by the innermost class and function that hold it ("Class.method"; a lambda counts as the function it
    is written in)."""
    def walk(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "partners":
            yield ".".join(scope[-2:]), node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)

    return list(walk(ast.parse(path.read_text(), filename=str(path)), ()))


def _partner_finders(paths):
    return {(path.name, function) for path in paths for function, _ in _partner_finder_calls(path)}


def test_one_partner_finder_pairs_the_positions():
    # _Plan.partners pairs positions for difference(), the one formula of every m -/+ m^dagger check (validate's, the
    # metric check's, the model terms' proof) and of the PT check, and for the swap map of twins(); a check with a
    # lookup of its own would be a second formula
    assert _partner_finders(SOURCES) == {("fockspace.py", "OperatorMatrix.difference"), ("fockspace.py", "_Plan.swap")}


def test_the_partner_rule_flags_a_second_call_site(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "class OperatorMatrix:\n    def difference(self, values, image):\n"
        "        return self._plan.once(None, lambda: self._plan.partners(self.cols, self.rows))\n\n"
        "    def validate(self):\n        plan = self._plan\n"
        "        partner, found = plan.once(None, lambda: plan.partners(plan.cols, plan.rows))\n\n"
        "def check(h):\n    return h._plan.partners(h.rows, h.cols), 'ab'.find('b'), h.difference(h.values, h.values)\n"
    )
    assert _partner_finder_calls(source) == [("OperatorMatrix.difference", 3), ("OperatorMatrix.validate", 7),
                                              ("check", 10)]
    assert _partner_finders([*SOURCES, source]) - _partner_finders(SOURCES) == {
        ("probe.py", "OperatorMatrix.validate"), ("probe.py", "check"), ("probe.py", "OperatorMatrix.difference")}


OUTPUTS = ("return_index", "return_inverse", "return_counts")


def _bare_unique_calls(path):
    """Line of every call of `unique` (np.unique, numpy.unique or an imported unique) in `path` that asks for no index
    or count output: no return_index, return_inverse or return_counts passed as True."""
    def bare(node):
        return (isinstance(node, ast.Call) and "unique" in (getattr(node.func, "id", None),
                                                            getattr(node.func, "attr", None))
                and not any(k.arg in OUTPUTS and getattr(k.value, "value", None) is True for k in node.keywords))

    return list(_lines_outside(path, None, bare))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_unique_call_asks_for_an_index_or_count(path):
    # numpy 2.4's np.unique with no index or count output takes the hash path, whose np.ma.is_masked probe imports
    # numpy.ma: 10-16 ms and about 1 MB in every process; the sorted path with an output costs neither
    assert _bare_unique_calls(path) == []


def test_the_unique_rule_flags_a_bare_call(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy as np\nfrom numpy import unique\n\n"
        "def union(keys):\n    return np.unique(keys), unique(keys, return_counts=False)\n\n"
        "def slots(keys):\n    return np.unique(keys, return_inverse=True), numpy.unique(a, return_counts=True)\n\n"
        "def sizes(keys):\n    return np.unique(keys, axis=0), unique(keys, return_index=True)\n"
    )
    assert _bare_unique_calls(source) == [5, 5, 11]
