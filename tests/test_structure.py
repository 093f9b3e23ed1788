"""Source-level rules that keep one owner per helper."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "jtrwa").glob("*.py"))


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
