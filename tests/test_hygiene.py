"""Source hygiene of the package, read with the standard library's ast.

Invariants must survive ``python -O``, which strips ``assert`` statements, so
the package raises instead.  An import nothing reads is a leftover of a fold
that moved its last use elsewhere.  A model's link lives in its
:class:`paircomp.ModelKind` member, so no code compares a model with one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import paircomp

MODULES = sorted(Path(paircomp.__file__).resolve().parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line, ``from __future__`` excluded."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the entries of ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def test_the_package_has_modules():
    assert {path.name for path in MODULES} >= {"__init__.py", "core.py", "fileio.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements vanish under python -O"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    read = _read_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in read}
    assert unused == {}, f"{path.name}: imported but never read"


def _is_model_member(node: ast.expr) -> bool:
    """Whether ``node`` is ``ModelKind.<member>`` or ``<module>.ModelKind.<member>``."""
    if not (isinstance(node, ast.Attribute) and node.attr in paircomp.ModelKind.__members__):
        return False
    owner = node.value
    return (isinstance(owner, ast.Name) and owner.id == "ModelKind") or (
        isinstance(owner, ast.Attribute) and owner.attr == "ModelKind"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_code_branches_on_a_model_member(path):
    branches = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        branches += [node.lineno for operand in operands if _is_model_member(operand)]
    assert branches == [], f"{path.name}: compares a model with a ModelKind member"
