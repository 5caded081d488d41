"""The lower layers of ``repro`` never import the experiment harness or the exact solvers.

``repro.experiments`` (grids, figures, metrics) and ``repro.exact`` (the
brute-force, DP and ILP solvers) sit on top of the scheduling library.  The
wire format, the scheduler core, the schedule model, the mapping and the
simulator must load without them, so no module in those subpackages names
them in an import statement, at module level or inside a function.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SOURCE = Path(repro.__file__).parent

#: Subpackages that must not import the layers in :data:`UPPER`.
LOWER = ("io", "core", "schedule", "mapping", "sim")
#: Packages the lower layers must not import.
UPPER = ("repro.experiments", "repro.exact")


def imported_modules(path: Path):
    """Yield ``(line, module)`` for every import statement in *path*."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def is_upper(module: str) -> bool:
    return any(module == upper or module.startswith(upper + ".") for upper in UPPER)


@pytest.mark.parametrize("package", LOWER)
def test_lower_layer_does_not_import_experiments_or_exact(package):
    offending = [
        f"{path.relative_to(SOURCE)}:{line}: {module}"
        for path in sorted((SOURCE / package).rglob("*.py"))
        for line, module in imported_modules(path)
        if is_upper(module)
    ]
    assert offending == []


def bound_imports(tree: ast.Module):
    """Yield ``(line, name)`` for every name an import statement in *tree* binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def used_names(tree: ast.Module) -> set:
    """Return the names *tree* reads: loaded names, quoted annotations and ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # A quoted annotation (``-> "Schedule"``) names its types in a string.
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(
                name.id
                for name in ast.walk(_parse_or_none(node.value))
                if isinstance(name, ast.Name)
            )
    return used


def _parse_or_none(text: str) -> ast.AST:
    """Return *text* parsed as an expression, or an empty module if it is not one."""
    try:
        return ast.parse(text, mode="eval")
    except SyntaxError:
        return ast.Module(body=[], type_ignores=[])


def test_no_module_imports_a_name_it_never_uses():
    # Package ``__init__`` modules import to re-export; every other module
    # must read each name it imports (``ruff.toml`` selects no F401 check).
    offending = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf8"))
        used = used_names(tree)
        offending += [
            f"{path.relative_to(SOURCE)}:{line}: {name}"
            for line, name in bound_imports(tree)
            if name not in used
        ]
    assert offending == []


def test_scheduling_core_does_not_import_numpy():
    # The scheduling core works on rows of a few dozen cells, as Python ints
    # and floats; NumPy's per-call cost does not pay off at that size.
    offending = [
        f"{path.relative_to(SOURCE)}:{line}: {module}"
        for path in sorted((SOURCE / "core").rglob("*.py"))
        for line, module in imported_modules(path)
        if module == "numpy" or module.startswith("numpy.")
    ]
    assert offending == []
