"""Checks on the public surface of the ``repro`` package.

Every name a package exports through ``__all__`` must exist: a stale entry
breaks ``from repro.x import *`` and misleads readers; linting (ruff F822)
catches it too, but this check needs no linter.

The number of defaulted parameters on public functions is ratcheted: each
option is one more configuration the tests must cover.  So is the number of
public functions and methods: each is one more name to document and keep.

``import repro`` must not load scipy: only the exact ILP solver needs it, and
every CLI invocation pays for what the package imports.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.api",
    "repro.carbon",
    "repro.core",
    "repro.exact",
    "repro.experiments",
    "repro.io",
    "repro.mapping",
    "repro.platform_",
    "repro.schedule",
    "repro.sim",
    "repro.utils",
    "repro.workflow",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


#: Upper bound of :func:`count_defaulted_parameters` over ``src/repro``.
MAX_DEFAULTED_PARAMETERS = 153

#: Upper bound of :func:`count_public_functions` over ``src/repro``.
MAX_PUBLIC_FUNCTIONS = 341


def iter_functions(root: Path):
    """Yield every function and method definition under *root*."""
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node


def count_defaulted_parameters(root: Path) -> int:
    """Count the defaulted parameters of the public functions under *root*.

    Positional and keyword-only parameters with a default count, on every
    function or method whose name does not start with ``_``, plus
    ``__init__``.
    """
    count = 0
    for node in iter_functions(root):
        if node.name.startswith("_") and node.name != "__init__":
            continue
        count += len(node.args.defaults)
        count += sum(default is not None for default in node.args.kw_defaults)
    return count


def count_public_functions(root: Path) -> int:
    """Count the functions and methods under *root* whose name has no leading ``_``."""
    return sum(not node.name.startswith("_") for node in iter_functions(root))


def test_defaulted_parameter_count_does_not_grow():
    count = count_defaulted_parameters(Path(repro.__file__).parent)
    assert count <= MAX_DEFAULTED_PARAMETERS, (
        f"{count} defaulted public parameters under src/repro, more than "
        f"{MAX_DEFAULTED_PARAMETERS}; a new option needs a justification in "
        "CHANGES.md before this bound is raised"
    )


def test_public_function_count_does_not_grow():
    count = count_public_functions(Path(repro.__file__).parent)
    assert count <= MAX_PUBLIC_FUNCTIONS, (
        f"{count} public functions and methods under src/repro, more than "
        f"{MAX_PUBLIC_FUNCTIONS}; a new public name needs a justification in "
        "CHANGES.md before this bound is raised"
    )


def test_import_repro_leaves_scipy_unloaded():
    source_root = str(Path(repro.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    probe = "import sys, repro; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert completed.stdout.strip() == "[]"
