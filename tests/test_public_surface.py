"""Every name a package exports through ``__all__`` must exist.

A stale ``__all__`` entry breaks ``from repro.x import *`` and misleads
readers; linting (ruff F822) catches it too, but this check needs no linter.
"""

from __future__ import annotations

import importlib

import pytest

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
