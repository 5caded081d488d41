"""Package attributes resolved on first access (PEP 562).

A package ``__init__`` names the module behind each of its public names;
that module is imported when the name is first read, not when the package
is.  ``import repro.io.wire`` then loads what the wire format needs and not
the simulator, the client facade or the solvers, and a cold start pays only
for the modules it uses.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def _lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return the ``__getattr__`` and ``__dir__`` of *package*.

    *exports* maps each module to the public names the package takes from
    it.  A name is imported from its module on first access and stored in
    the package's namespace, so later reads do not come back here.  Any
    other public name that is a submodule of the package is imported, as
    an eager ``__init__`` would have done.
    """
    namespace = sys.modules[package].__dict__
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is not None:
            value = namespace[name] = getattr(importlib.import_module(module), name)
            return value
        if not name.startswith("_") and importlib.util.find_spec(f"{package}.{name}"):
            return importlib.import_module(f"{package}.{name}")
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source))

    return __getattr__, __dir__
