"""Setup shim.

The project is described by ``pyproject.toml``; this file only exists for
setuptools commands that need a ``setup.py``.  ``pip install -e .`` builds
through the ``wheel`` package, so offline environments without ``wheel``
install with ``python setup.py develop`` instead.
"""

from setuptools import setup

setup()
