"""Setup shim.

The repository carries no packaging metadata: there is no
pyproject.toml, and ``setup()`` below is called without arguments.
The library runs from a checkout with ``PYTHONPATH=src``, and its
dependencies are listed in ``requirements-dev.txt``.
"""

from setuptools import setup

setup()
