"""Setuptools metadata for the ``repro`` package, whose sources live in ``src/``.

This file is the whole packaging configuration: ``pip install -e .`` installs
``repro`` from it, also with a setuptools that lacks PEP 660 editable-wheel
support.  The version is read from ``repro.__version__`` without importing
the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    # bisect's key= argument needs 3.10.
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
