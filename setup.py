"""Packaging for the ``repro`` library (a ``src`` layout).

All project metadata lives here; there is no ``pyproject.toml``.  A
plain ``setup.py`` also keeps ``pip install -e .`` working offline,
where the ``wheel`` package that PEP 660 editable builds need is
missing.  The version is read from ``src/repro/__init__.py``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Scorpion: explaining away outliers in aggregate queries",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
