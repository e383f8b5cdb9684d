"""Packaging for the reproduction: all project metadata lives here.

There is no pyproject.toml.  ``pip install -e .`` runs this file through
the legacy ``setup.py develop`` path, which needs no ``wheel`` package
(the reproduction environment is offline and lacks it).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    entry_points={"console_scripts": ["repro-paper=repro.eval.cli:main"]},
)
