"""Package metadata (this file is the only place it lives)."""
from pathlib import Path

from setuptools import find_packages, setup

version = {}
exec((Path(__file__).parent / "src" / "repro" / "_version.py").read_text(), version)

setup(
    name="repro",
    version=version["__version__"],
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
