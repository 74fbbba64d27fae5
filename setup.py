"""Packaging: the ``repro`` package lives under ``src/`` and requires NumPy.

Kept as a plain ``setup.py`` so that legacy editable installs
(``pip install -e . --no-use-pep517``) work in offline environments whose
setuptools predates PEP 660 editable wheels.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)
