"""Legacy shim so `pip install -e .` works without network/build isolation."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Cost-effective speculative scheduling in high performance "
        "processors (ISCA 2015) - full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
