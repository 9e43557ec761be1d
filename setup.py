"""Legacy setup shim.

The environment this repository is developed in has no network access and
an older setuptools without native PEP 660 editable-wheel support, so
``pip install -e .`` falls back to this file (``setup.py develop``). All
real metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={
        "console_scripts": [
            "repro-figure=repro.harness.cli:main",
            "repro-trace=repro.trace.cli:main",
            "repro-realtime=repro.realtime.cli:main",
        ]
    },
    python_requires=">=3.10",
)
