"""Refuse to run when ``PYTHONPATH`` names a heraldsim other than the tested one.

``pyproject.toml`` puts this checkout's ``src`` ahead of ``PYTHONPATH``, so
``PYTHONPATH=<other checkout>/src python -m pytest`` would quietly test this
checkout's source. Checks against another commit must run from that
commit's own copy.
"""

import os
from pathlib import Path

import pytest


def foreign_heraldsim(pythonpath: str, imported: Path) -> list[str]:
    """The entries of ``pythonpath`` that hold a heraldsim package other
    than the one at ``imported``."""
    return [
        entry
        for entry in pythonpath.split(os.pathsep)
        if entry
        and (Path(entry) / "heraldsim" / "__init__.py").is_file()
        and (Path(entry) / "heraldsim").resolve() != imported.resolve()
    ]


def pytest_configure(config):
    import heraldsim

    imported = Path(heraldsim.__file__).parent
    foreign = foreign_heraldsim(os.environ.get("PYTHONPATH", ""), imported)
    if foreign:
        raise pytest.UsageError(
            f"PYTHONPATH entry {foreign[0]} holds a heraldsim package, but the tests "
            f"import {imported}; run the tests from that checkout instead"
        )
