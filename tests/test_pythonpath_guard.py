"""The conftest guard: pytest refuses a PYTHONPATH that names another heraldsim."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import heraldsim
from conftest import foreign_heraldsim

IMPORTED = Path(heraldsim.__file__).parent


def fake_package(root: Path) -> Path:
    (root / "heraldsim").mkdir(parents=True)
    (root / "heraldsim" / "__init__.py").write_text("")
    return root


def test_only_another_heraldsim_is_named(tmp_path):
    fake = fake_package(tmp_path / "other")
    (tmp_path / "empty").mkdir()
    ours = str(IMPORTED.parent)
    entries = [str(tmp_path / "empty"), ours, "", str(fake)]
    assert foreign_heraldsim(os.pathsep.join(entries), IMPORTED) == [str(fake)]
    assert foreign_heraldsim(ours, IMPORTED) == []
    assert foreign_heraldsim(os.path.relpath(ours), IMPORTED) == []
    assert foreign_heraldsim("", IMPORTED) == []


def test_pytest_stops_before_collecting(tmp_path):
    fake = fake_package(tmp_path / "other")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__],
        cwd=IMPORTED.parents[1],
        env=dict(os.environ, PYTHONPATH=str(fake)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == pytest.ExitCode.USAGE_ERROR
    assert f"PYTHONPATH entry {fake} holds a heraldsim package" in result.stderr
