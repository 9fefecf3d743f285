"""What the README documents runs: the library quickstart and the
experiment scripts, with small arguments."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args",
    [
        ("certified_vs_bare.py", ["--trials", "500"]),
        ("cz_branch_demo.py", []),
        ("flag_rate_scaling.py", ["--points", "4"]),
    ],
)
def test_script_runs(script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_quickstart_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    survivor_probability = float(capsys.readouterr().out.split()[0])
    assert survivor_probability == pytest.approx(
        (1 - math.sin(0.1) ** 2) * (1 - math.sin(0.05) ** 2), abs=1e-12
    )
