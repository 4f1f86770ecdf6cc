import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(demo, tmp_path):
    # conftest puts the absolute src path on PYTHONPATH, so the demo imports
    # the checkout's package from any working directory
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
