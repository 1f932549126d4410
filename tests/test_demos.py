"""Each demo runs to completion and prints its walkthrough. The demos
call the public API, so a change to it that breaks one fails here. They
run in a temporary directory, because one of them writes an SVG file."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
