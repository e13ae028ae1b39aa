"""Each demo script runs to completion from a scratch working directory,
with every warning an error, as pytest's ``filterwarnings`` makes it for
the tests."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import privsum

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    package_root = str(Path(privsum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if demo.stem.startswith("02"):
        assert "observations identical: True" in proc.stdout

