"""The bound-audit demo leaves nothing behind in the temporary directory."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bound_audit_demo_removes_its_report(tmp_path):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(p for p in paths if p),
        "TMPDIR": str(scratch),
    }
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "06_bound_audit.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert "report written to " + str(scratch) in done.stdout
    assert list(scratch.iterdir()) == []
