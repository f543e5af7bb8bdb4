import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run():
    """Every narrative script in demos/ runs to completion against src/."""
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) >= 6
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    for demo in demos:
        done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, f"{demo.name} failed:\n{done.stderr}"
