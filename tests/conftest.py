import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(__file__))

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(args, cwd=None, timeout=120) -> str:
    """Stdout of `python -W error *args`, a fresh interpreter on this source tree, in cwd.

    It runs under -W error: any warning fails it, as the filterwarnings of
    pyproject.toml fail a test in-process.  A nonzero exit fails with its stderr.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=timeout)
    assert out.returncode == 0, out.stderr
    return out.stdout
