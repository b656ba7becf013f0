import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_fresh(args, cwd):
    """A fresh interpreter on this source tree, in an empty working directory.

    It runs under -W error: any warning fails it, as the filterwarnings of
    pyproject.toml fail a test in-process.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    _run_fresh([str(demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    # the first python block of README.md, run the way the demos run
    text = (ROOT / "README.md").read_text()
    _run_fresh(["-c", text.split("```python\n", 1)[1].split("```", 1)[0]], tmp_path)
