from pathlib import Path

import pytest
from conftest import run_fresh

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    run_fresh([str(demo)], tmp_path, timeout=300)   # an empty working directory


def test_readme_quick_start_runs(tmp_path):
    # the first python block of README.md, run the way the demos run
    text = (ROOT / "README.md").read_text()
    run_fresh(["-c", text.split("```python\n", 1)[1].split("```", 1)[0]], tmp_path, timeout=300)
