"""The README library example and the demo scripts run as published."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from otvelo.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_library_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--scenario", "translate", "--size", "128",
                 "--out-prefix", "demo_"]) == 0
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["vx_m_per_s"].shape == (128, 128)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # TMPDIR keeps the directories the demos make inside tmp_path
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
