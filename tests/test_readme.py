"""Every ```python block in README.md runs as written.

Each block runs in its own interpreter from a temporary working directory,
so a block that writes files (the telemetry example writes ``run.jsonl``)
or configures process-global state leaves nothing behind.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
    BLOCKS = re.findall(r"^```python\n(.*?)^```", handle.read(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + env.get("PYTHONPATH", "").split(os.pathsep))
    result = subprocess.run(
        [sys.executable, "-c", block],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
