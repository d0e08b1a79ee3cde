"""The python examples of README.md run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import rumorbd

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    # each block imports the same package as this test, installed or not
    src = str(Path(rumorbd.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for i, code in enumerate(blocks):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, cwd=tmp_path)
        assert res.returncode == 0, f"README python block {i}:\n{res.stderr}"
