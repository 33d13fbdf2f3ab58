"""Every script under ``examples/`` runs to completion.

Each example runs as its own process with the in-tree sources on
``PYTHONPATH`` and a scratch working directory, since some of them write
VCD files into the current directory.
"""

import glob
import os
import subprocess
import sys

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO, "src")
EXAMPLES = sorted(glob.glob(os.path.join(_REPO, "examples", "*.py")))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, script], cwd=str(tmp_path), env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
