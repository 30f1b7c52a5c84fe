"""Every example script runs to completion.

Each ``examples/*.py`` runs in its own interpreter, as a user would start
it, with ``src/`` on the import path; a non-zero exit fails the test.
``design_space_exploration.py`` runs with ``--serial`` so the test starts
no worker pool.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
EXTRA_ARGS = {"design_space_exploration.py": ["--serial"]}


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(script), *EXTRA_ARGS.get(script.name, [])],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
