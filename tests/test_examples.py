"""Every example script runs to completion.

Each script runs in a fresh interpreter with ``src`` on ``PYTHONPATH``,
the way a reader runs it from a checkout.  ``reproduce_paper.py`` is
left out: it takes about as long as the other scripts together, and
``make bench-figures`` runs the same experiment harness.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted(
    path
    for path in (ROOT / "examples").glob("*.py")
    if path.name != "reproduce_paper.py"
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
