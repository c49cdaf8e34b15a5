"""Every script in ``examples/`` runs to completion.

Each example asserts its own answers against the sequential oracles, so
exit code 0 is the whole check.  The scripts run in a subprocess with
the inherited environment (``REPRO_BACKEND`` included) and ``src`` on
``PYTHONPATH``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_exits_cleanly(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
