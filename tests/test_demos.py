"""Every demo script runs to completion.

The demos use only the public API, so a change that breaks one of them
breaks what the package offers.  Each runs in its own interpreter with
``src`` on the path; temporary files go under the test's directory.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_the_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, path], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
