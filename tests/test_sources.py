"""Every source file parses as Python 3.10, the oldest version that
``pyproject.toml`` supports."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(path for part in ("src", "tests", "demos")
                 for path in glob.glob(os.path.join(ROOT, part, "**", "*.py"),
                                       recursive=True))


def test_sources_parse_as_python_3_10():
    assert len(SOURCES) >= 30
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))
