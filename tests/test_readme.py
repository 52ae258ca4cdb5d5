"""The README's examples run as written: its config parses and its quick
start solves and audits."""

import json
import os
import re

from lingrow.config import parse_config

README = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "README.md")


def fenced(language):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    blocks = re.findall(rf"^```{language}\n(.*?)^```", text,
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, f"expected one {language} block"
    return blocks[0]


def test_the_config_example_parses():
    cfg = parse_config(json.loads(fenced("json")))
    assert cfg.problem.kind == "fidelity" and cfg.ball_auto_x0 == (0.25, 0.45)


def test_the_quick_start_runs():
    scope = {}
    exec(compile(fenced("python"), README, "exec"), scope)
    assert scope["report"].passed
    # the README's comment: the interior sup stays about 3 on every rung
    assert all(2.0 < rec.interior_sup < 4.0
               for rec in scope["records"])
