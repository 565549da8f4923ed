"""Smoke tests: every script in demos/ runs to completion against src/, the
oracle cross-check prints the same stdout on every run, and the README's
library quick tour gives the values its comments state."""

import ast
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@lru_cache(maxsize=None)
def run_demo(script):
    return subprocess.run(
        [sys.executable, str(script)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name
)
def test_demo_exits_zero(script):
    done = run_demo(script)
    assert done.returncode == 0, done.stderr


def test_oracle_crosscheck_prints_the_same_stdout_twice():
    # its sweep time goes to stderr, so stdout compares byte for byte across
    # runs and trees; one run more than the smoke test's
    script = ROOT / "demos" / "oracle_crosscheck.py"
    again = run_demo.__wrapped__(script)
    assert again.returncode == 0, again.stderr
    assert run_demo(script).stdout == again.stdout


NOT_STATED = object()


def _stated_value(comment):
    # the literal a trailing comment states: the whole comment, or its text up
    # to the first comma ("# -50, rebuilt from ...")
    for text in (comment, comment.split(",")[0]):
        try:
            return ast.literal_eval(text.strip())
        except (ValueError, SyntaxError):
            pass
    return NOT_STATED


def test_readme_quick_tour_values():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace, checked = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        expected = _stated_value(comment)
        if expected is NOT_STATED:
            exec(code, namespace)
        else:
            assert eval(code, namespace) == expected, line
            checked.append(expected)
    assert checked == [7, -50, (0, 1, 3, 1), -50, 7, True, "pass", "1 <= m <= 60 (60 cases)"]
