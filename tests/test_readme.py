"""The README's Python examples run as written and say what they print."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    # One namespace, as a reader pasting the blocks into one session has.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # The preference-matching block's comments: a certified construction, a
    # certified 0.4 mismatch.
    assert namespace["cert"].feasible and namespace["cert"].t == pytest.approx(0.38)
    assert namespace["probe"].gap == pytest.approx(0.4) and not namespace["probe"].kkt.feasible
