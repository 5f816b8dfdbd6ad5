"""The README's Python examples run as written and say what they print; its
flag list is whole, and its module table names only what each module has."""

import importlib
import re
from pathlib import Path

import pytest

from prefgame import cli
from test_cli import _flags, _leaf_parsers

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


def test_command_line_section_names_every_flag():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    missing = [
        f"{name} {flag}"
        for name, sub in _leaf_parsers(cli.build_parser())
        for flag in sorted(_flags(sub) - {"-h", "--help"})
        if flag not in named
    ]
    assert not missing


def test_module_table_names_only_what_each_module_has():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## What is inside\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(prefgame\.\w+)` \| (.*) \|$", section, re.MULTILINE)
    assert rows
    missing = [
        f"{module}.{name}"
        for module, purpose in rows
        for name in re.findall(r"`([^`]+)`", purpose)
        if name.isidentifier() and not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
