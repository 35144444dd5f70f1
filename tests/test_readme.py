"""The README's examples run, and its Library section and the package's
exports agree."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

import scorecd
from scorecd.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
FILE_OPTIONS = ("--input", "--labels", "--config", "--estimated", "--truth")


def self_contained_commands():
    """Arguments of each `scorecd` line of the Command line block that reads
    no file of the user's (a builtin input is not one)."""
    text = README.read_text()
    section = text[text.index("\n## Command line\n"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("scorecd ")]
    return [args for args in commands
            if not any(opt in FILE_OPTIONS and not value.startswith("builtin:")
                       for opt, value in zip(args, args[1:]))]


@pytest.mark.parametrize("args", self_contained_commands(), ids=" ".join)
def test_command_line_example_runs(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)  # an example may write --out files
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output


def library_section():
    text = README.read_text()
    start = text.index("\n## Library\n")
    return text[start:text.index("\n## ", start + 1)]


def test_library_example_imports_only_exports_and_runs():
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    imported = {alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "scorecd"
                for alias in node.names}
    assert imported and imported <= set(scorecd.__all__)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().strip()


def test_library_section_lists_exactly_the_exports():
    # the section's bullet list
    section = library_section()
    listing = section[section.index("\n- "):]
    listing = listing[:listing.index("\n\n")]
    listed = re.findall(r"`(\w+)`", listing)
    assert sorted(listed) == sorted(scorecd.__all__)
    assert all(hasattr(scorecd, name) for name in scorecd.__all__)
