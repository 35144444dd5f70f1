"""The README's Library section and the package's exports agree."""

import ast
import contextlib
import io
import re
from pathlib import Path

import scorecd

README = Path(__file__).resolve().parents[1] / "README.md"


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
