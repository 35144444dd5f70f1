"""Mutation checks: every mutant listed in tests/mutants.json must be killed.

Run from anywhere as `python tests/mutants.py`.  Each entry of mutants.json
names a file of the checkout, a text that must occur in it exactly once, the
text that replaces it, the pytest arguments that must catch the change, and
why the mutant matters.  For each entry the checkout (without .git) is copied
to a temporary directory and mutated there, and the tests run on the copy as
`python -m pytest -q -x -p no:cacheprovider <tests>` would, after checking
that scorecd is imported from the copy's src (an installed scorecd could
otherwise shadow it).  Pytest's exit code 1 (tests failed) means the mutant
was killed; a surviving mutant, any other exit code and a text that does not
apply each fail the run (exit status 1).  Two mutants run at a time, each
in its own copy; the report follows the order of mutants.json.  Uses the
standard library and pytest only.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", ".bench_work", ".bench_build",
                                "*.egg-info")
WRONG_IMPORT = 99  # not one of pytest's exit codes
WORKERS = 2  # mutants run at a time, each a pytest process on its own copy
# python -m pytest, preceded by the import check in the same interpreter
CHILD = f"""
import sys
from pathlib import Path
import pytest, scorecd
if Path(scorecd.__file__).resolve().parent != Path("src/scorecd").resolve():
    print("imported scorecd from", scorecd.__file__, file=sys.stderr)
    sys.exit({WRONG_IMPORT})
sys.exit(pytest.main(["-q", "-x", "-p", "no:cacheprovider"] + sys.argv[1:]))
"""


def run_mutant(entry, tmp):
    """The outcome of one entry: 'killed' or what went wrong."""
    copy = Path(tmp) / "checkout"
    shutil.copytree(ROOT, copy, ignore=IGNORE)
    target = copy / entry["file"]
    text = target.read_text()
    found = text.count(entry["old"])
    if found != 1:
        return f"old text occurs {found} times in {entry['file']}"
    target.write_text(text.replace(entry["old"], entry["new"]))
    src = str(copy / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", CHILD, *entry["tests"]],
                          cwd=copy, env=env, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    tail = "\n  ".join((proc.stdout + proc.stderr).splitlines()[-5:])
    return f"exit code {proc.returncode}\n  {tail}"


def run_on_copy(entry):
    """run_mutant in a temporary directory of its own."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        return run_mutant(entry, tmp)


def main():
    entries = json.loads(MUTANTS.read_text())
    failed = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        # map yields the outcomes in the order of `entries`
        for entry, outcome in zip(entries, pool.map(run_on_copy, entries)):
            failed += outcome != "killed"
            print(f"{entry['file']}: {entry['why']}\n  {outcome}", flush=True)
    print(f"{len(entries) - failed} of {len(entries)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
