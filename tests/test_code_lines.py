"""scripts/code_lines.py counts code lines without docstrings, comments or blank lines."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


class A:
    """A class docstring."""

    x = 1

    def f(self):
        """A function docstring."""
        return (
            "not a docstring"
        )
'''


def test_counts_a_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    counts = [line.split() for line in proc.stdout.splitlines()]
    # a.py: the import, ``class A:``, ``x = 1``, ``def f``, and the three lines of the return
    assert counts == [["a.py", "7"], ["b.py", "2"], ["total", "9"]]
