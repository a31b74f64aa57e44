"""``scripts/code_lines.py``: code lines per module, run from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "code_lines.py"

# Ten code lines: the docstrings, comments and blank lines do not count, a
# string that is no docstring counts on every line it spans, and so do both
# lines of a bracketed or backslash-joined statement.
SNIPPET = '''"""Module docstring,
over two lines."""

# A comment.
import math


def f(x):
    """One-line docstring."""
    y = (x +
         1)  # trailing comment
    text = """not a
docstring"""
    return math.sqrt(y), text


class C:
    """Class docstring."""

    z = 1 \\
        + 2
'''


def run_script(cwd: Path, *paths: Path) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, paths)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_counts_a_known_snippet(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET, encoding="utf-8")
    assert run_script(tmp_path, path) == [f"10 {path}", "10 total"]


def test_counts_every_src_module_by_default(tmp_path):
    lines = run_script(tmp_path)
    counts = [(int(n), path) for n, path in (line.split(" ", 1) for line in lines)]
    *modules, (total, label) = counts
    assert label == "total" and total == sum(n for n, _ in modules)
    names = [Path(path).name for _, path in modules]
    assert "mutual.py" in names and "mutual_arrays.py" in names
    assert all(n > 0 for n, _ in modules)
