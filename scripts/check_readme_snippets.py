#!/usr/bin/env python3
"""CI smoke check: every ```python block in README.md runs as written.

Each block runs in its own interpreter (a fresh namespace, so a table row
one block adds cannot leak into the next) with
``REPRO_EXPERIMENT_SCALE=0.1`` and a throwaway ``REPRO_CACHE_DIR``.  A
block that raises, or a README with no python block at all, exits
non-zero.

Usage::

    PYTHONPATH=src python scripts/check_readme_snippets.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def snippets(readme: Path):
    """``(line, code)`` of every python block, ``line`` 1-based."""
    text = readme.read_text(encoding="utf-8")
    for match in BLOCK.finditer(text):
        yield text.count("\n", 0, match.start()) + 1, match.group(1)


def main() -> int:
    readme = REPO_ROOT / "README.md"
    blocks = list(snippets(readme))
    if not blocks:
        print(f"no ```python blocks in {readme}", file=sys.stderr)
        return 1
    failures = 0
    with tempfile.TemporaryDirectory(prefix="readme-snippets-") as cache_dir:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_EXPERIMENT_SCALE"] = "0.1"
        env["REPRO_CACHE_DIR"] = cache_dir
        for line, code in blocks:
            print(f"--- README.md:{line}", flush=True)
            completed = subprocess.run(
                [sys.executable, "-c", code], cwd=REPO_ROOT, env=env
            )
            if completed.returncode != 0:
                print(f"README.md:{line}: exit code {completed.returncode}", file=sys.stderr)
                failures += 1
    print(f"{len(blocks) - failures}/{len(blocks)} README python blocks ran")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
