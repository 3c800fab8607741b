#!/usr/bin/env python3
"""CI smoke check: every ```python block in the user docs runs as written.

README.md's blocks each run in their own interpreter (a fresh namespace,
so a table row one block adds cannot leak into the next).  The blocks of
docs/experiments.md build on each other (later ones use ``spec`` and
``run_sweep`` from earlier ones), so they run in order in one
interpreter.  Every run uses ``REPRO_EXPERIMENT_SCALE=0.1`` and a
throwaway ``REPRO_CACHE_DIR``.  A block that raises, or a document with
no python block at all, exits non-zero; a traceback names the block's
line in its document.

Usage::

    PYTHONPATH=src python scripts/check_readme_snippets.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)

#: Document -> whether its blocks share one interpreter.
DOCUMENTS = {"README.md": False, "docs/experiments.md": True}

#: Runs the ``[path, line, code]`` blocks read from stdin in one namespace;
#: each block is padded to its own line so tracebacks point into the document.
RUNNER = """
import json, sys
namespace = {"__name__": "__main__"}
for path, line, code in json.load(sys.stdin):
    print(f"--- {path}:{line}", flush=True)
    exec(compile("\\n" * line + code, path, "exec"), namespace)
"""


def snippets(document: Path):
    """``(line, code)`` of every python block, ``line`` 1-based."""
    text = document.read_text(encoding="utf-8")
    for match in BLOCK.finditer(text):
        yield text.count("\n", 0, match.start()) + 1, match.group(1)


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="doc-snippets-") as cache_dir:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_EXPERIMENT_SCALE"] = "0.1"
        env["REPRO_CACHE_DIR"] = cache_dir
        for path, shared in DOCUMENTS.items():
            blocks = [[path, line, code] for line, code in snippets(REPO_ROOT / path)]
            if not blocks:
                print(f"no ```python blocks in {path}", file=sys.stderr)
                failures += 1
                continue
            runs = [blocks] if shared else [[block] for block in blocks]
            failed = 0
            for run in runs:
                completed = subprocess.run(
                    [sys.executable, "-c", RUNNER],
                    input=json.dumps(run),
                    text=True,
                    cwd=REPO_ROOT,
                    env=env,
                )
                if completed.returncode != 0:
                    print(f"{path}: exit code {completed.returncode}", file=sys.stderr)
                    failed += 1
            mode = "in one interpreter" if shared else "each in its own interpreter"
            print(
                f"{path}: {len(runs) - failed}/{len(runs)} runs passed "
                f"({len(blocks)} python blocks, {mode})"
            )
            failures += failed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
