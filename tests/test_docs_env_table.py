"""The documented ``REPRO_*`` table matches the variables the library reads.

``docs/experiments.md`` § Environment variables is the canonical list of
every ``REPRO_*`` knob; module docstrings point there instead of repeating
it.  This test keeps the table honest in both directions: a variable added
to ``src/repro`` without a row fails, and so does a row left behind after
its variable is removed.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS_DOC = REPO_ROOT / "docs" / "experiments.md"

#: A whole string literal naming one variable, as every environment read in
#: ``src/repro`` spells it (``JOBS_ENV_VAR = "REPRO_JOBS"``).
_ENV_LITERAL = re.compile(r"""["'](REPRO_[A-Z_]+)["']""")
_TABLE_ROW = re.compile(r"^\| `(REPRO_[A-Z_]+)` \|", re.MULTILINE)


def source_env_vars() -> set:
    names = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        names.update(_ENV_LITERAL.findall(path.read_text()))
    return names


def documented_env_vars() -> set:
    text = EXPERIMENTS_DOC.read_text()
    section = text.split("\n## Environment variables\n", 1)[1].split("\n## ", 1)[0]
    return set(_TABLE_ROW.findall(section))


def test_env_table_lists_exactly_the_variables_src_reads():
    in_source = source_env_vars()
    documented = documented_env_vars()
    assert in_source, "no REPRO_* environment reads found under src/repro"
    assert sorted(in_source - documented) == [], "undocumented REPRO_* variables"
    assert sorted(documented - in_source) == [], "documented but never read"
