"""Plain-text tables shared by the console renderers and the report layer.

This is the canonical home of :class:`ReportTable` (it moved here from
``repro.analysis.report`` when the reporting subsystem was introduced; the
re-export has since been retired).  The tables are deliberately
dependency-free — aligned monospace columns that read equally well on a
terminal and inside a fenced Markdown block.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def format_float(value: float, digits: int = 3) -> str:
    """Uniform float formatting used across benchmark and report output."""
    return f"{value:.{digits}f}"


class ReportTable:
    """A small aligned-column text table."""

    def __init__(self, columns: Sequence[str], title: str = "") -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Cell) -> None:
        """Append one row; cell count must match the column count."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([self._format(cell) for cell in cells])

    @staticmethod
    def _format(cell: Cell) -> str:
        if isinstance(cell, float):
            return format_float(cell)
        return str(cell)

    def render(self) -> str:
        """The table as aligned monospace text."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def markdown_table(columns: Sequence[str], rows: Iterable[Sequence[Cell]]) -> str:
    """Render a GitHub-flavoured Markdown table (floats via :func:`format_float`)."""
    def fmt(cell: Cell) -> str:
        if isinstance(cell, float):
            return format_float(cell)
        return str(cell)

    lines = [
        "| " + " | ".join(str(c) for c in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        cells = [fmt(cell) for cell in row]
        if len(cells) != len(columns):
            raise ValueError(f"expected {len(columns)} cells, got {len(cells)}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
