"""The one writer behind every CSV file the command line emits."""

from __future__ import annotations


def csv_text(header_lines, columns, rows) -> str:
    """Header lines as `# ` comments, the column row, then one line per row.

    Each row arrives as its formatted line of comma-separated cells (floats
    as repr, so values round-trip exactly); none of the cells written by the
    laboratory contain commas or quotes, so no quoting is needed.
    """
    lines = [f"# {line}" for line in header_lines]
    lines.append(",".join(columns))
    lines.extend(rows)
    return "\n".join(lines) + "\n"
