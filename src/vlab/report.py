"""Deterministic tabular reports for sweeps and CLI commands.

A report is a list of metadata lines plus homogeneous rows.  Serialization
is fully deterministic: metadata in insertion order as ``# key=value``
comment lines, floats always printed with 17 significant digits, newline
fixed to ``\\n``.  NaN cells are rejected (a NaN in a sweep is a bug, not a
data point).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

FLOAT_FMT = ".17g"  # round-trips IEEE doubles exactly


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            raise ValueError("NaN cell in report")
        return format(value, FLOAT_FMT)
    return str(value)


@dataclass
class ExperimentReport:
    """Metadata plus rows under a fixed column list."""

    columns: list[str]
    meta: dict[str, str] = field(default_factory=dict)
    rows: list[tuple] = field(default_factory=list)

    def add_meta(self, key: str, value) -> None:
        self.meta[str(key)] = format_cell(value)

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(f"row has {len(cells)} cells, expected {len(self.columns)}")
        self.rows.append(tuple(cells))

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        for key, value in self.meta.items():
            buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([format_cell(c) for c in row])
        return buf.getvalue()

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(self.to_csv_text())
