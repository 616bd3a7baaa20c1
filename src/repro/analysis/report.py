"""Markdown report assembly for experiment results.

Collects regenerated artifacts (tables, CDF summaries, notes) into a
single Markdown document -- the shape of EXPERIMENTS.md -- so full-scale
validation runs can emit their own paper-vs-measured record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..errors import AnalysisError
from .cdf import Cdf
from .tables import TextTable


@dataclass
class ReportSection:
    """One artifact in the report."""

    title: str
    body: str
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        """This section as Markdown."""
        parts = [f"## {self.title}", "", "```", self.body, "```"]
        if self.notes:
            parts.append("")
            parts.extend(f"- {note}" for note in self.notes)
        return "\n".join(parts)


class ExperimentReport:
    """An ordered collection of report sections."""

    def __init__(self, title: str) -> None:
        if not title:
            raise AnalysisError("a report needs a title")
        self.title = title
        self._sections: List[ReportSection] = []

    def __len__(self) -> int:
        return len(self._sections)

    def add_section(
        self, title: str, body: str, notes: Sequence[str] = ()
    ) -> ReportSection:
        """Append a pre-rendered artifact."""
        section = ReportSection(title=title, body=body, notes=list(notes))
        self._sections.append(section)
        return section

    def replace_section(
        self, title: str, body: str, notes: Sequence[str] = ()
    ) -> ReportSection:
        """Upsert a section in place.

        An existing section keeps its position (a live report refreshed
        incrementally -- e.g. by ``campaign watch`` -- does not reorder
        on every update); a new title is appended.
        """
        for index, section in enumerate(self._sections):
            if section.title == title:
                replacement = ReportSection(
                    title=title, body=body, notes=list(notes)
                )
                self._sections[index] = replacement
                return replacement
        return self.add_section(title, body, notes)

    def add_table(
        self,
        title: str,
        headers: Sequence[str],
        rows: Sequence[Sequence[object]],
        notes: Sequence[str] = (),
    ) -> ReportSection:
        """Append a table artifact."""
        table = TextTable(headers)
        for row in rows:
            table.add_row(row)
        return self.add_section(title, table.render(), notes)

    def add_cdf_summary(
        self,
        title: str,
        series: Dict[str, Sequence[float]],
        unit: str = "ms",
        notes: Sequence[str] = (),
    ) -> ReportSection:
        """Append p10/median/p90 rows for a family of distributions."""
        headers = ["Series", f"p10 ({unit})", f"median ({unit})",
                   f"p90 ({unit})", "n"]
        rows = []
        for label, samples in series.items():
            cdf = Cdf.from_samples(samples)
            rows.append(
                [label, f"{cdf.quantile(0.1):.1f}", f"{cdf.median:.1f}",
                 f"{cdf.quantile(0.9):.1f}", len(cdf)]
            )
        return self.add_table(title, headers, rows, notes)

    def render(self) -> str:
        """The full report as Markdown."""
        parts = [f"# {self.title}", ""]
        for section in self._sections:
            parts.append(section.render())
            parts.append("")
        return "\n".join(parts)

    def save(self, path: str) -> None:
        """Write the rendered report to a file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render())
