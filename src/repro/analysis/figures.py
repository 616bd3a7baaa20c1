"""ASCII renderings of the paper's figure types.

Benchmarks regenerate figures as text: CDF staircases for the lag
figures and grouped bar charts for the QoE/rate/resource figures.  No
plotting dependency is needed and outputs diff cleanly in CI logs.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..errors import AnalysisError
from .cdf import Cdf


def ascii_cdf(
    series: Dict[str, Sequence[float]],
    width: int = 60,
    quantile_marks: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9),
    unit: str = "ms",
) -> str:
    """Render a family of CDFs as quantile strips.

    Each labelled series becomes one line with its quantiles placed on
    a shared horizontal axis -- a text rendition of Figs. 4-7.
    """
    if not series:
        raise AnalysisError("no series to render")
    cdfs = {label: Cdf.from_samples(s) for label, s in series.items()}
    lo = min(c.values[0] for c in cdfs.values())
    hi = max(c.values[-1] for c in cdfs.values())
    span = max(hi - lo, 1e-9)
    label_width = max(len(label) for label in cdfs)

    lines = []
    for label, cdf in cdfs.items():
        strip = [" "] * (width + 1)
        for q in quantile_marks:
            x = cdf.quantile(q)
            pos = int((x - lo) / span * width)
            strip[pos] = "*" if q == 0.5 else "+"
        lines.append(f"{label.ljust(label_width)} |{''.join(strip)}|")
    axis = (
        f"{''.ljust(label_width)}  {lo:.1f}{unit}"
        f"{''.rjust(max(1, width - 12))}{hi:.1f}{unit}"
    )
    lines.append(axis)
    lines.append(f"{''.ljust(label_width)}  (+ = p10/p25/p75/p90, * = median)")
    return "\n".join(lines)


def ascii_bar_chart(
    values: Dict[str, float],
    width: int = 40,
    unit: str = "",
    digits: int = 2,
) -> str:
    """Render labelled values as horizontal bars (Figs. 12-19 style)."""
    if not values:
        raise AnalysisError("no values to render")
    peak = max(abs(v) for v in values.values())
    peak = peak if peak > 0 else 1.0
    label_width = max(len(label) for label in values)
    lines = []
    for label, value in values.items():
        bar = "#" * max(0, int(round(abs(value) / peak * width)))
        lines.append(
            f"{label.ljust(label_width)} | {bar} {value:.{digits}f}{unit}"
        )
    return "\n".join(lines)
