"""Figures 17-18: video and audio QoE under bandwidth constraints.

Regenerates the rate-limit sweeps (250 Kbps / 500 Kbps / 1 Mbps /
Infinite) and asserts the paper's personalities: Meet degrades most
gracefully, Webex collapses (video stalls/disappears at <= 1 Mbps and
its audio deteriorates), and Zoom/Meet audio stays essentially flat.
"""

from types import SimpleNamespace

import pytest

from repro.analysis.tables import TextTable
from repro.campaign import ScenarioSpec
from repro.experiments.bandwidth_study import RATE_LIMITS, limit_label

from .conftest import campaign_records, run_once


@pytest.fixture(scope="module")
def cap_grid(tmp_path_factory):
    # One session per cell at benchmark scale; the cell runner extends
    # session duration so adaptation reaches steady state.
    records = campaign_records(tmp_path_factory, "fig17-caps", [
        ScenarioSpec("bandwidth", {
            "platform": ("zoom", "webex", "meet"),
            "motion": ("high",),
            "limit_bps": RATE_LIMITS,
        })
    ])
    return [
        SimpleNamespace(
            platform=record.params["platform"],
            limit_label=record.metrics["limit_label"],
            psnr_mean=record.metrics["psnr_db"],
            mos_lqo_mean=record.metrics["mos_lqo"],
        )
        for record in records
    ]


def cells_by_key(cells):
    return {(c.platform, c.limit_label): c for c in cells}


def test_fig17_video_under_caps(benchmark, emit, cap_grid):
    cells = run_once(benchmark, lambda: cap_grid)
    grid = cells_by_key(cells)

    table = TextTable(
        ["Platform"] + [limit_label(l) for l in RATE_LIMITS]
    )
    for platform in ("zoom", "webex", "meet"):
        table.add_row(
            [platform]
            + [
                f"{grid[(platform, limit_label(l))].psnr_mean:.1f}"
                for l in RATE_LIMITS
            ]
        )
    emit("Figure 17: video PSNR under download rate limits", table.render())

    # Webex: "video frequently stalls and even completely disappears"
    # with caps of 1 Mbps or less.
    webex_1m = grid[("webex", "1Mbps")]
    assert webex_1m.psnr_mean < grid[("zoom", "1Mbps")].psnr_mean - 5
    assert webex_1m.psnr_mean < grid[("meet", "1Mbps")].psnr_mean - 5
    assert (
        grid[("webex", "500Kbps")].psnr_mean
        < grid[("webex", "Infinite")].psnr_mean - 8
    )

    # Zoom and Meet survive a 1 Mbps cap nearly unharmed, and never
    # collapse the way Webex does; Zoom shows its largest drop at the
    # tightest cap (the paper's "sudden drop" at 250 Kbps).
    for platform in ("zoom", "meet"):
        assert (
            grid[(platform, "1Mbps")].psnr_mean
            > grid[(platform, "Infinite")].psnr_mean - 6
        )
        assert grid[(platform, "250Kbps")].psnr_mean > 12
    assert (
        grid[("zoom", "250Kbps")].psnr_mean
        < grid[("zoom", "1Mbps")].psnr_mean - 1
    )


def test_fig18_audio_under_caps(benchmark, emit, cap_grid):
    cells = run_once(benchmark, lambda: cap_grid)
    grid = cells_by_key(cells)

    table = TextTable(
        ["Platform"] + [limit_label(l) for l in RATE_LIMITS]
    )
    for platform in ("zoom", "webex", "meet"):
        table.add_row(
            [platform]
            + [
                f"{grid[(platform, limit_label(l))].mos_lqo_mean:.2f}"
                for l in RATE_LIMITS
            ]
        )
    emit("Figure 18: audio MOS-LQO under download rate limits",
         table.render())

    # Zoom and Meet audio: "virtually constant" MOS under caps.
    for platform in ("zoom", "meet"):
        unlimited = grid[(platform, "Infinite")].mos_lqo_mean
        worst = min(
            grid[(platform, limit_label(l))].mos_lqo_mean
            for l in RATE_LIMITS
        )
        assert unlimited > 4.0
        assert worst > unlimited - 1.1

    # Webex audio deteriorates noticeably at 500 Kbps or less.
    webex_free = grid[("webex", "Infinite")].mos_lqo_mean
    webex_500 = grid[("webex", "500Kbps")].mos_lqo_mean
    webex_250 = grid[("webex", "250Kbps")].mos_lqo_mean
    assert webex_free > 4.0
    assert webex_500 < webex_free - 1.5
    assert webex_250 < webex_free - 1.5
