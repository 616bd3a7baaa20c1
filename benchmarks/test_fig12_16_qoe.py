"""Figures 12, 14, 15 and 16: video QoE and data rates vs session size.

Regenerates the QoE grids as campaigns: PSNR/SSIM/VIFp per (platform,
motion, N) in the US (Fig. 12), the low-to-high-motion degradation
(Fig. 14), the upload/download rates (Fig. 15), and the European
high-motion grid (Fig. 16), asserting the paper's orderings.
"""

from types import SimpleNamespace

import pytest

from repro.analysis.tables import TextTable
from repro.campaign import ScenarioSpec

from .conftest import campaign_records, run_once

PLATFORMS = ("zoom", "webex", "meet")


def qoe_cells(tmp_path_factory, name, region, motions, counts):
    """One figure's QoE grid, run as a campaign, as per-cell numbers."""
    records = campaign_records(tmp_path_factory, name, [
        ScenarioSpec("qoe", {
            "platform": PLATFORMS,
            "motion": motions,
            "participants": counts,
            "region": (region,),
            "compute_vifp": (True,),
        })
    ])
    return [
        SimpleNamespace(
            platform=record.params["platform"],
            motion=record.params["motion"],
            num_participants=record.params["participants"],
            psnr_mean=record.metrics["psnr_db"]["mean"],
            ssim_mean=record.metrics["ssim"]["mean"],
            vifp_mean=record.metrics["vifp"]["mean"],
            upload_mbps=record.metrics["upload_mbps"],
            download_mbps=record.metrics["download_mbps"],
        )
        for record in records
    ]


@pytest.fixture(scope="module")
def us_grid(tmp_path_factory):
    return qoe_cells(tmp_path_factory, "fig12-us", "US", ("low", "high"),
                     (2, 4))


@pytest.fixture(scope="module")
def eu_grid(tmp_path_factory):
    return qoe_cells(tmp_path_factory, "fig16-eu", "EU", ("high",), (3,))


def render_grid(cells):
    table = TextTable(
        ["Platform", "Motion", "N", "PSNR", "SSIM", "VIFp",
         "Up Mbps", "Down Mbps"]
    )
    for cell in cells:
        table.add_row(
            [
                cell.platform,
                cell.motion,
                cell.num_participants,
                f"{cell.psnr_mean:.1f}",
                f"{cell.ssim_mean:.3f}",
                f"{cell.vifp_mean:.3f}",
                f"{cell.upload_mbps:.2f}",
                f"{cell.download_mbps:.2f}",
            ]
        )
    return table.render()


def by_key(cells):
    return {
        (c.platform, c.motion, c.num_participants): c for c in cells
    }


def test_fig12_qoe_us(benchmark, emit, us_grid):
    cells = run_once(benchmark, lambda: us_grid)
    emit("Figure 12: video QoE metrics (US)", render_grid(cells))
    grid = by_key(cells)

    for platform in ("zoom", "webex", "meet"):
        # Low motion always beats high motion, every metric (Fig. 12).
        for n in (2, 4):
            low, high = grid[(platform, "low", n)], grid[(platform, "high", n)]
            assert low.psnr_mean > high.psnr_mean
            assert low.ssim_mean > high.ssim_mean
            assert low.vifp_mean > high.vifp_mean
    # Meet's two-party QoE boost disappears at N>2 (Section 4.3.1).
    assert (
        grid[("meet", "low", 2)].psnr_mean
        > grid[("meet", "low", 4)].psnr_mean
    )


def test_fig14_degradation(benchmark, emit, us_grid):
    cells = run_once(benchmark, lambda: us_grid)
    grid = by_key(cells)
    table = {}
    for platform in PLATFORMS:
        for n in (2, 4):
            low, high = grid[(platform, "low", n)], grid[(platform, "high", n)]
            table[(platform, n)] = {
                "psnr": low.psnr_mean - high.psnr_mean,
                "ssim": low.ssim_mean - high.ssim_mean,
                "vifp": low.vifp_mean - high.vifp_mean,
            }
    rendered = TextTable(["Platform", "N", "dPSNR", "dSSIM", "dVIFp"])
    for (platform, n), deltas in sorted(table.items()):
        rendered.add_row(
            [platform, n, f"{deltas['psnr']:.1f}",
             f"{deltas['ssim']:.3f}", f"{deltas['vifp']:.3f}"]
        )
    emit("Figure 14: QoE reduction low -> high motion (US)",
         rendered.render())

    # Degradation significant enough to drop a MOS level: the paper's
    # reading of Fig. 14 (PSNR drops of ~4-10 dB).
    for (platform, n), deltas in table.items():
        assert deltas["psnr"] > 2.0, (platform, n)
        assert deltas["ssim"] > 0.02, (platform, n)


def test_fig15_data_rates(benchmark, emit, us_grid):
    cells = run_once(benchmark, lambda: us_grid)
    grid = by_key(cells)
    table = TextTable(["Platform", "Motion", "N", "Upload", "Download"])
    for cell in cells:
        table.add_row(
            [cell.platform, cell.motion, cell.num_participants,
             f"{cell.upload_mbps:.2f}", f"{cell.download_mbps:.2f}"]
        )
    emit("Figure 15: upload/download data rates (US)", table.render())

    # Webex: highest multi-user rate, low motion halves it (4.3.1).
    webex_high = grid[("webex", "high", 4)].download_mbps
    webex_low = grid[("webex", "low", 4)].download_mbps
    assert webex_high > grid[("zoom", "high", 4)].download_mbps
    assert webex_high > grid[("meet", "high", 4)].download_mbps
    assert webex_low < 0.75 * webex_high

    # Zoom: least low/high difference; P2P (N=2) above relayed (N=4).
    zoom_low = grid[("zoom", "low", 4)].download_mbps
    zoom_high = grid[("zoom", "high", 4)].download_mbps
    assert zoom_low > 0.7 * zoom_high
    assert (
        grid[("zoom", "low", 2)].download_mbps
        > grid[("zoom", "low", 4)].download_mbps
    )

    # Meet: big two-party rate, much lower multi-party rate.
    assert (
        grid[("meet", "low", 2)].download_mbps
        > 1.5 * grid[("meet", "low", 4)].download_mbps
    )


def test_fig16_qoe_europe(benchmark, emit, eu_grid):
    cells = run_once(benchmark, lambda: eu_grid)
    emit("Figure 16: video QoE metrics (Europe, high motion)",
         render_grid(cells))

    grid = by_key(cells)
    # All three deliver comparable European QoE; Meet holds a slight
    # edge or parity thanks to its in-continent endpoints (4.3.2).
    meet = grid[("meet", "high", 3)]
    for platform in ("zoom", "webex"):
        other = grid[(platform, "high", 3)]
        assert meet.psnr_mean > other.psnr_mean - 6.0
