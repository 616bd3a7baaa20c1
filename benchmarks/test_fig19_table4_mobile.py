"""Figure 19 and Table 4: mobile resource consumption.

Regenerates the Android scenario sweep (CPU, data rate, battery) as a
campaign and the conference-size stress table, asserting Finding-5's
shapes.  Table 4 stays on :func:`run_table4`, which runs every
conference size from one shared seed: Meet's saturation by N=11 does
not hold when each size gets its own campaign seed.
"""

from types import SimpleNamespace

import pytest

from repro.analysis.tables import TextTable
from repro.campaign import ScenarioSpec
from repro.experiments.mobile_study import MOBILE_SCENARIOS, run_table4

from .conftest import campaign_records, run_once


@pytest.fixture(scope="module")
def fig19(tmp_path_factory):
    records = campaign_records(tmp_path_factory, "fig19-mobile", [
        ScenarioSpec("mobile", {
            "platform": ("zoom", "webex", "meet"),
            "scenario": MOBILE_SCENARIOS,
        })
    ])
    return {
        (record.params["platform"], record.params["scenario"]):
            SimpleNamespace(readings={
                device: SimpleNamespace(**reading)
                for device, reading in record.metrics["devices"].items()
            })
        for record in records
    }


def test_fig19_mobile_resources(benchmark, emit, fig19):
    results = run_once(benchmark, lambda: fig19)

    table = TextTable(
        ["Platform", "Scenario", "S10 CPU%", "S10 Mbps",
         "J3 CPU%", "J3 Mbps", "J3 mAh"]
    )
    for (platform, scenario), result in results.items():
        s10, j3 = result.readings["S10"], result.readings["J3"]
        table.add_row(
            [platform, scenario,
             f"{s10.median_cpu_pct:.0f}", f"{s10.mean_rate_mbps:.2f}",
             f"{j3.median_cpu_pct:.0f}", f"{j3.mean_rate_mbps:.2f}",
             f"{j3.discharge_mah:.2f}"]
        )
    emit("Figure 19: mobile resource consumption", table.render())

    def cpu(platform, scenario, device="S10"):
        return results[(platform, scenario)].readings[device].median_cpu_pct

    def rate(platform, scenario, device="S10"):
        return results[(platform, scenario)].readings[device].mean_rate_mbps

    # (a) CPU: 2-3 full cores; Meet adds ~50% on the high-end device.
    for platform in ("zoom", "webex", "meet"):
        assert 120 <= cpu(platform, "LM", "J3") <= 280
    assert cpu("meet", "LM") > cpu("zoom", "LM") + 25

    # Gallery view halves Zoom's CPU, not Webex's or Meet's.
    assert cpu("zoom", "LM-View") < 0.75 * cpu("zoom", "LM")
    assert cpu("webex", "LM-View") > 0.8 * cpu("webex", "LM")

    # Screen-off: Zoom/Meet idle down, Webex stays ~125%.
    assert cpu("zoom", "LM-Off") < 60
    assert cpu("meet", "LM-Off") < 70
    assert cpu("webex", "LM-Off") > 100

    # (b) Rate: Meet most bandwidth-hungry; Webex adapts to the J3;
    # Zoom sticks to its default.
    assert rate("meet", "LM") > 1.5
    assert rate("webex", "HM", "J3") < 0.7 * rate("webex", "HM", "S10")
    assert 0.5 <= rate("zoom", "LM") <= 1.2
    # Screen off: only audio remains.
    for platform in ("zoom", "webex", "meet"):
        assert rate(platform, "LM-Off") < 0.25

    # (c) Battery: camera on costs most; screen-off saves ~half.
    for platform in ("zoom", "meet"):
        video = results[(platform, "LM-Video-View")].readings["J3"].discharge_mah
        lm = results[(platform, "LM")].readings["J3"].discharge_mah
        off = results[(platform, "LM-Off")].readings["J3"].discharge_mah
        assert video > lm > off
        assert off < 0.6 * lm


def test_table4_conference_size(benchmark, emit):
    from .conftest import BENCH_SCALE

    results = run_once(benchmark, run_table4, scale=BENCH_SCALE)

    table = TextTable(
        ["N", "Platform", "View", "Rate S10/J3 (Mbps)", "CPU S10/J3 (%)"]
    )
    for (platform, n, view), result in results.items():
        s10, j3 = result.readings["S10"], result.readings["J3"]
        table.add_row(
            [n, platform, view,
             f"{s10.mean_rate_mbps:.2f}/{j3.mean_rate_mbps:.2f}",
             f"{s10.median_cpu_pct:.0f}/{j3.median_cpu_pct:.0f}"]
        )
    emit("Table 4: data rate and CPU vs videoconference size",
         table.render())

    def rate(platform, n, view, device="S10"):
        return results[(platform, n, view)].readings[device].mean_rate_mbps

    def cpu(platform, n, view, device="S10"):
        return results[(platform, n, view)].readings[device].median_cpu_pct

    # Zoom gallery: twofold rate increase from N=3 to N=6 (4 tiles),
    # then flat to N=11; CPU flat in gallery.
    assert rate("zoom", 6, "Gallery") > 1.7 * rate("zoom", 3, "Gallery")
    assert abs(rate("zoom", 11, "Gallery") - rate("zoom", 6, "Gallery")) < 0.25
    assert abs(cpu("zoom", 11, "Gallery") - cpu("zoom", 6, "Gallery")) < 30

    # Webex full screen: per-device rates flat in N.
    assert abs(rate("webex", 11, "Full screen") - rate("webex", 3, "Full screen")) < 0.4
    assert rate("webex", 6, "Full screen", "J3") < 0.7 * rate(
        "webex", 6, "Full screen", "S10"
    )

    # Meet: rates high regardless of view; growth saturates by N=11
    # (UIs render at most four tiles).
    assert rate("meet", 3, "Full screen") > 1.5
    assert rate("meet", 11, "Full screen") < rate("meet", 6, "Full screen") + 0.5
