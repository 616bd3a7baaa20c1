"""Command-line interface: run paper scenarios from the shell.

Single-scenario drivers (``python -m repro`` or the ``repro`` console
script)::

    python -m repro lag --platform zoom --host US-East --group US
    python -m repro endpoints --platform meet --sessions 10
    python -m repro qoe --platform webex --motion high -n 4
    python -m repro mobile --platform meet --scenario LM-View
    python -m repro dynamics --platform zoom --scenario handover

Each subcommand runs the corresponding experiment driver at a
configurable scale and prints a paper-style table.

Measurement campaigns (:mod:`repro.campaign`) -- parallel, persistent,
resumable grids over platform x scenario x network condition::

    # Execute a grid into a JSONL store, 2 cells at a time.
    python -m repro campaign run --store campaign.jsonl \\
        --platforms zoom meet --kinds lag qoe --workers 2

    # Interrupted?  Resume skips every completed cell.
    python -m repro campaign run --store campaign.jsonl \\
        --platforms zoom meet --kinds lag qoe --workers 2 --resume

    # Progress and paper-style report, from the store alone.
    python -m repro campaign status --store campaign.jsonl
    python -m repro campaign report --store campaign.jsonl -o report.md

    # Live status from another terminal while a run is in flight.
    python -m repro campaign watch --store campaign.jsonl

    # Compact a store after a crashy run: drop error records that a
    # retry's ok superseded, heal torn-tail crash debris.
    python -m repro campaign gc --store campaign.jsonl

Stores are append-only JSONL files.  ``--workers N`` above 1 runs
cells on N owned worker processes that survive crashes and timeouts.
``campaign chaos`` proves the fabric's durability claim end to end:
one deterministic case per fault class (worker crashes, hangs, torn
store appends, checkpoint corruption, crash loops, poison cells, a
``campaign run`` SIGKILLed mid-grid and resumed with no worker left
behind, a ``campaign gc`` SIGKILLed in its compaction crash window),
asserting the surviving store is bit-identical in cell content to a
clean run.

``campaign run --smoke`` substitutes a seconds-long 2x2 grid (an
end-to-end check used by CI); ``--paper-scale`` runs the full
700-session protocol of the paper.  ``campaign run`` flags must match
the store's recorded spec when resuming -- the spec hash is verified.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis.tables import TextTable
from .campaign.aggregate import report_from_store, status_table
from .campaign.grids import calibration_campaign, paper_campaign, smoke_campaign
from .campaign.runner import run_campaign
from .campaign.spec import KNOWN_KINDS, CampaignSpec
from .campaign.stores import open_store
from .errors import ReproError
from .experiments.dynamics_study import DYNAMICS_SCENARIOS, run_dynamics_cell
from .experiments.endpoint_study import run_endpoint_study
from .experiments.lag_study import run_lag_scenario
from .experiments.mobile_study import MOBILE_SCENARIOS, run_mobile_scenario
from .experiments.qoe_study import EU_ROSTER, US_ROSTER, run_qoe_cell
from .experiments.scale import PAPER_SCALE, ExperimentScale
from .media.frames import FrameSpec

PLATFORM_CHOICES = ("zoom", "webex", "meet")


def _scale_from(args: argparse.Namespace) -> ExperimentScale:
    return ExperimentScale(
        sessions=args.sessions,
        lag_session_duration_s=max(6.0, args.duration),
        qoe_session_duration_s=max(5.0, args.duration),
        content_spec=FrameSpec(160, 120, 15),
        probe_count=args.probes,
        seed=args.seed,
    )


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sessions", type=int, default=2)
    parser.add_argument("--duration", type=float, default=12.0,
                        help="session duration in seconds")
    parser.add_argument("--probes", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--platform", choices=PLATFORM_CHOICES, default="zoom")
    _add_scale_args(parser)


def cmd_lag(args: argparse.Namespace) -> int:
    result = run_lag_scenario(
        args.platform, args.host, args.group, scale=_scale_from(args)
    )
    table = TextTable(["Receiver", "Median lag (ms)", "Mean RTT (ms)"])
    for receiver in sorted(result.lags_ms):
        rtt = float(np.nanmean(result.rtts_ms[receiver]))
        table.add_row(
            [receiver, f"{result.median_lag_ms(receiver):.1f}", f"{rtt:.1f}"]
        )
    print(table.render())
    lo, hi = result.lag_range_ms()
    print(f"\nmedian-lag band: {lo:.1f} - {hi:.1f} ms "
          f"({args.platform}, host {args.host})")
    return 0


def cmd_endpoints(args: argparse.Namespace) -> int:
    result = run_endpoint_study(
        args.platform, scale=_scale_from(args), sessions=args.sessions
    )
    table = TextTable(["Client", "Distinct endpoints"])
    for client, endpoints in sorted(result.per_client_endpoints.items()):
        table.add_row([client, len(endpoints)])
    print(table.render())
    print(f"\nmean endpoints/client over {args.sessions} sessions: "
          f"{result.mean_endpoints_per_client():.1f}; "
          f"ports observed: {sorted(result.ports)}")
    return 0


def cmd_qoe(args: argparse.Namespace) -> int:
    roster = US_ROSTER if args.region == "US" else EU_ROSTER
    cell = run_qoe_cell(
        args.platform,
        args.motion,
        args.participants,
        roster=roster,
        scale=_scale_from(args),
        compute_vifp=not args.no_vifp,
    )
    table = TextTable(["Metric", "Mean", "Std"])
    table.add_row(["PSNR (dB)", f"{cell.psnr_mean:.1f}", f"{cell.psnr_std:.1f}"])
    table.add_row(["SSIM", f"{cell.ssim_mean:.3f}", f"{cell.ssim_std:.3f}"])
    if not args.no_vifp:
        table.add_row(
            ["VIFp", f"{cell.vifp_mean:.3f}", f"{cell.vifp_std:.3f}"]
        )
    table.add_row(["Upload (Mbps)", f"{cell.upload_mbps:.2f}", ""])
    table.add_row(["Download (Mbps)", f"{cell.download_mbps:.2f}", ""])
    print(table.render())
    return 0


def cmd_dynamics(args: argparse.Namespace) -> int:
    cell = run_dynamics_cell(
        args.platform,
        args.scenario,
        scale=_scale_from(args),
        motion=args.motion,
    )
    table = TextTable(
        ["Phase", "PSNR (dB)", "SSIM", "Down (Mbps)", "Freeze", "Drops"]
    )
    for report in cell.phases:
        table.add_row([
            report.name,
            f"{report.psnr_mean:.1f}",
            f"{report.ssim_mean:.3f}",
            f"{report.download_mbps:.2f}",
            f"{report.freeze_fraction:.2f}",
            report.shaper_dropped,
        ])
    print(table.render())
    print(f"\noverall: PSNR {cell.psnr_mean:.1f} dB, SSIM {cell.ssim_mean:.3f} "
          f"({args.platform}, {args.scenario} scenario, "
          f"{cell.sessions} sessions)")
    return 0


def cmd_mobile(args: argparse.Namespace) -> int:
    result = run_mobile_scenario(
        args.platform,
        args.scenario,
        scale=_scale_from(args),
        num_participants=args.participants,
    )
    table = TextTable(["Device", "Median CPU %", "Rate (Mbps)", "mAh"])
    for device, reading in result.readings.items():
        table.add_row(
            [device, f"{reading.median_cpu_pct:.0f}",
             f"{reading.mean_rate_mbps:.2f}",
             f"{reading.discharge_mah:.2f}"]
        )
    print(table.render())
    return 0


def _campaign_spec_from(args: argparse.Namespace):
    if args.spec_json:
        return CampaignSpec.load(args.spec_json)
    if args.calibration:
        return calibration_campaign(
            cells=args.calibration,
            spin_ms=args.spin_ms,
            master_seed=args.seed,
        )
    if args.smoke:
        return smoke_campaign(master_seed=args.seed)
    if args.paper_scale:
        scale = PAPER_SCALE.with_seed(args.seed)
    else:
        scale = _scale_from(args)
    return paper_campaign(
        platforms=args.platforms,
        kinds=args.kinds,
        scale=scale,
        master_seed=args.seed,
        name=args.name,
    )


def cmd_campaign_run(args: argparse.Namespace) -> int:
    spec = _campaign_spec_from(args)

    def progress(record, done, total):
        print(f"[{done}/{total}] {record.cell_id}: {record.status} "
              f"({record.duration_s:.2f}s)")
        if not record.ok:
            print(f"    {record.error}")

    try:
        summary = run_campaign(
            spec,
            args.store,
            workers=args.workers,
            resume=args.resume,
            progress=progress,
            max_attempts=args.max_attempts,
            cell_timeout_s=args.cell_timeout,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"\ncampaign {spec.name!r}: {summary.total} cells, "
          f"{summary.skipped} resumed, {summary.executed} executed, "
          f"{summary.failed} failed in {summary.duration_s:.1f}s "
          f"(workers={args.workers}, store={args.store})")
    if summary.retried:
        print(f"fabric absorbed {summary.retried} retried cell attempts "
              "(worker crashes / timeouts)")
    if summary.quarantined:
        print(f"fabric quarantined {summary.quarantined} poison cell(s) "
              "-- see their fabric:poison error records")
    if summary.degraded:
        print(f"fabric degraded executor: {summary.degraded}")
    return 1 if summary.failed else 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    try:
        store = open_store(args.store)
        spec = store.spec()
        records = store.cell_records()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"campaign {spec.name!r} (spec hash {spec.spec_hash()})")
    print(status_table(spec, records).render())
    return 0


def cmd_campaign_watch(args: argparse.Namespace) -> int:
    from .campaign.fabric import watch_store

    try:
        snapshot = watch_store(
            args.store,
            interval_s=args.interval,
            once=args.once,
            report_path=args.report,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    return 0 if (snapshot.complete and not snapshot.failed) else 1


def _release_workdir(args: argparse.Namespace, workdir: str,
                     failed: bool, label: str) -> None:
    """Keep a work directory that holds failure evidence, and say where.

    A temp directory made for a passing run is removed; a ``--workdir``
    the user gave is never deleted.
    """
    if failed:
        print(f"{label}: evidence kept in {workdir}")
    elif args.workdir is None:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)


def cmd_campaign_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from .campaign.fabric import run_chaos_matrix

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        results = run_chaos_matrix(
            workdir,
            faults=args.faults,
            quick=args.quick,
            chaos_seed=args.chaos_seed,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _release_workdir(args, workdir, True, "chaos")
        return 2
    failures = 0
    for result in results:
        tag = f"chaos[{result.fault}]"
        if result.ok:
            note = f" -- {result.detail}" if result.detail else ""
            print(f"{tag}: PASS -- fault fired {result.fired}x, survivor "
                  f"bit-identical to clean run "
                  f"({result.duration_s:.1f}s){note}")
        else:
            failures += 1
            print(f"{tag}: FAIL -- fault fired {result.fired}x, "
                  f"{len(result.mismatches)} problem(s)")
            for mismatch in result.mismatches:
                print(f"  {mismatch}")
    print(f"chaos matrix: {len(results) - failures}/{len(results)} "
          "cases survived")
    _release_workdir(args, workdir, bool(failures), "chaos")
    return 1 if failures else 0


def cmd_campaign_gc(args: argparse.Namespace) -> int:
    try:
        store = open_store(args.store)
        stats = store.gc()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"gc {args.store}: kept {stats.records_kept} records, "
          f"dropped {stats.errors_dropped} superseded error records, "
          f"healed {stats.debris_bytes} bytes of crash debris")
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    try:
        report = report_from_store(args.store)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        report.save(args.output)
        print(f"wrote {args.output}")
    else:
        print(report.render())
    return 0


def _add_campaign_subcommands(
    subparsers: argparse._SubParsersAction,
) -> None:
    campaign = subparsers.add_parser(
        "campaign",
        help="parallel, persistent, resumable measurement campaigns",
    )
    actions = campaign.add_subparsers(dest="campaign_command", required=True)

    run = actions.add_parser("run", help="execute a campaign grid")
    _add_scale_args(run)
    run.add_argument("--store", default="campaign.jsonl",
                     help="result store path (a JSONL file)")
    run.add_argument("--platforms", nargs="+", choices=PLATFORM_CHOICES,
                     default=list(PLATFORM_CHOICES))
    run.add_argument("--kinds", nargs="+", choices=KNOWN_KINDS,
                     default=None, help="restrict scenario kinds")
    run.add_argument("--workers", type=int, default=1,
                     help="parallel worker processes (1 = in-process)")
    run.add_argument("--resume", action="store_true",
                     help="extend an existing store, skipping "
                          "completed cells")
    run.add_argument("--name", default="paper-protocol")
    run.add_argument("--smoke", action="store_true",
                     help="tiny 2-platform lag+qoe grid (seconds)")
    run.add_argument("--paper-scale", action="store_true",
                     help="full 700-session protocol scale")
    run.add_argument("--spec-json", default=None, metavar="PATH",
                     help="run a spec saved as JSON instead of building "
                          "one from flags")
    run.add_argument("--calibration", type=int, default=0, metavar="CELLS",
                     help="run a no-op calibration grid of this many cells")
    run.add_argument("--spin-ms", type=float, default=0.0,
                     help="busy-wait per calibration cell (ms)")
    run.add_argument("--max-attempts", type=int, default=2,
                     help="attempts per cell; a cell whose worker died "
                          "on every one of >= 2 attempts is quarantined")
    run.add_argument("--cell-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-cell wall-clock budget (kills the worker)")
    run.set_defaults(func=cmd_campaign_run)

    status = actions.add_parser("status", help="progress of a store")
    status.add_argument("--store", default="campaign.jsonl")
    status.set_defaults(func=cmd_campaign_status)

    watch = actions.add_parser(
        "watch", help="live status: tail a store another process writes"
    )
    watch.add_argument("--store", default="campaign.jsonl")
    watch.add_argument("--interval", type=float, default=1.0,
                       help="seconds between polls")
    watch.add_argument("--once", action="store_true",
                       help="print one snapshot and exit")
    watch.add_argument("--report", default=None, metavar="PATH",
                       help="keep a Markdown report refreshed here")
    watch.set_defaults(func=cmd_campaign_watch)

    gc = actions.add_parser(
        "gc",
        help="compact a store: drop superseded error records and "
             "heal torn-tail crash debris",
    )
    gc.add_argument("--store", default="campaign.jsonl")
    gc.set_defaults(func=cmd_campaign_gc)

    report = actions.add_parser(
        "report", help="paper-style report from a store"
    )
    report.add_argument("--store", default="campaign.jsonl")
    report.add_argument("-o", "--output", default=None,
                        help="write Markdown here instead of stdout")
    report.set_defaults(func=cmd_campaign_report)

    chaos = actions.add_parser(
        "chaos",
        help="deterministic fault matrix: inject every fault class "
             "(crashes, hangs, store I/O errors, checkpoint corruption, "
             "crash loops, poison cells, a SIGKILLed run and gc) and "
             "assert the surviving store is bit-identical in cell "
             "content to a clean run",
    )
    chaos.add_argument("--faults", nargs="+", default=None,
                       help="fault classes to inject (default: all)")
    chaos.add_argument("--workdir", default=None,
                       help="scratch directory (default: a tempdir)")
    chaos.add_argument("--quick", action="store_true",
                       help="small grid and short delays (CI profile)")
    chaos.add_argument("--chaos-seed", type=int, default=0,
                       help="seed folded into fault target selection "
                            "(recorded in every plan for reproduction)")
    chaos.set_defaults(func=cmd_campaign_chaos)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Can You See Me Now?' (IMC 2021) scenarios.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    lag = subparsers.add_parser("lag", help="streaming-lag study (Figs. 4-11)")
    _add_common(lag)
    lag.add_argument("--host", default="US-East")
    lag.add_argument("--group", choices=("US", "Europe"), default="US")
    lag.set_defaults(func=cmd_lag)

    endpoints = subparsers.add_parser(
        "endpoints", help="endpoint architecture study (Fig. 3)"
    )
    _add_common(endpoints)
    endpoints.set_defaults(func=cmd_endpoints)

    qoe = subparsers.add_parser("qoe", help="video QoE cell (Figs. 12/16)")
    _add_common(qoe)
    qoe.add_argument("--motion", choices=("low", "high"), default="high")
    qoe.add_argument("-n", "--participants", type=int, default=3)
    qoe.add_argument("--region", choices=("US", "EU"), default="US")
    qoe.add_argument("--no-vifp", action="store_true")
    qoe.set_defaults(func=cmd_qoe)

    dynamics = subparsers.add_parser(
        "dynamics",
        help="time-varying network scenario, reported per phase",
    )
    _add_common(dynamics)
    dynamics.add_argument(
        "--scenario", choices=DYNAMICS_SCENARIOS, default="ramp"
    )
    dynamics.add_argument("--motion", choices=("low", "high"), default="high")
    dynamics.set_defaults(func=cmd_dynamics)

    mobile = subparsers.add_parser(
        "mobile", help="Android resource scenario (Fig. 19)"
    )
    _add_common(mobile)
    mobile.add_argument(
        "--scenario", choices=MOBILE_SCENARIOS + ("HM-View",), default="LM"
    )
    mobile.add_argument("-n", "--participants", type=int, default=3)
    mobile.set_defaults(func=cmd_mobile)

    _add_campaign_subcommands(subparsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
