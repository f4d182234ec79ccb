"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's experiments:

* ``threshold`` — Fig. 5: fidelity vs transmissivity, threshold pick.
* ``coverage`` — Fig. 6: coverage vs constellation size.
* ``sweep`` — Figs. 6-8 in one pass, full series.
* ``compare`` — Table III: space-ground vs air-ground.
* ``hybrid`` — the future-work hybrid with a duty-cycled HAP.

All commands accept ``--step`` (ephemeris cadence) and print ASCII tables;
``--csv DIR`` additionally writes figure series as CSV.

The global ``--cache-dir DIR`` flag (before the subcommand) points the
content-addressed artifact store at DIR, so a second run of the same
experiment skips orbit propagation and link-budget math entirely;
``--no-cache`` forces everything to be recomputed. Without either flag
the store follows the ``REPRO_CACHE_DIR`` environment variable (unset =
caching off).

Telemetry (DESIGN.md §9): ``--telemetry PATH`` records metrics and spans
for the run and writes the JSON run manifest to PATH; ``--profile``
prints the per-phase profile table after the results. ``-v`` / ``-vv``
turn on diagnostic logging (stderr) — result tables always go to stdout.

Recording (DESIGN.md §10): ``--trace PATH`` records one JSONL event
stream — causal span events across worker processes, where each
request's root ``request`` event carries its flight record (path and
fidelity, or one canonical denial cause); ``repro trace PATH`` exports
it as Chrome/Perfetto ``trace_event`` JSON, raw JSON, or an ASCII span
tree. ``repro report <manifest>`` renders a run manifest as a
self-contained HTML (or ASCII) report, and ``repro obs diff A B``
compares two manifests with optional threshold-based exit codes
(``--format json`` emits the rows as machine-readable JSON for CI).

Live operation (DESIGN.md §14): ``repro serve --http-port N`` attaches
the ``/metrics`` / ``/healthz`` / ``/readyz`` / ``/status`` endpoints
to the streaming service, ``--slo SPEC.json`` evaluates burn-rate SLO
alerts during the run (``--slo-snapshots PATH`` streams JSONL
time-series points for the report's SLO panel), ``--hold S`` keeps the
service scrapeable for S seconds after the stream is submitted, and
``repro top URL`` renders ``/status`` as a live terminal dashboard.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Sequence

from repro import obs
from repro.core.architecture import (
    AirGroundArchitecture,
    HybridArchitecture,
    SpaceGroundArchitecture,
)
from repro.core.comparison import compare_architectures
from repro.core.sweeps import run_constellation_sweep
from repro.core.threshold import transmissivity_threshold_experiment
from repro.errors import ValidationError
from repro.reporting.figures import FigureSeries, write_series_csv
from repro.routing.strategies import ROUTERS
from repro.reporting.tables import render_table, render_table_iii
from repro.utils.intervals import Interval

__all__ = ["build_parser", "main"]

_LOG = logging.getLogger("repro.cli")


def _probability(text: str) -> float:
    """Argparse type: a float in [0, 1]; NaN and out-of-range rejected."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if value != value:  # NaN
        raise argparse.ArgumentTypeError("must be a number in [0, 1], got NaN")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value!r}")
    return value


def _nonneg_int(text: str) -> int:
    """Argparse type: an integer >= 0 (seeds)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _setup_logging(verbosity: int) -> None:
    """Configure the ``repro`` logger tree for CLI diagnostics.

    Handlers go on the package logger (stderr), not the root logger, so
    embedding applications and pytest's log capture are left alone. The
    CLI's own handler is tagged and replaced on every call: repeated
    ``main()`` invocations in one process (tests, notebooks) keep exactly
    one CLI handler — never stacked duplicates that double-print — and
    each call's ``-v`` level takes effect. Foreign handlers someone else
    attached to the ``repro`` logger are left untouched.
    """
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    for handler in [h for h in logger.handlers if getattr(h, "_repro_cli", False)]:
        logger.removeHandler(handler)
        handler.close()
    handler = logging.StreamHandler()
    handler._repro_cli = True  # type: ignore[attr-defined]
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QNTN regional quantum network experiments (SC 2024 reproduction)",
    )
    cache = parser.add_mutually_exclusive_group()
    cache.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persist ephemerides and link budgets in this content-addressed "
        "store; warm reruns skip propagation and budget math",
    )
    cache.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the artifact store (ignore REPRO_CACHE_DIR too)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="diagnostic logging on stderr (-v info, -vv debug)",
    )
    parser.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="PATH",
        help="record metrics and spans, then write the JSON run manifest to PATH",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record spans and print the per-phase profile table after the results",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="record span events and one flight record per entanglement "
        "request (path and fidelity, or its denial cause) to PATH as JSONL "
        "(DESIGN.md §10); the summary embeds into --telemetry manifests; "
        "export with `repro trace PATH`",
    )
    parser.add_argument(
        "--trace-sample-rate",
        type=_probability,
        default=1.0,
        metavar="RATE",
        help="fraction of requests to record, deterministic per trace id "
        "(default 1.0 = every request)",
    )
    parser.add_argument(
        "--faults",
        type=Path,
        default=None,
        metavar="PATH",
        help="JSON fault schedule (repro.faults): satellite outages, station "
        "downtime, weather fades, link flaps perturb the run without touching "
        "physics; the schedule hash lands in the run manifest",
    )
    parser.add_argument(
        "--fault-seed",
        type=_nonneg_int,
        default=0,
        metavar="SEED",
        help="seed realizing the schedule's stochastic failure processes "
        "(default 0; ignored for purely explicit schedules)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_threshold = sub.add_parser("threshold", help="Fig. 5: fidelity vs transmissivity")
    p_threshold.add_argument("--step", type=float, default=0.01, help="eta sweep step")
    p_threshold.add_argument(
        "--target", type=float, default=0.9, help="fidelity requirement"
    )
    p_threshold.add_argument("--csv", type=Path, default=None, help="write series CSV here")

    for name, help_text in (
        ("coverage", "Fig. 6: coverage vs constellation size"),
        ("sweep", "Figs. 6-8: the full constellation sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--sizes",
            type=int,
            nargs="+",
            default=None,
            help="constellation sizes (strictly ascending; default 6..108 step 6)",
        )
        p.add_argument("--step", type=float, default=30.0, help="ephemeris cadence [s]")
        p.add_argument("--requests", type=int, default=100, help="requests per step")
        p.add_argument("--time-steps", type=int, default=100, help="evaluation steps")
        p.add_argument("--seed", type=int, default=7, help="workload seed")
        p.add_argument("--csv", type=Path, default=None, help="write series CSVs here")
        p.add_argument(
            "--workers",
            type=int,
            default=0,
            help="worker processes for the service evaluation (0 = serial); "
            "budget records travel via shared memory",
        )

    p_compare = sub.add_parser("compare", help="Table III: architecture comparison")
    p_compare.add_argument("--satellites", type=int, default=108)
    p_compare.add_argument("--step", type=float, default=30.0, help="ephemeris cadence [s]")
    p_compare.add_argument("--requests", type=int, default=100)
    p_compare.add_argument("--time-steps", type=int, default=100)
    p_compare.add_argument("--seed", type=int, default=7)

    p_hybrid = sub.add_parser("hybrid", help="duty-cycled HAP + constellation")
    p_hybrid.add_argument("--satellites", type=int, default=108)
    p_hybrid.add_argument(
        "--duty-hours", type=float, default=12.0, help="HAP flight hours per day"
    )
    p_hybrid.add_argument("--step", type=float, default=120.0)
    p_hybrid.add_argument("--requests", type=int, default=50)
    p_hybrid.add_argument("--time-steps", type=int, default=50)
    p_hybrid.add_argument("--seed", type=int, default=7)

    p_weather = sub.add_parser(
        "weather", help="Monte Carlo weather study of the air-ground architecture"
    )
    p_weather.add_argument("--trials", type=int, default=100)
    p_weather.add_argument("--requests", type=int, default=20)
    p_weather.add_argument("--seed", type=int, default=11)
    p_weather.add_argument(
        "--workers", type=int, default=0, help="process count (0 = serial)"
    )

    p_design = sub.add_parser(
        "design", help="orbit design sweep: coverage over inclination x altitude"
    )
    p_design.add_argument(
        "--inclinations", type=float, nargs="+", default=[37.0, 45.0, 53.0, 60.0]
    )
    p_design.add_argument(
        "--altitudes", type=float, nargs="+", default=[400.0, 500.0, 600.0]
    )
    p_design.add_argument("--satellites", type=int, default=108)
    p_design.add_argument("--step", type=float, default=240.0)

    p_report = sub.add_parser(
        "report",
        help="run every paper experiment and write a combined report, or — given a "
        "run manifest — render it as a self-contained HTML/ASCII report",
    )
    p_report.add_argument(
        "manifest",
        type=Path,
        nargs="?",
        default=None,
        help="JSON run manifest (from --telemetry) to render; omit to run the "
        "full experiment suite instead",
    )
    p_report.add_argument(
        "--out",
        type=Path,
        default=None,
        help="experiment mode: output directory (required); render mode: HTML "
        "output path (default: <manifest>.html)",
    )
    p_report.add_argument(
        "--format",
        choices=("html", "ascii", "json"),
        default="html",
        help="render mode output format (default html); json emits the "
        "normalized summary the renderers consume, for scripting",
    )
    p_report.add_argument("--step", type=float, default=30.0)
    p_report.add_argument("--requests", type=int, default=100)
    p_report.add_argument("--time-steps", type=int, default=100)
    p_report.add_argument("--seed", type=int, default=7)
    p_report.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="sweep sizes (strictly ascending)"
    )

    p_serve = sub.add_parser(
        "serve",
        help="streaming request service: asyncio front end over the cached "
        "serving engine (Poisson arrivals, per-tenant admission queues, "
        "latency telemetry)",
    )
    p_serve.add_argument(
        "--duration", type=float, default=60.0, help="simulated stream horizon [s]"
    )
    p_serve.add_argument(
        "--rate", type=float, default=20.0, help="mean Poisson arrival rate [Hz]"
    )
    p_serve.add_argument("--satellites", type=int, default=108)
    p_serve.add_argument("--step", type=float, default=30.0, help="ephemeris cadence [s]")
    p_serve.add_argument("--seed", type=int, default=7, help="arrival-stream seed")
    p_serve.add_argument(
        "--tenants", type=int, default=1, help="number of tenant admission queues"
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=1024, help="per-tenant queue capacity"
    )
    p_serve.add_argument(
        "--backpressure",
        action="store_true",
        help="block producers at a full queue instead of shedding (queue_full)",
    )
    p_serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose /metrics /healthz /readyz /status on this port while the "
        "stream runs (DESIGN.md §14); implies live telemetry",
    )
    p_serve.add_argument(
        "--http-host",
        default="127.0.0.1",
        metavar="HOST",
        help="bind address for --http-port (default loopback)",
    )
    p_serve.add_argument(
        "--hold",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="after the stream is fully submitted, keep the service (and its "
        "observability endpoints) up this long before draining — gives "
        "scrapers and `repro top` a stable window (default 0)",
    )
    p_serve.add_argument(
        "--slo",
        type=Path,
        default=None,
        metavar="SPEC",
        help="JSON SLO spec (repro.obs.slo.SLOSpec): evaluate multi-window "
        "burn-rate alerts during the run; the summary embeds into "
        "--telemetry manifests",
    )
    p_serve.add_argument(
        "--slo-snapshots",
        type=Path,
        default=None,
        metavar="PATH",
        help="stream one JSONL SLO/metrics snapshot per evaluation interval to "
        "PATH (feeds the report's SLO time-series panel; default SLO spec "
        "if --slo is not given)",
    )
    p_serve.add_argument(
        "--slo-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="SLO evaluation / snapshot cadence (default 1.0)",
    )
    p_serve.add_argument(
        "--router",
        choices=ROUTERS,
        default="shortest",
        help="routing strategy: shortest = the paper's single Bellman-Ford "
        "path (default); k-shortest = Yen multipath rescue of denied "
        "requests with memory-aware swapping and purification "
        "(DESIGN.md §16)",
    )
    p_serve.add_argument(
        "--k",
        type=int,
        default=2,
        metavar="N",
        help="candidate paths per rescue attempt under --router k-shortest "
        "(k=1 is bit-identical to shortest; default 2)",
    )
    p_serve.add_argument(
        "--memory-slots",
        type=int,
        default=4,
        metavar="M",
        help="entanglement memory slots per intermediate satellite; each "
        "held pair pins 2 slots at every swap node (default 4)",
    )

    p_trace = sub.add_parser(
        "trace",
        help="export a --trace JSONL stream as Chrome/Perfetto trace_event "
        "JSON, raw JSON records, or an ASCII span tree",
    )
    p_trace.add_argument(
        "file",
        type=Path,
        help="JSONL stream written by --trace (rotated parts are followed)",
    )
    p_trace.add_argument(
        "--format",
        choices=("perfetto", "json", "tree"),
        default="perfetto",
        help="perfetto = Chrome trace_event JSON loadable in ui.perfetto.dev "
        "(default); json = raw event records; tree = ASCII span tree",
    )
    p_trace.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="PATH",
        help="write here instead of stdout",
    )
    p_trace.add_argument(
        "--limit",
        type=_nonneg_int,
        default=0,
        metavar="N",
        help="tree format: show only the N slowest traces (0 = all)",
    )

    p_top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running service's /status endpoint",
    )
    p_top.add_argument(
        "url",
        help="service /status URL, e.g. http://127.0.0.1:8700/status "
        "(a bare http://host:port gets /status appended)",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between polls"
    )
    p_top.add_argument(
        "--iterations",
        type=_nonneg_int,
        default=0,
        metavar="N",
        help="stop after N frames (0 = run until Ctrl-C or the service exits)",
    )
    p_top.add_argument(
        "--no-clear",
        action="store_true",
        help="print frames sequentially instead of ANSI-clearing the screen "
        "(for logs and captured output)",
    )

    p_obs = sub.add_parser("obs", help="observability utilities (run diffs)")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_diff = obs_sub.add_parser(
        "diff",
        help="compare two run manifests / bench records / BENCH_*.json trajectories",
    )
    p_diff.add_argument("a", type=Path, help="baseline summary (manifest or bench JSON)")
    p_diff.add_argument("b", type=Path, help="candidate summary (manifest or bench JSON)")
    p_diff.add_argument(
        "--max-served-delta",
        type=float,
        default=None,
        metavar="PCT_POINTS",
        help="fail (exit 1) if |served %% delta| exceeds this",
    )
    p_diff.add_argument(
        "--max-coverage-delta",
        type=float,
        default=None,
        metavar="PCT_POINTS",
        help="fail if |coverage %% delta| exceeds this",
    )
    p_diff.add_argument(
        "--max-fidelity-delta",
        type=float,
        default=None,
        metavar="ABS",
        help="fail if |mean fidelity delta| exceeds this",
    )
    p_diff.add_argument(
        "--max-cause-delta",
        type=float,
        default=None,
        metavar="COUNT",
        help="fail if any denial-cause count moves by more than this",
    )
    p_diff.add_argument(
        "--max-phase-delta-pct",
        type=float,
        default=None,
        metavar="PCT",
        help="fail if any phase wall-time changes by more than this percent",
    )
    p_diff.add_argument(
        "--max-timing-delta-pct",
        type=float,
        default=None,
        metavar="PCT",
        help="fail if any bench timing changes by more than this percent",
    )
    p_diff.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format: human table (default) or one JSON document with "
        "the diff rows and breach verdict, for CI consumption",
    )
    return parser


def _cmd_threshold(args: argparse.Namespace) -> int:
    result = transmissivity_threshold_experiment(step=args.step, target_fidelity=args.target)
    rows = [
        (f"{eta:.2f}", f"{f:.4f}")
        for eta, f in zip(result.transmissivities, result.fidelities)
        if round(eta * 100) % 10 == 0
    ]
    print(render_table(["eta", "fidelity"], rows, title="FIG. 5: FIDELITY VS TRANSMISSIVITY"))
    print(f"smallest eta reaching F >= {args.target}: {result.threshold:.2f}")
    print("paper's chosen network threshold: 0.70")
    if args.csv is not None:
        path = write_series_csv(
            FigureSeries(
                "fig5_fidelity_vs_transmissivity",
                "transmissivity",
                "fidelity",
                tuple(result.transmissivities),
                tuple(result.fidelities),
            ),
            args.csv / "fig5_fidelity_vs_transmissivity.csv",
        )
        _LOG.info("series written to %s", path)
    return 0


def _run_sweep(args: argparse.Namespace):
    return run_constellation_sweep(
        sizes=args.sizes,
        step_s=args.step,
        n_requests=args.requests,
        n_time_steps=args.time_steps,
        seed=args.seed,
        n_workers=getattr(args, "workers", 0),
        faults=getattr(args, "fault_schedule", None),
        fault_seed=getattr(args, "fault_seed", None),
    )


def _cmd_coverage(args: argparse.Namespace) -> int:
    sweep = _run_sweep(args)
    rows = [
        (p.n_satellites, f"{p.coverage.percentage:.2f}", f"{p.coverage.total_minutes:.1f}")
        for p in sweep.points
    ]
    print(
        render_table(
            ["satellites", "coverage %", "T_c minutes"],
            rows,
            title="FIG. 6: COVERAGE VS CONSTELLATION SIZE",
        )
    )
    print("paper at 108 satellites: 55.17 %")
    _maybe_write_sweep_csv(sweep, args.csv, coverage_only=True)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep = _run_sweep(args)
    rows = [
        (
            p.n_satellites,
            f"{p.coverage.percentage:.2f}",
            f"{p.service.served_percentage:.2f}",
            f"{p.service.mean_fidelity:.4f}",
        )
        for p in sweep.points
    ]
    print(
        render_table(
            ["satellites", "coverage %", "served %", "fidelity"],
            rows,
            title="FIGS. 6-8: CONSTELLATION SWEEP",
        )
    )
    print("paper at 108 satellites: 55.17 % / 57.75 % / 0.96")
    _maybe_write_sweep_csv(sweep, args.csv, coverage_only=False)
    return 0


def _maybe_write_sweep_csv(sweep, csv_dir: Path | None, *, coverage_only: bool) -> None:
    if csv_dir is None:
        return
    sizes = tuple(float(s) for s in sweep.sizes)
    series = [
        FigureSeries(
            "fig6_coverage_vs_satellites",
            "n_satellites",
            "coverage_pct",
            sizes,
            tuple(sweep.coverage_percentages),
        )
    ]
    if not coverage_only:
        series.append(
            FigureSeries(
                "fig7_served_requests_vs_satellites",
                "n_satellites",
                "served_pct",
                sizes,
                tuple(sweep.served_percentages),
            )
        )
        series.append(
            FigureSeries(
                "fig8_fidelity_vs_satellites",
                "n_satellites",
                "mean_fidelity",
                sizes,
                tuple(sweep.mean_fidelities),
            )
        )
    for s in series:
        path = write_series_csv(s, csv_dir / f"{s.name}.csv")
        _LOG.info("series written to %s", path)


def _cmd_compare(args: argparse.Namespace) -> int:
    space = SpaceGroundArchitecture(args.satellites, step_s=args.step)
    air = AirGroundArchitecture(step_s=args.step)
    rows = compare_architectures(
        n_requests=args.requests,
        n_time_steps=args.time_steps,
        seed=args.seed,
        space=space,
        air=air,
    )
    print(render_table_iii(rows))
    print("paper: Space-Ground 55.17% / 57.75% / 0.96 ; Air-Ground 100% / 100% / 0.98")
    return 0


def _cmd_hybrid(args: argparse.Namespace) -> int:
    duty_s = args.duty_hours * 3600.0
    windows = [Interval(0.0, duty_s)] if duty_s < 86400.0 else None
    space = SpaceGroundArchitecture(args.satellites, step_s=args.step)
    air = AirGroundArchitecture(step_s=args.step, operational_windows=windows)
    hybrid = HybridArchitecture(space, air)
    kwargs = dict(n_requests=args.requests, n_time_steps=args.time_steps, seed=args.seed)
    results = [space.evaluate(**kwargs), air.evaluate(**kwargs), hybrid.evaluate(**kwargs)]
    print(
        render_table(
            ["architecture", "coverage %", "served %", "fidelity"],
            [
                (
                    r.name,
                    f"{r.coverage_percentage:.2f}",
                    f"{r.served_percentage:.2f}",
                    f"{r.mean_fidelity:.4f}",
                )
                for r in results
            ],
            title=f"HYBRID STUDY ({args.duty_hours:g} h/day HAP + {args.satellites} satellites)",
        )
    )
    return 0


def _cmd_weather(args: argparse.Namespace) -> int:
    from repro.core.montecarlo import weather_study

    result = weather_study(
        n_trials=args.trials,
        n_requests=args.requests,
        seed=args.seed,
        n_workers=args.workers,
    )
    counts = result.condition_counts()
    print(
        render_table(
            ["condition", "days"],
            [(c.value, n) for c, n in sorted(counts.items(), key=lambda kv: -kv[1])],
            title=f"WEATHER MONTE CARLO ({args.trials} sampled days)",
        )
    )
    print(f"all-weather availability: {result.availability:.1%} (ideal paper case: 100%)")
    print(f"fidelity when available:  {result.mean_fidelity_when_available:.4f}")
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.core.design import design_sweep

    result = design_sweep(
        list(args.inclinations),
        list(args.altitudes),
        n_satellites=args.satellites,
        step_s=args.step,
    )
    matrix = result.coverage_matrix(list(args.inclinations), list(args.altitudes))
    print(
        render_table(
            ["inclination \\ altitude"] + [f"{a:.0f} km" for a in args.altitudes],
            [
                [f"{inc:.0f} deg"] + [f"{matrix[i, j]:.1f}%" for j in range(len(args.altitudes))]
                for i, inc in enumerate(args.inclinations)
            ],
            title=f"ORBIT DESIGN SWEEP ({args.satellites} satellites)",
        )
    )
    best = result.best
    print(f"best design: {best.inclination_deg:.0f} deg / {best.altitude_km:.0f} km "
          f"-> {best.coverage_percentage:.1f}% (paper: 53 deg / 500 km)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.manifest is not None:
        return _render_manifest_report(args)
    if args.out is None:
        print("repro report: --out DIR is required in experiment mode", file=sys.stderr)
        raise SystemExit(2)
    from repro.core.report import full_reproduction_report

    report = full_reproduction_report(
        sizes=args.sizes,
        step_s=args.step,
        n_requests=args.requests,
        n_time_steps=args.time_steps,
        seed=args.seed,
        output_dir=args.out,
    )
    print(report.markdown)
    _LOG.info("artifacts written to %s", args.out)
    return 0


def _render_manifest_report(args: argparse.Namespace) -> int:
    from repro.obs import report as report_mod

    summary = report_mod.load_summary(args.manifest)
    if args.format == "json":
        import json

        # The exact normalized summary both renderers consume — one data
        # extraction, three output formats.
        print(json.dumps(summary, indent=2, sort_keys=True, default=str))
        return 0
    if args.format == "ascii":
        print(report_mod.render_ascii_report(summary))
        return 0
    out = args.out if args.out is not None else args.manifest.with_suffix(".html")
    out.write_text(report_mod.render_html_report(summary), encoding="utf-8")
    print(f"report written to {out}")
    return 0


async def _serve_stream_live(
    server,
    stream,
    *,
    http_host: str,
    http_port: int | None,
    tracker,
    snapshots_path: Path | None,
    interval_s: float,
    hold_s: float,
):
    """Run the stream with the live observability plane attached.

    Starts the HTTP endpoints (if requested) and a periodic SLO
    evaluate/snapshot task on the same event loop as the serving front
    end, submits the whole stream, optionally holds the service
    scrapeable before draining, and tears everything down in reverse
    order. Returns the :class:`~repro.serve.server.StreamReport`.
    """
    import asyncio
    import json
    import time

    from repro.serve.http import ObservabilityServer

    endpoints = None
    if http_port is not None:
        endpoints = ObservabilityServer(
            server, slo=tracker, host=http_host, port=http_port
        )
        await endpoints.start()
        print(
            f"observability endpoints: http://{http_host}:{endpoints.port}"
            "/{metrics,healthz,readyz,status}",
            file=sys.stderr,
        )
    snapshot_fh = (
        snapshots_path.open("w", encoding="utf-8") if snapshots_path is not None else None
    )
    stop = asyncio.Event()

    def _tick() -> None:
        if tracker is None:
            return
        point = tracker.snapshot()
        if snapshot_fh is not None:
            snapshot_fh.write(json.dumps(point) + "\n")
            snapshot_fh.flush()

    async def _evaluate_loop() -> None:
        while not stop.is_set():
            try:
                await asyncio.wait_for(stop.wait(), timeout=interval_s)
            except asyncio.TimeoutError:
                pass
            _tick()

    evaluator = (
        asyncio.get_running_loop().create_task(_evaluate_loop())
        if tracker is not None
        else None
    )
    t0 = time.perf_counter()
    try:
        server.start()
        for request in stream:
            await server.submit(request)
        wall_s = time.perf_counter() - t0
        if hold_s > 0.0:
            _LOG.info("stream submitted; holding service for %g s", hold_s)
            await asyncio.sleep(hold_s)
        await server.drain()
        return server.report(wall_s=wall_s)
    finally:
        stop.set()
        if evaluator is not None:
            await evaluator
            _tick()  # final point captures the drained end state
        if snapshot_fh is not None:
            snapshot_fh.close()
        if endpoints is not None:
            await endpoints.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.engine.store import default_store
    from repro.network.workload import lans_from_sites, poisson_request_stream
    from repro.orbits.ephemeris import generate_movement_sheet
    from repro.orbits.walker import qntn_constellation
    from repro.serve import ServeServer, ServerConfig, build_engine

    duration_s = max(args.duration, args.step)
    with obs.span("propagate"):
        elements = qntn_constellation(args.satellites)
        store = default_store()
        if store is not None:
            ephemeris = store.get_or_build_ephemeris(
                elements, duration_s=duration_s, step_s=args.step
            )
        else:
            ephemeris = generate_movement_sheet(
                elements, duration_s=duration_s, step_s=args.step
            )
    faults = getattr(args, "fault_schedule", None)
    strategy = None
    if args.router != "shortest":
        from repro.routing.strategies import StrategyConfig

        strategy = StrategyConfig(
            router=args.router, k=args.k, memory_slots=args.memory_slots
        )
    with obs.span("build-engine"):
        engine = build_engine("cached", ephemeris, faults=faults, strategy=strategy)
    args.serve_extra = {"router": args.router}
    if strategy is not None:
        args.serve_extra["k"] = strategy.k
        args.serve_extra["memory_slots"] = strategy.memory_slots
    from repro.data.ground_nodes import all_ground_nodes

    tenants = tuple(f"tenant-{i}" for i in range(args.tenants))
    stream = poisson_request_stream(
        lans_from_sites(all_ground_nodes()),
        rate_hz=args.rate,
        duration_s=args.duration,
        seed=args.seed,
        tenants=tenants,
    )
    plane = faults.compile() if faults is not None else None
    server = ServeServer(
        engine,
        config=ServerConfig(
            queue_depth=args.queue_depth, shed_on_full=not args.backpressure
        ),
        faults=plane,
    )
    want_live = (
        args.http_port is not None
        or args.slo is not None
        or args.slo_snapshots is not None
    )
    forced_here = False
    if want_live and not obs.enabled():
        # A --http-port run without --telemetry needs the windowed
        # instruments recording, but not the full diagnostic telemetry
        # (spans, cumulative engine metrics) — force-enable just the
        # live plane, which costs a few percent of serving throughput
        # instead of half of it. The reset clears the recorder too, so a
        # --trace run detaches it across the reset.
        from repro.obs import events as events_mod
        from repro.obs import live

        recorder = events_mod.detach()
        obs.reset()
        events_mod.attach(recorder)
        live.force(True)
        forced_here = True
    tracker = None
    if args.slo is not None or args.slo_snapshots is not None:
        from repro.obs.slo import SLOSpec, load_slo_spec

        try:
            spec = load_slo_spec(args.slo) if args.slo is not None else SLOSpec()
        except ValidationError as exc:
            print(f"repro serve: --slo {args.slo}: {exc}", file=sys.stderr)
            return 2
        tracker = server.slo_tracker(spec)
    try:
        with obs.span("stream"):
            if want_live:
                report = asyncio.run(
                    _serve_stream_live(
                        server,
                        stream,
                        http_host=args.http_host,
                        http_port=args.http_port,
                        tracker=tracker,
                        snapshots_path=args.slo_snapshots,
                        interval_s=args.slo_interval,
                        hold_s=args.hold,
                    )
                )
            else:
                report = asyncio.run(server.run(stream))
    finally:
        if tracker is not None:
            args.slo_extra = tracker.manifest_summary()
        if forced_here:
            from repro.obs import live

            live.force(False)
    rows = [
        ("engine", engine.name),
        ("simulated duration", f"{args.duration:g} s"),
        ("requests", report.n_submitted),
        ("served", f"{report.n_served} ({100 * report.served_fraction:.2f} %)"),
        ("denied", report.n_denied),
        ("shed (queue_full)", report.n_shed),
        ("p50 latency", f"{1e3 * report.latency_p50_s:.3f} ms"),
        ("p99 latency", f"{1e3 * report.latency_p99_s:.3f} ms"),
        ("max queue depth", report.max_queue_depth),
        ("throughput", f"{report.requests_per_min:,.0f} req/min"),
    ]
    if strategy is not None:
        n_rescued = sum(1 for o in report.outcomes if o.purified)
        rows.insert(1, ("router", f"{args.router} (k={args.k}, M={args.memory_slots})"))
        rows.insert(6, ("rescued (purified)", n_rescued))
        args.serve_extra["rescued"] = n_rescued
    print(render_table(["metric", "value"], rows, title=f"STREAMING SERVICE ({engine.name})"))
    causes = sorted(report.cause_counts.items(), key=lambda kv: -kv[1])
    if causes:
        print(render_table(["denial cause", "count"], causes, title="DENIAL CAUSES"))
    if not report.accounting_ok:  # pragma: no cover - invariant guard
        print("serve: accounting mismatch (submitted != completed)", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import events as events_mod

    if not args.file.exists():
        print(f"repro trace: no such file: {args.file}", file=sys.stderr)
        return 2
    records = list(events_mod.read_events(args.file))
    if args.format == "tree":
        text = events_mod.render_tree(records, limit=args.limit)
    elif args.format == "json":
        text = json.dumps(records, indent=2)
    else:
        text = json.dumps(events_mod.to_chrome_trace(records), indent=2)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text + "\n", encoding="utf-8")
        print(f"trace written to {args.output} ({len(records)} events)")
    else:
        print(text)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.top import run_top

    url = args.url
    if not url.rstrip("/").endswith("/status"):
        url = url.rstrip("/") + "/status"
    return run_top(
        url,
        interval_s=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )


def _cmd_obs(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.obs import report as report_mod

    try:
        a = report_mod.load_summary(args.a)
        b = report_mod.load_summary(args.b)
    except ValidationError as exc:
        print(f"repro obs diff: {exc}", file=sys.stderr)
        return 2
    thresholds = report_mod.DiffThresholds(
        served_pct=args.max_served_delta,
        coverage_pct=args.max_coverage_delta,
        mean_fidelity=args.max_fidelity_delta,
        cause_count=args.max_cause_delta,
        phase_pct=args.max_phase_delta_pct,
        timing_pct=args.max_timing_delta_pct,
    )
    rows = report_mod.diff_summaries(a, b, thresholds=thresholds)
    breached = [r for r in rows if r.breached]
    if args.format == "json":
        def _json_safe(value):
            # Strict JSON has no NaN literal; absent values become null.
            if isinstance(value, float) and value != value:
                return None
            return value

        document = {
            "a": str(args.a),
            "b": str(args.b),
            "rows": [
                {k: _json_safe(v) for k, v in dataclasses.asdict(r).items()}
                for r in rows
            ],
            "n_breached": len(breached),
            "ok": not breached,
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(
            report_mod.render_diff_table(rows, label_a=args.a.name, label_b=args.b.name)
        )
    if breached:
        for row in breached:
            print(f"threshold breached: {row.metric} delta {row.delta:+g}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "threshold": _cmd_threshold,
    "coverage": _cmd_coverage,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "hybrid": _cmd_hybrid,
    "weather": _cmd_weather,
    "design": _cmd_design,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "top": _cmd_top,
    "obs": _cmd_obs,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    _setup_logging(args.verbose)
    from repro.engine.store import ArtifactStore, set_default_store
    from repro.obs import events

    telemetry_on = args.telemetry is not None or args.profile
    if telemetry_on:
        obs.reset()
        obs.enable()
    tracing = args.trace is not None
    if tracing:
        # After obs.reset() above: the reset would otherwise drop the
        # just-started recorder (back-to-back runs must not leak events
        # between CLI invocations in one process).
        events.start(args.trace, sample_rate=args.trace_sample_rate)
    fault_extra = None
    if args.faults is not None:
        from repro.faults import load_faults

        try:
            schedule = load_faults(args.faults)
        except ValidationError as exc:
            print(f"repro: --faults {args.faults}: {exc}", file=sys.stderr)
            return 2
        # Realize once at the CLI's fixed one-day horizon; everything
        # downstream (sweep, workers, manifest hash) sees the same
        # concrete events. Realizing a realized schedule is an identity,
        # so run_constellation_sweep's own realize call is harmless.
        realized = schedule.realize(seed=args.fault_seed, horizon_s=86400.0)
        args.fault_schedule = realized
        fault_extra = {
            "source": str(args.faults),
            "seed": args.fault_seed,
            "schedule_hash": realized.schedule_hash(),
            "events": len(realized),
        }
    previous = None
    configured = args.no_cache or args.cache_dir is not None
    if configured:
        store = None if args.no_cache else ArtifactStore(args.cache_dir)
        previous = set_default_store(store)
    try:
        with obs.span(args.command):
            return _COMMANDS[args.command](args)
    except ValidationError as exc:
        # Bad arguments end in one line and exit code 2, never a traceback.
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    finally:
        if configured:
            set_default_store(previous)
        if args.profile:
            from repro.obs.export import render_profile_table

            print(render_profile_table())
        if args.telemetry is not None:
            # Manifest before events.stop(): the recorder must still be
            # active for its summary to embed under "trace".
            extra = {}
            if fault_extra is not None:
                extra["faults"] = fault_extra
            serve_extra = getattr(args, "serve_extra", None)
            if serve_extra is not None:
                extra["serve"] = serve_extra
            slo_extra = getattr(args, "slo_extra", None)
            if slo_extra is not None:
                extra["slo"] = slo_extra
            path = obs.write_run_manifest(
                args.telemetry,
                command=args.command,
                argv=list(argv) if argv is not None else sys.argv[1:],
                workload={
                    k: v
                    for k, v in vars(args).items()
                    if k not in ("fault_schedule", "serve_extra", "slo_extra")
                },
                extra=extra or None,
            )
            _LOG.info("run manifest written to %s", path)
        if tracing:
            events.stop()
            _LOG.info("trace written to %s", args.trace)
        if telemetry_on:
            obs.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
