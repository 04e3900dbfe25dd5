"""Command-line entry point.

Three subcommands::

    python -m repro figures [...]      # regenerate the paper's tables/figures
    python -m repro apps [...]         # N-rank application patterns
    python -m repro campaign ...       # batched million-point grid campaigns

Invocations without a subcommand keep the historical behavior and run
``figures``::

    python -m repro                 # quick grids
    python -m repro --full          # the paper's full size grids
    python -m repro --iters 30      # more iterations per point
    python -m repro --only fig5     # a single figure

Every grid goes through the unified scenario runner
(:mod:`repro.runner`); ``figures`` and ``apps`` both accept

* ``--jobs N`` — fan the grid out over N worker processes (0 = one per
  CPU; 1 = in-process serial, the default);
* ``--store DIR`` — keep every grid as a campaign root
  ``DIR/<grid hash>/`` (see "Campaigns" below); a rerun resumes it and
  executes only the points that are missing;
* ``--backend {sim,analytic,both}`` — execute via the discrete-event
  simulator (default), the closed-form analytic model (microseconds
  per point), or both: ``both`` regenerates the grid under each
  backend and prints the cross-validation report (per-point relative
  error, worst offender); the exit code is non-zero when any point
  exceeds its documented tolerance.

Application patterns (Halo3D / Sweep3D / FFT transpose)::

    python -m repro apps --pattern halo3d --ranks 8 --approach pt2pt_part
    python -m repro apps --pattern sweep3d --approach all --noise gaussian
    python -m repro apps --pattern fft --size 1048576 --json results.json
    python -m repro apps --pattern halo3d --jobs 0 --store runs/
    python -m repro apps --pattern halo3d --backend both

Campaigns (streaming store: analytic chunks as binary columns,
simulation chunks as JSON result rows; see README "Campaigns")::

    python -m repro campaign run grid.json --root camp/      # plan + execute
    python -m repro campaign run grid.json --root camp/ --limit 10000
    python -m repro campaign run sim.json --root camp/ --jobs 8
    python -m repro campaign run grid.json --root camp/ --metrics   # telemetry
    python -m repro campaign run grid.json --root camp/ --shards 4  # processes
    python -m repro campaign profile camp/                   # stage attribution
    python -m repro campaign status camp/                    # coverage
    python -m repro campaign status camp/ --json             # machine-readable
    python -m repro campaign export camp/ --out points.jsonl
    python -m repro campaign export camp/ --out cols.npz --format npz
    python -m repro campaign report camp/ --slice approach=pt2pt_part
    python -m repro campaign compact camp/                   # merge segments

Every root under a ``--store`` directory is such a campaign, so
``campaign status runs/<hash>/`` and ``campaign export`` work on it.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from .figures import (
    fig4_improvement,
    fig5_congestion,
    fig6_vcis,
    fig7_aggregation,
    fig8_earlybird,
    tables,
)

_DRIVERS = {
    "fig4": fig4_improvement,
    "fig5": fig5_congestion,
    "fig6": fig6_vcis,
    "fig7": fig7_aggregation,
    "fig8": fig8_earlybird,
}

#: Baseline approach for the η (speedup) report.
_BASELINE = "pt2pt_single"


def _figures_parser(top_level: bool = False) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro" if top_level else "python -m repro figures",
        description="Regenerate the paper's tables and figures.",
        epilog=(
            "subcommands: 'figures' (this, the default), 'apps' — N-rank "
            "application patterns, and 'campaign' — batched grid "
            "campaigns; see 'python -m repro <subcommand> --help'."
        ) if top_level else None,
    )
    parser.add_argument("--full", action="store_true",
                        help="full size grids (slower)")
    parser.add_argument("--iters", type=int, default=10,
                        help="iterations per benchmark point")
    parser.add_argument(
        "--only",
        choices=sorted(_DRIVERS) + ["tables"],
        help="regenerate a single artifact",
    )
    _add_runner_options(parser)
    return parser


def _add_runner_options(parser: argparse.ArgumentParser) -> None:
    """The unified runner knobs shared by ``figures`` and ``apps``."""
    group = parser.add_argument_group("runner")
    group.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the scenario grid "
                            "(0 = one per CPU; default 1 = serial)")
    group.add_argument("--store", default=None, metavar="DIR",
                       help="keep each grid as a campaign root under DIR "
                            "(a rerun executes only missing points)")
    group.add_argument("--backend", default="sim",
                       choices=["sim", "analytic", "both"],
                       help="execution backend: full simulation "
                            "(default), the closed-form analytic model, "
                            "or 'both' with a cross-validation report")


def _runner_kwargs(args, parser: argparse.ArgumentParser) -> dict:
    """Resolve --jobs/--store into driver keyword arguments."""
    from .runner import available_cpus

    if args.jobs < 0:
        parser.error("--jobs must be >= 0")
    return {
        "jobs": args.jobs if args.jobs > 0 else available_cpus(),
        "store": args.store,
    }


def _run_figures(args, parser) -> int:
    runner_kwargs = _runner_kwargs(args, parser)
    if args.only is None or args.only == "tables":
        print(tables.table1())
        print()
        print(tables.table2())
        if args.only == "tables":
            return 0
    selected = (
        [_DRIVERS[args.only]] if args.only else list(_DRIVERS.values())
    )
    crossval_failed = False
    for driver in selected:
        t0 = time.time()
        if args.backend == "both":
            from .backends import compare_bench_sweeps

            sim_data = driver.run(
                iterations=args.iters, quick=not args.full,
                backend="sim", **runner_kwargs
            )
            analytic_data = driver.run(
                iterations=args.iters, quick=not args.full,
                backend="analytic", **runner_kwargs
            )
            report = compare_bench_sweeps(sim_data.sweep, analytic_data.sweep)
            crossval_failed |= not report.passed
            print("\n" + "=" * 72)
            print(driver.report(sim_data))
            print()
            print(report.to_text())
        else:
            data = driver.run(
                iterations=args.iters, quick=not args.full,
                backend=args.backend, **runner_kwargs
            )
            print("\n" + "=" * 72)
            print(driver.report(data))
        print(f"[regenerated in {time.time() - t0:.1f}s]")
    return 1 if crossval_failed else 0


def _apps_parser() -> argparse.ArgumentParser:
    from .apps import NOISE_MODELS, PATTERNS
    from .bench import APPROACHES

    parser = argparse.ArgumentParser(
        prog="python -m repro apps",
        description="Run an N-rank application communication pattern.",
    )
    parser.add_argument("--pattern", required=True,
                        choices=sorted(PATTERNS),
                        help="application pattern")
    parser.add_argument("--ranks", type=int, default=8,
                        help="number of MPI ranks (default 8)")
    parser.add_argument("--threads", type=int, default=4,
                        help="threads per rank (default 4)")
    parser.add_argument("--approach", default="pt2pt_part",
                        choices=sorted(APPROACHES) + ["all"],
                        help="communication approach, or 'all'")
    parser.add_argument("--size", type=int, default=256 << 10,
                        help="bytes per link message (default 256 KiB)")
    parser.add_argument("--iters", type=int, default=10,
                        help="measured iterations per point (default 10)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="warm-up iterations (default 1)")
    parser.add_argument("--compute-us-per-mb", type=float, default=200.0,
                        help="per-partition compute rate in µs/MB "
                             "(default 200, overlap-friendly; 0 disables)")
    parser.add_argument("--noise", default="none",
                        choices=sorted(NOISE_MODELS),
                        help="injected-noise shape (Temuçin et al.)")
    parser.add_argument("--noise-us", type=float, default=0.0,
                        help="noise amplitude in µs per thread quantum")
    parser.add_argument("--noise-sigma-us", type=float, default=0.0,
                        help="gaussian noise std-dev in µs")
    parser.add_argument("--seed", type=int, default=0,
                        help="root RNG seed (default 0)")
    parser.add_argument("--vcis", type=int, default=1,
                        help="VCIs per rank (MPIR_CVAR_NUM_VCIS, default 1)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="persistence path (default BENCH_apps.json)")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing the sweep JSON")
    _add_runner_options(parser)
    return parser


def _run_apps(args, parser) -> int:
    from .apps import (
        DEFAULT_JSON_PATH,
        PatternConfig,
        PatternSweep,
        build_pattern,
    )
    from .bench import APPROACHES
    from .mpi import Cvars
    from .runner import ScenarioGrid, run_grids

    runner_kwargs = _runner_kwargs(args, parser)
    approaches = (
        sorted(APPROACHES) if args.approach == "all" else [args.approach]
    )
    # Always include the baseline so the η report is available.
    run_list = list(approaches)
    if _BASELINE not in run_list:
        run_list.append(_BASELINE)

    try:
        base = PatternConfig(
            pattern=args.pattern,
            approach=run_list[0],
            n_ranks=args.ranks,
            n_threads=args.threads,
            msg_bytes=args.size,
            iterations=args.iters,
            warmup=args.warmup,
            compute_us_per_mb=args.compute_us_per_mb,
            noise=args.noise,
            noise_us=args.noise_us,
            noise_sigma_us=args.noise_sigma_us,
            seed=args.seed,
            cvars=Cvars(num_vcis=args.vcis),
        )
        ScenarioGrid.from_spec(base, {"approach": run_list}).validate()
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def run_sweep(backend: str) -> PatternSweep:
        # The whole approach list is one grid: one runner batch
        # (parallel fan-out), one campaign root under --store.
        grid = ScenarioGrid.from_spec(
            base, {"approach": run_list}, backend=backend
        )
        sweep = PatternSweep()
        for result in run_grids([grid], **runner_kwargs)[0]:
            sweep.add(result)
        return sweep

    crossval_report = None
    if args.backend == "both":
        from .backends import compare_pattern_sweeps

        sweep = run_sweep("sim")
        crossval_report = compare_pattern_sweeps(sweep, run_sweep("analytic"))
    else:
        sweep = run_sweep(args.backend)
    results = {
        name: sweep.get(replace(base, approach=name)) for name in run_list
    }

    first = results[run_list[0]]
    print(build_pattern(first.config).describe())
    print(
        f"ranks={args.ranks} threads={args.threads} "
        f"size={args.size}B noise={args.noise} "
        f"compute={args.compute_us_per_mb:g}us/MB "
        f"iters={args.iters}(+{args.warmup} warmup) seed={args.seed}"
    )
    print()
    header = (f"{'approach':>20} | {'mean time':>14} | {'90% CI':>9} | "
              f"{'perceived bw':>13} | {'eta':>6}")
    print(header)
    print("-" * len(header))
    base_mean = results[_BASELINE].mean
    for name in run_list:
        r = results[name]
        eta = base_mean / r.mean if r.mean else float("inf")
        print(
            f"{name:>20} | {r.mean_us:11.2f} us | "
            f"{r.stats.ci_half * 1e6:6.2f} us | "
            f"{r.bandwidth_gbs:8.3f} GB/s | {eta:6.2f}"
        )
    print(f"\n(eta = {_BASELINE} mean / approach mean; > 1 means faster "
          f"than the bulk-synchronous baseline)")

    if crossval_report is not None:
        print()
        print(crossval_report.to_text())

    if not args.no_json:
        # The sweep holds sim results for both `sim` and `both`; a pure
        # analytic run lands in its own default file (and is tagged in
        # the payload either way), so model predictions never clobber
        # the simulated BENCH_apps.json feed unnoticed.
        saved_backend = "sim" if args.backend == "both" else args.backend
        default_path = (
            DEFAULT_JSON_PATH
            if saved_backend == "sim"
            else "BENCH_apps_analytic.json"
        )
        path = args.json if args.json else default_path
        target = sweep.save(path, backend=saved_backend)
        print(f"[sweep persisted to {target}]")
    return (
        1 if crossval_report is not None and not crossval_report.passed else 0
    )


def _campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Campaign-scale grids on the streaming campaign "
                    "store: plan, execute (resumable), query, export.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    run = sub.add_parser(
        "run", help="execute a grid spec's missing points (resumable)"
    )
    run.add_argument("spec", metavar="SPEC",
                     help="grid spec JSON path ('-' reads stdin)")
    run.add_argument("--root", required=True, metavar="DIR",
                     help="campaign store directory")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes for simulation-backed "
                          "chunks (0 = one per CPU; default 1)")
    run.add_argument("--limit", type=int, default=None, metavar="N",
                     help="max points to execute this invocation")
    run.add_argument("--metrics", nargs="?", const="auto", default=None,
                     metavar="PATH",
                     help="record pipeline telemetry to a metrics JSONL "
                          "(default path: <root>/metrics.jsonl); render "
                          "it with 'campaign profile'")
    run.add_argument("--trace", action="store_true",
                     help="stream simulator trace records into the "
                          "metrics file (requires --metrics; runs "
                          "in-process with one job, overriding --jobs, "
                          "so records reach the sink)")
    run.add_argument("--shards", type=int, default=None, metavar="N",
                     help="split the missing points across N local "
                          "shard processes (0 = one per available "
                          "CPU); each shard writes collision-free "
                          "seg-<token>-* segments straight into --root; "
                          "--jobs is then the pool size inside each "
                          "shard (0 = 1)")

    status = sub.add_parser("status", help="coverage and store health")
    status.add_argument("root", metavar="DIR")
    status.add_argument("--json", action="store_true",
                        help="machine-readable status (one JSON object)")

    profile = sub.add_parser(
        "profile",
        help="stage-attribution report from a --metrics JSONL",
    )
    profile.add_argument("target", metavar="STORE|METRICS",
                         help="campaign root (holding metrics.jsonl) or "
                              "a metrics JSONL path")
    profile.add_argument("--json", action="store_true",
                         help="emit the attribution as JSON")

    export = sub.add_parser(
        "export", help="dump completed points (JSON-lines or .npz)"
    )
    export.add_argument("root", metavar="DIR")
    export.add_argument("--out", default=None, metavar="PATH",
                        help="target path (default: stdout; required "
                             "for --format npz)")
    export.add_argument("--where", action="append", default=[],
                        metavar="FIELD=VALUE",
                        help="filter points by spec field (repeatable)")
    export.add_argument("--format", choices=("jsonl", "npz"),
                        default="jsonl",
                        help="jsonl = one {index, assignment, result} "
                             "record per line; npz = columnar arrays "
                             "(indices, store columns, one decoded "
                             "axis_<name> array per axis — analytic "
                             "stores only, zero row dicts)")

    report = sub.add_parser(
        "report",
        help="per-axis aggregate stats straight from columns",
    )
    report.add_argument("root", metavar="DIR")
    report.add_argument("--slice", action="append", default=[],
                        metavar="FIELD=VALUE", dest="slices",
                        help="pin an axis/base field before grouping "
                             "(repeatable; query filter semantics)")
    report.add_argument("--json", action="store_true",
                        help="emit the report as JSON")

    compact = sub.add_parser(
        "compact", help="merge segments into few sorted files"
    )
    compact.add_argument("root", metavar="DIR")
    return parser


def _parse_where(clauses):
    """'field=value' filters with JSON-typed values (bare = string)."""
    import json as _json

    filters = {}
    for clause in clauses:
        if "=" not in clause:
            raise ValueError(f"bad --where clause {clause!r}")
        name, _, raw = clause.partition("=")
        try:
            filters[name] = _json.loads(raw)
        except ValueError:
            filters[name] = raw
    return filters


def _run_campaign_cli(args) -> int:
    import json as _json

    from .runner import CampaignStore, parse_grid_spec
    from .runner import run_campaign as run_campaign_fn

    if args.action == "profile":
        from .runner.profile import render_profile, resolve_metrics_path

        try:
            path = resolve_metrics_path(args.target)
            print(render_profile(path, as_json=args.json))
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.action == "run":
        # Usage errors exit 2 before anything touches --root.
        sharded = args.shards is not None
        usage = None
        if args.trace and not args.metrics:
            usage = "--trace requires --metrics"
        elif sharded and args.shards < 0:
            usage = f"--shards must be >= 0, got {args.shards}"
        elif sharded and args.trace:
            usage = "--trace is per-process; unsupported with --shards"
        elif sharded and args.limit is not None:
            usage = "--limit is a per-shard knob; unsupported with --shards"
        if usage is not None:
            print(f"error: {usage}", file=sys.stderr)
            return 2
        try:
            raw = (
                sys.stdin.read()
                if args.spec == "-"
                else open(args.spec).read()
            )
            grid = parse_grid_spec(_json.loads(raw))
        except OSError as exc:
            print(f"error: cannot read grid spec: {exc}", file=sys.stderr)
            return 2
        except (KeyError, TypeError, ValueError) as exc:
            print(f"error: bad grid spec: {exc}", file=sys.stderr)
            return 2
        try:
            store = CampaignStore.create(args.root, grid)
        except (KeyError, TypeError, ValueError) as exc:
            message = exc.args[0] if exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 2
        from .runner import available_cpus
        from .runner.profile import run_metered

        if sharded:
            from .runner.shard import run_sharded

            # The shards already fill the CPUs: --jobs 0 means no pool
            # inside a shard, and that is the count the metrics record.
            jobs = args.jobs if args.jobs > 0 else 1

            def run():
                return run_sharded(
                    store,
                    n_shards=args.shards,
                    jobs=jobs,
                    shard_metrics=bool(args.metrics),
                    progress=print,
                )
        else:
            # Trace records reach the sink only from in-process
            # simulations, so --trace runs (and records) one job.
            if args.trace:
                jobs = 1
            else:
                jobs = args.jobs if args.jobs > 0 else available_cpus()

            def run():
                return run_campaign_fn(
                    store,
                    jobs=jobs,
                    limit=args.limit,
                    progress=print,
                )

        try:
            if args.metrics:
                summary = run_metered(
                    store,
                    run,
                    None if args.metrics == "auto" else args.metrics,
                    trace=args.trace,
                    jobs=jobs,
                )
                print(f"[metrics written to {summary['metrics']}]")
            else:
                summary = run()
        except (RuntimeError, ValueError) as exc:
            if not sharded:
                raise
            print(f"error: {exc}", file=sys.stderr)
            return 1
        pps = summary["points_per_s"]
        rate = f" ({pps:,.0f} points/s)" if pps else ""
        if sharded:
            print(
                f"executed {summary['executed']} point(s) across "
                f"{len(summary['shards'])} shard(s), "
                f"{summary['wall_s']:.2f}s{rate}"
            )
        else:
            print(
                f"executed {summary['executed']} point(s) in "
                f"{summary['chunks']} chunk(s), "
                f"{summary['wall_s']:.2f}s{rate}"
            )
        print(
            f"campaign {store.header['grid_hash'][:12]}: "
            f"{summary['completed']}/{summary['n_points']} points complete"
        )
        return 0

    try:
        store = CampaignStore.open(args.root)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.action == "status":
        stats = store.stats()
        if args.json:
            try:
                print(_json.dumps(stats, indent=2, sort_keys=True))
            except BrokenPipeError:  # e.g. piped into head
                pass
            return 0
        print(f"campaign {stats['root']} "
              f"[{stats['kind']}/{stats['backend']}, "
              f"grid {stats['grid_hash'][:12]}]")
        print(f"  points:   {stats['completed']}/{stats['n_points']} "
              f"complete ({stats['missing']} missing)")
        print(f"  segments: {stats['segments']} "
              f"({stats['total_bytes']} bytes)")
        if stats["ignored"]:
            print(f"  ignored:  {len(stats['ignored'])} file(s) that are "
                  f"not readable segments of this campaign")
        for writer, cov in stats.get("shard_segments", {}).items():
            print(f"  writer {writer}: {cov['points']} point(s) in "
                  f"{len(cov['ranges'])} range(s)")
        return 0
    if args.action == "export":
        try:
            filters = _parse_where(args.where)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.format == "npz":
            if not args.out:
                print("error: --format npz requires --out PATH",
                      file=sys.stderr)
                return 2
            try:
                count = store.export_npz(args.out, where=filters or None)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(f"[exported {count} point(s) to {args.out}]",
                  file=sys.stderr)
            return 0
        target = args.out if args.out else sys.stdout
        try:
            count = store.export_jsonl(target, where=filters or None)
        except BrokenPipeError:  # e.g. piped into head
            return 0
        print(f"[exported {count} point(s)]", file=sys.stderr)
        return 0
    if args.action == "report":
        from .runner.campaign import slice_report

        try:
            slices = _parse_where(args.slices)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            report = slice_report(store, slices or None)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            try:
                print(_json.dumps(report, indent=2, sort_keys=True))
            except BrokenPipeError:  # e.g. piped into head
                pass
            return 0
        pinned = ", ".join(
            f"{k}={v}" for k, v in report["slice"].items()
        ) or "(none)"
        print(f"campaign report [{report['kind']}] "
              f"slice {pinned}: {report['points']} point(s)")
        if "times_us" in report:
            t = report["times_us"]
            print(f"  times: mean {t['mean']:.3f}us "
                  f"min {t['min']:.3f}us max {t['max']:.3f}us")
        for axis, groups in report["axes"].items():
            print(f"  by {axis}:")
            for g in groups:
                print(f"    {g['value']!r:>16}: n={g['n']:<7} "
                      f"mean {g['mean_us']:.3f}us "
                      f"min {g['min_us']:.3f}us "
                      f"max {g['max_us']:.3f}us")
        return 0
    if args.action == "compact":
        summary = store.compact()
        print(f"compacted {summary['segments_before']} segment(s) into "
              f"{summary['segments_after']} ({summary['points']} points)")
        return 0
    return 2


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "apps":
        parser = _apps_parser()
        return _run_apps(parser.parse_args(argv[1:]), parser)
    if argv and argv[0] == "figures":
        parser = _figures_parser()
        return _run_figures(parser.parse_args(argv[1:]), parser)
    if argv and argv[0] == "campaign":
        return _run_campaign_cli(_campaign_parser().parse_args(argv[1:]))
    # No subcommand: historical figure-regeneration behavior.
    parser = _figures_parser(top_level=True)
    return _run_figures(parser.parse_args(argv), parser)


if __name__ == "__main__":
    sys.exit(main())
