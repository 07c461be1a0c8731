"""Command-line front-end: ``scord-experiments [exhibit ...]``.

Runs the requested exhibits (or ``all``) and prints the paper-style tables
to stdout.  Exhibits sharing simulations reuse them through the memoizing
runner, so ``scord-experiments all`` is much cheaper than the sum of the
parts.

Resilience (see docs/architecture.md, "Resilience"):

* ``--store PATH`` checkpoints every completed simulation to a durable
  JSONL store; ``--resume`` preloads it, so a killed campaign restarts
  without re-simulating finished runs.
* ``--isolate`` runs each simulation in a worker process of a supervised
  pool (see docs/architecture.md §11) with heartbeat liveness, crash
  recycling, retry with backoff, and graceful degradation;
  ``--timeout``/``--max-retries`` (which imply ``--isolate``) bound and
  retry hung or crashed units.
* A failing run costs its table cells (``FAILED(reason)``), a failing
  exhibit costs one structured error line — never the campaign.  The
  exit code is non-zero if anything failed, and ``--manifest PATH``
  writes a machine-readable failure manifest.

Parallelism and caching (see docs/architecture.md, "Parallel campaigns"):

* ``--jobs N`` (implies ``--isolate``) sizes that pool at N workers and
  shards the campaign's work units across them with work stealing and
  a deterministic merge — results are identical to ``--jobs 1``.  Every
  isolated campaign runs on exactly one pool of ``max(1, N)`` workers,
  which serves the parallel prefetch and any unit the planner missed.
  ``--worker-ttl`` / ``--max-worker-restarts`` tune the pool's
  recycling policy, and ``--chaos-kill-every N`` deliberately SIGKILLs
  a worker every Nth unit (resilience drills).
* ``--cache-dir PATH`` layers a content-addressed result cache over the
  runs: units are keyed by a stable hash of the resolved configs, kernel
  identity, seed, and schema version, so re-runs and overlapping
  exhibits hit disk instead of re-simulating; ``--no-cache`` disables.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import time

from repro.common.errors import ReproError, error_code
from repro.experiments.runner import Runner

EXHIBITS = ("table1", "table2", "table6", "table7", "table8",
            "fig8", "fig9", "fig10", "fig11", "ablations", "litmus",
            "lint_table")

#: exhibits whose simulations flow through the shared Runner — the ones a
#: parallel prefetch can plan and shard.  The rest (micros, litmus,
#: ablations) simulate inline and are cheap.
RUNNER_EXHIBITS = ("table6", "table7", "fig8", "fig9", "fig10", "fig11")


# ----------------------------------------------------------------------
# Exhibit dispatch (uniform: name -> callable(runner) -> printable text)
# ----------------------------------------------------------------------
def _table1(runner: Runner) -> str:
    from repro.experiments.table1 import run_table1

    return run_table1().render()


def _table2(runner: Runner) -> str:
    from repro.experiments.table2 import run_table2

    return str(run_table2())


def _table6(runner: Runner) -> str:
    from repro.experiments.table6 import run_table6

    result = run_table6(runner)
    return result.render() + "\n\n" + result.render_detail()


def _table7(runner: Runner) -> str:
    from repro.experiments.table7 import run_table7

    return run_table7(runner).render()


def _table8(runner: Runner) -> str:
    from repro.experiments.table8 import run_table8

    return str(run_table8())


def _figure(run):
    def render(runner: Runner) -> str:
        result = run(runner)
        return result.render() + "\n\n" + result.chart()

    return render


def _ablations(runner: Runner) -> str:
    from repro.experiments.ablations import run_all_ablations

    parts = []
    for table in run_all_ablations().values():
        parts.append(str(table))
        parts.append("")
    return "\n".join(parts).rstrip()


def _litmus(runner: Runner) -> str:
    from repro.litmus import ALL_LITMUS_TESTS, run_litmus

    lines = ["=== Scoped memory-model litmus tests ==="]
    for test in ALL_LITMUS_TESTS:
        result = run_litmus(test)
        verdict = "ok" if result.ok else "VIOLATION"
        lines.append(f"[{verdict}] {result.summary()}")
    return "\n".join(lines)


def _lint_table(runner: Runner) -> str:
    from repro.experiments.lint_table import run_lint_table

    return run_lint_table(runner).render()


def _exhibit_runners():
    from repro.experiments.fig8 import run_fig8
    from repro.experiments.fig9 import run_fig9
    from repro.experiments.fig10 import run_fig10
    from repro.experiments.fig11 import run_fig11

    return {
        "table1": _table1,
        "table2": _table2,
        "table6": _table6,
        "table7": _table7,
        "table8": _table8,
        "fig8": _figure(run_fig8),
        "fig9": _figure(run_fig9),
        "fig10": _figure(run_fig10),
        "fig11": _figure(run_fig11),
        "ablations": _ablations,
        "litmus": _litmus,
        "lint_table": _lint_table,
    }


# ----------------------------------------------------------------------
#: subcommand -> one-line description.  Each line names the doc page
#: that covers the subcommand; tests/test_cli_help.py pins the rendered
#: help against tests/golden/cli_help.txt so these stay in sync with
#: docs/README.md.
SUBCOMMANDS = (
    ("run", "run paper exhibits as an offline campaign "
            "(docs/architecture.md)"),
    ("lint", "statically lint kernels for scope misuse "
             "(docs/scolint.md)"),
    ("fuzz", "differential kernel fuzzing with constructed ground "
             "truth (docs/fuzzing.md)"),
    ("mc", "bounded DPOR schedule exploration over litmus kernels "
           "(docs/model_checking.md)"),
    ("explain", "render race forensics bundles as human-readable "
                "reports (docs/forensics.md)"),
    ("report", "render a text dashboard from telemetry artifacts "
               "(docs/architecture.md)"),
    ("serve", "race-checking as a service: HTTP daemon over the "
              "shared worker pool (docs/service.md)"),
)


def _subcommand_epilog() -> str:
    lines = ["subcommands:"]
    for name, blurb in SUBCOMMANDS:
        lines.append(f"  {name:<9}{blurb}")
    lines.append(
        "\nBare exhibit names (no subcommand) are equivalent to 'run'."
    )
    return "\n".join(lines)


def _help_formatter(prog):
    # Fixed width keeps --help byte-identical across terminals, so the
    # committed golden (tests/golden/cli_help.txt) diffs cleanly.
    return argparse.RawDescriptionHelpFormatter(prog, width=78)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scord-experiments",
        description="Regenerate the tables and figures of the ScoRD paper.",
        epilog=_subcommand_epilog(),
        formatter_class=_help_formatter,
    )
    parser.add_argument(
        "exhibits",
        nargs="*",
        default=["all"],
        help=f"any of {', '.join(EXHIBITS)}, or 'all' (default)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress"
    )
    parser.add_argument(
        "--dump",
        metavar="PATH",
        help="write every simulation's raw record to PATH as JSON "
        "(atomic: temp file + rename)",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        help="durably checkpoint every completed simulation to this "
        "JSONL store",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="preload completed runs from --store instead of "
        "re-simulating them",
    )
    parser.add_argument(
        "--isolate",
        action="store_true",
        help="run each simulation in an isolated worker process "
        "(a supervised pool of one without --jobs)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="per-simulation wall-clock timeout (implies --isolate)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        metavar="N",
        help="retries (with backoff) for a failed simulation "
        "(implies --isolate; default 1 when isolated)",
    )
    parser.add_argument(
        "--manifest",
        metavar="PATH",
        help="write a machine-readable campaign manifest (exhibit "
        "status + failed runs) to PATH as JSON",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run the campaign's simulations on a supervised pool of N "
        "persistent worker processes (implies --isolate; 0 = one per "
        "CPU)",
    )
    parser.add_argument(
        "--worker-ttl",
        type=int,
        default=0,
        metavar="N",
        help="recycle a pool worker after it has served N units "
        "(0 = never; default 0)",
    )
    parser.add_argument(
        "--max-worker-restarts",
        type=int,
        default=8,
        metavar="N",
        help="pool-wide budget of fault respawns before the pool "
        "degrades to the serial in-process executor (default 8)",
    )
    parser.add_argument(
        "--chaos-kill-every",
        type=int,
        default=0,
        metavar="N",
        help="chaos drill: SIGKILL the pool worker serving every Nth "
        "unit's first attempt (0 = off); the campaign must still "
        "complete with identical records",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="content-addressed result cache directory: completed units "
        "are stored by config/seed/schema hash and reused across runs",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the result cache even if --cache-dir "
        "is given",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome trace_event JSON (load in Perfetto / "
        "chrome://tracing) of the campaign to PATH, plus a compact "
        "JSONL sibling",
    )
    parser.add_argument(
        "--trace-filter",
        metavar="SPEC",
        help="trace filter, e.g. 'level=info,cat=exp+engine,steps=64' "
        "(see docs/architecture.md §8)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the metrics registry as Prometheus text to PATH "
        "(and JSON to PATH.json)",
    )
    parser.add_argument(
        "--flight",
        action="store_true",
        help="enable the flight recorder: capture the per-access event "
        "stream of every simulation (bounded ring buffer by default); "
        "off by default so the engine hot path stays uninstrumented",
    )
    parser.add_argument(
        "--flight-mode",
        choices=("ring", "full"),
        default="ring",
        help="flight capture mode: 'ring' keeps the last --flight-capacity "
        "events, 'full' keeps everything (default ring)",
    )
    parser.add_argument(
        "--flight-capacity",
        type=int,
        default=65536,
        metavar="N",
        help="ring-buffer capacity in events (default 65536)",
    )
    parser.add_argument(
        "--flight-out",
        metavar="PATH",
        help="write the in-process flight recorder's JSONL event log to "
        "PATH (implies --flight; isolated units capture worker-side "
        "and export through --forensics-out instead)",
    )
    parser.add_argument(
        "--forensics-out",
        metavar="DIR",
        help="write a forensics bundle (JSON + narrative + trace slice) "
        "for every detected race under DIR (implies --flight)",
    )
    parser.add_argument(
        "--event-log",
        metavar="PATH",
        help="isolated campaigns: stream the workers' structured JSONL "
        "event log (unit lifecycle + forensics, with campaign/unit/worker "
        "correlation IDs) to PATH",
    )
    parser.add_argument(
        "--preflight-lint",
        action="store_true",
        help="statically lint the suite before the campaign, annotate "
        "stderr with per-target verdicts, and record them in the "
        "manifest (findings never block the campaign)",
    )
    parser.add_argument(
        "--mc",
        action="store_true",
        help="after the exhibits, upgrade each simulated (app, flags) "
        "configuration's verdict with a bounded DPOR schedule "
        "exploration (repro.mc); verdicts land in the manifest's 'mc' "
        "section.  Expensive: each config re-simulates under up to "
        "--mc-budget controlled schedules",
    )
    parser.add_argument(
        "--mc-budget",
        type=int,
        default=4,
        metavar="N",
        help="schedules per configuration for --mc (default 4: the "
        "fair schedule + unfairness probes)",
    )
    return parser


def _flight_config(args):
    """The campaign's FlightConfig, or None when capture is off."""
    if not (args.flight or args.flight_out or args.forensics_out):
        return None
    from repro.telemetry import FlightConfig

    return FlightConfig(
        mode=args.flight_mode, capacity=args.flight_capacity
    )


def _build_telemetry(args, flight=None):
    """A Telemetry bundle when any telemetry output was requested."""
    if not (args.trace or args.metrics_out or flight is not None):
        return None
    from repro.telemetry import Telemetry, TraceConfig

    if args.trace_filter:
        config = TraceConfig.parse_filter(args.trace_filter)
    else:
        config = TraceConfig()
    if not args.trace:
        config = dataclasses.replace(config, enabled=False)
    return Telemetry(config, flight=flight)


def _build_cache(args):
    if args.no_cache or not args.cache_dir:
        return None
    from repro.experiments.parallel import ResultCache

    return ResultCache(args.cache_dir)


def _build_runner(args, cache=None, telemetry=None, flight=None) -> Runner:
    """The campaign's runner: in-process, or on one supervised pool.

    ``--isolate``, ``--timeout``, ``--max-retries``, ``--jobs N`` (N != 1)
    and ``--chaos-kill-every`` all select the pool, sized at ``max(1, N)``
    workers (``--jobs 0`` means one per CPU).  The caller closes
    ``runner.pool`` once the exhibits have rendered.
    """
    store = None
    if args.store:
        from repro.experiments.store import RunStore

        store = RunStore(args.store)
    isolate = (
        args.isolate
        or args.timeout is not None
        or args.max_retries is not None
        or args.jobs != 1
        or args.chaos_kill_every
    )
    verbose = not args.quiet
    if not isolate:
        return Runner(
            verbose=verbose, store=store, preload=args.resume,
            result_cache=cache, telemetry=telemetry,
            flight=flight, forensics_dir=args.forensics_out,
        )
    from repro.experiments.campaign import CampaignRunner
    from repro.experiments.supervisor import PoolConfig, PoolSupervisor

    fault_plan = None
    if args.chaos_kill_every:
        from repro.experiments.faults import ChaosPlan

        fault_plan = ChaosPlan("pool-kill", every=args.chaos_kill_every)
    config = PoolConfig(
        workers=max(1, args.jobs or (os.cpu_count() or 1)),
        worker_ttl=args.worker_ttl,
        max_worker_restarts=args.max_worker_restarts,
        unit_timeout=args.timeout,
        max_retries=(
            args.max_retries if args.max_retries is not None else 1
        ),
    )
    pool = PoolSupervisor(
        config,
        fault_plan=fault_plan,
        telemetry=telemetry,
        verbose=verbose,
        flight=flight,
        forensics_dir=args.forensics_out,
        event_log_path=args.event_log,
    )
    return CampaignRunner(
        pool, verbose=verbose, store=store, preload=args.resume,
        telemetry=telemetry, result_cache=cache,
    )


def _profile_section(runner, telemetry, elapsed_seconds):
    """The manifest's campaign-profiling block (None without telemetry)."""
    if telemetry is None:
        return None
    from repro.telemetry import shard_utilization, source_latencies

    section = {"phases": telemetry.profiler.as_dict()}
    outcome = getattr(runner, "last_parallel_outcome", None)
    if outcome is not None:
        section["shards"] = shard_utilization(
            outcome.outcomes, outcome.elapsed_seconds
        )
        section["unit_sources"] = source_latencies(outcome.outcomes)
    return section


@contextlib.contextmanager
def _step(telemetry, span: str, phase: str):
    """A campaign step's trace span and profiler phase (no-op when off)."""
    if telemetry is None:
        yield
        return
    with telemetry.tracer.span(span, cat="exp"), \
            telemetry.profiler.phase(phase):
        yield


def _render_exhibits(args, runner, wanted, cache, telemetry) -> dict:
    """Prefetch in parallel (``--jobs``), then print every exhibit.

    Returns ``{exhibit name: error}`` for the exhibits that failed.
    """
    runners = _exhibit_runners()
    plannable = [name for name in wanted if name in RUNNER_EXHIBITS]
    if args.jobs != 1 and plannable:
        from repro.experiments.parallel import prefetch_exhibits

        with _step(telemetry, "parallel-prefetch", "exp.prefetch"):
            prefetch_exhibits(
                runner, runners, plannable,
                jobs=runner.pool.config.workers, cache=cache,
                verbose=not args.quiet,
            )
    exhibit_errors = {}
    for name in wanted:
        try:
            with _step(telemetry, f"exhibit:{name}", f"exp.render.{name}"):
                text = runners[name](runner)
            print(text)
        except ReproError as err:
            # One exhibit failing must not abort the campaign: report a
            # single structured line and keep rendering the rest.
            exhibit_errors[name] = err
            print(
                f"[exhibit-failed] {name}: {err.describe()}",
                file=sys.stderr,
                flush=True,
            )
        print()
    return exhibit_errors


def _mc_section(runner, budget, quiet, telemetry=None):
    """Campaign verdict upgrade: bounded DPOR exploration per config.

    One exploration per unique (app, enabled-flags) pair the campaign
    simulated — detector and memory-preset variants of the same
    configuration share one schedule space, so they share one verdict.
    """
    from repro.mc import explorer
    from repro.mc.targets import resolve_target

    pairs = sorted({
        (record.app, tuple(sorted(record.races_enabled)))
        for record in runner.records()
    })
    section = {"budget": budget, "targets": {}}
    for app, races in pairs:
        label = f"app:{app}" + ("+" + "+".join(races) if races else "")
        try:
            target = resolve_target(label)
            report = explorer.explore(
                target, budget=budget, stop_on_race=True,
                telemetry=telemetry,
            )
        except ReproError as err:
            section["targets"][label] = {
                "verdict": "error",
                "error": f"{error_code(err)}: {err}",
            }
            continue
        section["targets"][label] = {
            "verdict": report["verdict"],
            "racy": report["racy"],
            "race_types": report["race_types"],
            "schedules_explored": report["schedules_explored"],
            "schedules_pruned": report["schedules_pruned"],
            "prune_ratio": report["prune_ratio"],
        }
        if not quiet:
            print(
                f"[mc] {label}: {report['verdict']}"
                + (f" ({', '.join(report['race_types'])})"
                   if report["race_types"] else ""),
                file=sys.stderr,
            )
    return section


def _write_manifest(
    path, wanted, exhibit_errors, runner, elapsed_seconds, telemetry=None,
    lint_section=None, pool_section=None, forensics_section=None,
    mc_section=None,
) -> None:
    from repro.experiments.store import SCHEMA_VERSION, atomic_write_json

    failed_runs = [f.to_dict() for f in getattr(runner, "failures", [])]
    exhibits = {}
    for name in wanted:
        err = exhibit_errors.get(name)
        if err is None:
            exhibits[name] = {"status": "ok"}
        else:
            exhibits[name] = {
                "status": "failed",
                "code": error_code(err),
                "error": str(err),
            }
    store = runner._store
    payload = {
            "schema": SCHEMA_VERSION,
            "ok": not exhibit_errors and not failed_runs,
            "exhibits": exhibits,
            "failed_runs": failed_runs,
            "counts": {
                "unique_simulations": runner.runs_done(),
                "fresh_runs": runner.fresh_runs,
                "resumed_runs": runner.resumed_runs,
                "cached_runs": runner.cached_runs,
                "failed_runs": len(failed_runs),
                "quarantined_store_lines": (
                    store.quarantined if store is not None else 0
                ),
            },
            "cache": (
                runner.result_cache.stats()
                if runner.result_cache is not None
                else None
            ),
            "profile": _profile_section(runner, telemetry, elapsed_seconds),
            "elapsed_seconds": round(elapsed_seconds, 3),
    }
    if lint_section is not None:
        payload["lint"] = lint_section
    if pool_section is not None:
        payload["pool"] = pool_section
    if forensics_section is not None:
        payload["forensics"] = forensics_section
    if mc_section is not None:
        payload["mc"] = mc_section
    atomic_write_json(path, payload)


def report_main(argv) -> int:
    """``scord-experiments report``: render a telemetry text dashboard."""
    parser = argparse.ArgumentParser(
        prog="scord-experiments report",
        description="Render a text dashboard from telemetry artifacts "
        "(any subset of a Chrome trace, a metrics JSON, and a campaign "
        "manifest).",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="Chrome trace JSON written by --trace",
    )
    parser.add_argument(
        "--metrics", metavar="PATH",
        help="metrics JSON written next to --metrics-out (PATH.json)",
    )
    parser.add_argument(
        "--manifest", metavar="PATH",
        help="campaign manifest written by --manifest",
    )
    parser.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="counters shown in the top-counters table (default 20)",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="live campaign dashboard: re-read the artifacts and redraw "
        "every --interval seconds (Ctrl-C to stop); missing or "
        "mid-write files are tolerated and retried",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period for --live (default 2.0)",
    )
    parser.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="with --live: stop after N redraws (0 = until Ctrl-C)",
    )
    args = parser.parse_args(argv)
    if not (args.trace or args.metrics or args.manifest):
        parser.error("nothing to report: give --trace, --metrics, "
                     "or --manifest")
    import json

    from repro.telemetry import render_dashboard

    def load(path, tolerant):
        if not path:
            return None
        try:
            with open(path, "r") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            # Live mode races the writer: absent or half-written
            # artifacts render as "not yet", never as a crash.
            if tolerant:
                return None
            raise

    def render_once(tolerant):
        trace = load(args.trace, tolerant)
        metrics = load(args.metrics, tolerant)
        manifest = load(args.manifest, tolerant)
        if tolerant and trace is None and metrics is None \
                and manifest is None:
            return "[live] waiting for telemetry artifacts..."
        return render_dashboard(
            trace=trace, metrics=metrics, manifest=manifest, top=args.top,
        )

    try:
        if not args.live:
            print(render_once(tolerant=False))
            return 0
        redraws = 0
        while True:
            text = render_once(tolerant=True)
            redraws += 1
            # Clear + home, then the frame — a minimal live TTY update.
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
            sys.stdout.flush()
            if args.iterations and redraws >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # `report ... | head` closes stdout early; that is not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


def _lint_targets(names):
    """Resolve CLI target names into (label, thunk) lint jobs."""
    from repro.scolint import lint_app, lint_litmus, lint_micro
    from repro.litmus.catalog import ALL_LITMUS_TESTS, litmus_by_name
    from repro.scor.apps.registry import ALL_APPS, app_by_name
    from repro.scor.micro.registry import ALL_MICROS, micro_by_name

    def micro_jobs():
        return [(f"micro:{m.name}", lambda m=m: lint_micro(m))
                for m in ALL_MICROS]

    def app_jobs():
        jobs = []
        for app_cls in ALL_APPS:
            jobs.append((f"app:{app_cls.name}",
                         lambda c=app_cls: lint_app(c)))
            jobs.extend(
                (f"app:{app_cls.name}+{flag.name}",
                 lambda c=app_cls, f=flag.name: lint_app(c, races=(f,)))
                for flag in app_cls.RACE_FLAGS
            )
        return jobs

    def litmus_jobs():
        return [(f"litmus:{t.name}", lambda t=t: lint_litmus(t))
                for t in ALL_LITMUS_TESTS]

    jobs = []
    for name in names:
        if name == "all":
            jobs += micro_jobs() + app_jobs() + litmus_jobs()
        elif name == "suite":
            jobs += micro_jobs() + app_jobs()
        elif name == "micros":
            jobs += micro_jobs()
        elif name == "apps":
            jobs += app_jobs()
        elif name == "litmus":
            jobs += litmus_jobs()
        else:
            kind, _, rest = name.partition(":")
            if kind == "micro":
                micro = micro_by_name(rest)
                jobs.append((f"micro:{micro.name}",
                             lambda m=micro: lint_micro(m)))
            elif kind == "app":
                app_name, _, flag = rest.partition("+")
                app_cls = app_by_name(app_name)
                races = (flag,) if flag else ()
                label = f"app:{app_cls.name}" + (f"+{flag}" if flag else "")
                jobs.append((label,
                             lambda c=app_cls, r=races: lint_app(c, races=r)))
            elif kind == "litmus":
                test = litmus_by_name(rest)
                jobs.append((f"litmus:{test.name}",
                             lambda t=test: lint_litmus(t)))
            else:
                raise KeyError(
                    f"unknown lint target {name!r}: use all, suite, micros, "
                    f"apps, litmus, micro:<name>, app:<NAME>[+flag], or "
                    f"litmus:<name>"
                )
    return jobs


def lint_main(argv) -> int:
    """``scord-experiments lint``: static scope analysis, no simulation."""
    parser = argparse.ArgumentParser(
        prog="scord-experiments lint",
        description="Statically lint kernels for scope misuse "
        "(see docs/scolint.md for the rule catalog).",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=["suite"],
        help="'suite' (default: 32 micros + 7 apps, race flags on and "
        "off), 'all' (suite + litmus), 'micros', 'apps', 'litmus', or "
        "individual micro:<name> / app:<NAME>[+flag] / litmus:<name>",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="also write the report to PATH (atomic: temp file + rename)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="list clean targets individually in the text report",
    )
    parser.add_argument(
        "--crossval", action="store_true",
        help="cross-validate against the dynamic detector and print the "
        "per-race-type precision/recall table (simulates the suite)",
    )
    parser.add_argument(
        "--static-only", action="store_true",
        help="with --crossval: skip the dynamic simulations",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="write lint.* counters as Prometheus text to PATH "
        "(and JSON to PATH.json)",
    )
    args = parser.parse_args(argv)

    from repro.scolint import render_json, render_text
    from repro.scolint.model import LintError

    if args.crossval:
        from repro.scolint.crossval import cross_validate

        validation = cross_validate(dynamic=not args.static_only)
        output = validation.render() + "\n"
        if args.json:
            import json

            output = json.dumps(
                validation.as_dict(), indent=2, sort_keys=True
            ) + "\n"
        print(output, end="")
        if args.out:
            from repro.experiments.store import atomic_write_text

            atomic_write_text(args.out, output)
            print(f"[lint report written to {args.out}]", file=sys.stderr)
        errors = [
            (c.target, c.static_error)
            for c in validation.cases if c.static_error
        ]
        for target, error in errors:
            print(f"[lint-error] {target}: {error}", file=sys.stderr)
        return 1 if errors else 0

    try:
        jobs = _lint_targets(args.targets)
    except KeyError as err:
        parser.error(str(err.args[0]))

    results, errors = [], []
    for label, thunk in jobs:
        try:
            results.append(thunk())
        except LintError as err:
            errors.append((label, err))
            print(f"[lint-error] {label}: {err.describe()}",
                  file=sys.stderr, flush=True)
    output = (render_json(results) if args.json
              else render_text(results, verbose=args.verbose))
    print(output, end="")
    if args.out:
        from repro.experiments.store import atomic_write_text

        atomic_write_text(args.out, output)
        print(f"[lint report written to {args.out}]", file=sys.stderr)
    if args.metrics_out:
        from repro.scolint import record_lint_metrics
        from repro.telemetry import Telemetry

        telemetry = Telemetry.disabled()
        record_lint_metrics(telemetry, results)
        telemetry.metrics.counter("lint.errors").inc(len(errors))
        for written in telemetry.export(None, args.metrics_out):
            print(f"[telemetry written to {written}]", file=sys.stderr)
    return 1 if errors else 0


def _preflight_lint(telemetry=None):
    """Campaign pre-flight: static lint verdicts for the suite.

    Returns the manifest's ``lint`` section.  Lint findings never block
    a campaign (racey configurations are the experiments' *subject*) —
    the annotations tell the reader which verdicts to expect.
    """
    from repro.scolint import lint_suite
    from repro.scolint.model import LintError

    try:
        results = lint_suite(litmus=False, telemetry=telemetry)
    except LintError as err:
        print(f"[preflight-lint failed: {err.describe()}]", file=sys.stderr)
        return {"ok": False, "error": err.describe()}
    dirty = [r for r in results if not r.clean]
    print(
        f"[preflight-lint: {len(results)} target(s), "
        f"{len(dirty)} with static findings]",
        file=sys.stderr,
    )
    for result in dirty:
        rules = sorted({f.rule for f in result.findings})
        print(f"[preflight-lint] {result.target}: {', '.join(rules)}",
              file=sys.stderr)
    return {
        "ok": True,
        "targets": len(results),
        "clean": len(results) - len(dirty),
        "verdicts": {
            r.target: sorted({f.rule for f in r.findings})
            for r in dirty
        },
    }


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "report":
        return report_main(argv[1:])
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "fuzz":
        from repro.fuzz.cli import fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "explain":
        from repro.forensics.explain import explain_main

        return explain_main(argv[1:])
    if argv and argv[0] == "mc":
        from repro.mc.cli import mc_main

        return mc_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "run":
        # Explicit alias for the default exhibit-campaign mode, so every
        # documented subcommand has a name (bare exhibits still work).
        argv = argv[1:] or ["all"]
    parser = _build_parser()
    args = parser.parse_args(argv)

    wanted = list(args.exhibits)
    if "all" in wanted:
        wanted = list(EXHIBITS)
    unknown = [name for name in wanted if name not in EXHIBITS]
    if unknown:
        parser.error(f"unknown exhibit(s): {', '.join(unknown)}")
    if args.resume and not args.store:
        parser.error("--resume requires --store PATH")
    if args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 = one per CPU)")
    if args.worker_ttl < 0:
        parser.error("--worker-ttl must be >= 0 (0 = never recycle)")
    if args.max_worker_restarts < 0:
        parser.error("--max-worker-restarts must be >= 0")
    if args.chaos_kill_every < 0:
        parser.error("--chaos-kill-every must be >= 0 (0 = off)")
    if args.mc_budget < 1:
        parser.error("--mc-budget must be >= 1")

    cache = _build_cache(args)
    try:
        flight = _flight_config(args)
    except ValueError as error:
        parser.error(f"--flight: {error}")
    try:
        telemetry = _build_telemetry(args, flight=flight)
    except ValueError as error:
        parser.error(f"--trace-filter: {error}")
    runner = _build_runner(
        args, cache=cache, telemetry=telemetry, flight=flight
    )
    pool = getattr(runner, "pool", None)
    started = time.time()
    campaign_span = None
    if telemetry is not None:
        campaign_span = telemetry.tracer.span(
            "campaign", cat="exp", exhibits=wanted, jobs=args.jobs
        )
        campaign_span.__enter__()
    lint_section = None
    if args.preflight_lint:
        with _step(telemetry, "preflight-lint", "exp.preflight_lint"):
            lint_section = _preflight_lint(telemetry=telemetry)
    try:
        exhibit_errors = _render_exhibits(
            args, runner, wanted, cache, telemetry
        )
    finally:
        # One pool for the whole campaign: the prefetch and every unit
        # the planner missed ran on it; retire its workers exactly once.
        if pool is not None:
            pool.close()
    pool_section = None
    if pool is not None:
        pool_section = pool.stats()
        if pool.fault_plan is not None:
            pool_section["chaos_injected"] = pool.fault_plan.injected
    if args.dump:
        runner.dump_json(args.dump)
        print(f"[raw records written to {args.dump}]", file=sys.stderr)
    if campaign_span is not None:
        campaign_span.__exit__(None, None, None)
    elapsed = time.time() - started
    mc_section = None
    if args.mc:
        with _step(telemetry, "mc-upgrade", "exp.mc"):
            mc_section = _mc_section(
                runner, args.mc_budget, args.quiet, telemetry
            )
        elapsed = time.time() - started
    forensics_section = runner.forensics_section()
    if forensics_section is not None and not args.quiet:
        print(
            f"[forensics: {forensics_section['units_captured']} unit(s) "
            f"captured, {forensics_section['bundles']} bundle(s)"
            + (f" under {args.forensics_out}" if args.forensics_out else "")
            + "]",
            file=sys.stderr,
        )
    if args.manifest:
        _write_manifest(
            args.manifest, wanted, exhibit_errors, runner, elapsed,
            telemetry=telemetry, lint_section=lint_section,
            pool_section=pool_section, forensics_section=forensics_section,
            mc_section=mc_section,
        )
        print(f"[manifest written to {args.manifest}]", file=sys.stderr)
    if telemetry is not None:
        for written in telemetry.export(
            args.trace, args.metrics_out, flight_path=args.flight_out
        ):
            print(f"[telemetry written to {written}]", file=sys.stderr)
    failed_runs = getattr(runner, "failures", [])
    cached = f", {runner.cached_runs} cached" if runner.cached_runs else ""
    print(
        f"[{runner.runs_done()} unique simulations "
        f"({runner.fresh_runs} fresh, {runner.resumed_runs} resumed"
        f"{cached}), {elapsed:.0f}s]",
        file=sys.stderr,
    )
    if exhibit_errors or failed_runs:
        print(
            f"[FAILURES: {len(exhibit_errors)} exhibit(s), "
            f"{len(failed_runs)} run(s)]",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
