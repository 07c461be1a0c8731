#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload uts-spin --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all                      # every workload, a table
    python3 perfbench/run.py --record-goldens           # rewrite perfbench/goldens

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one untraced pass, then wraps each layer's public
entry points with timers (``benchlib/tracer.py``) and runs one traced
pass, and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, the
host record and (traced) the spans are written under ``.perfbench/out``.

Exit status: 0 when every output matched its golden and no process of
the benchmark outlived its workload; 1 otherwise; 2 when the program
under test is not in this checkout; 128+signal when interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib import core  # noqa: E402

WORKLOADS = ("uts-spin", "graph-loads", "serve-mixed", "mc-dpor")
#: the benchmark's own deadline, inside the 180 s a run may take
DEADLINE_S = 170
#: set-up repeats (fresh interpreters) in an untraced run
SETUP_TRIALS = 5

SERVE_NOTE = ("pool workers are separate processes: experiments.pool.* and "
              "the engine of campaign units are measured from the parent "
              "side only (engine, scord and memops spans here come from "
              "in-process program units)")


def make_workload(name: str, seed: int, size: str):
    if name in ("uts-spin", "graph-loads"):
        from benchlib.engine_workloads import EngineWorkload

        return EngineWorkload(name, seed, size)
    if name == "serve-mixed":
        from benchlib.serve_workload import ServeWorkload

        return ServeWorkload(seed, size)
    from benchlib.mc_workload import McWorkload

    return McWorkload(seed, size)


def run_workload(name, seed, seconds, trace, size="normal", workload=None):
    """Set up, measure, tear down; returns the result document."""
    from benchlib import metrics
    from benchlib.tracer import Tracer

    wl = workload if workload is not None else make_workload(name, seed, size)
    passes = []
    tr = None
    try:
        setup = wl.setup(1 if trace else SETUP_TRIALS)
        if trace:
            passes.append(wl.run_pass())
            tr = Tracer()
            tr.install()
            try:
                passes.append(wl.run_pass(tr))
            finally:
                tr.uninstall()
        else:
            started = time.perf_counter()
            while True:
                pass_started = time.perf_counter()
                passes.append(wl.run_pass())
                last = time.perf_counter() - pass_started
                if time.perf_counter() - started + last > seconds:
                    break
    finally:
        try:
            wl.close()
        finally:
            survivors = core.kill_survivors()
    errors = [e for p in passes for e in p.errors]
    if survivors:
        errors.append(f"process(es) left running after {name}, killed: "
                      f"{survivors}")
    doc = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "host": core.host_record(),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes) + bool(survivors),
        "errors": errors,
        "passes": len(passes),
        "setup_samples": setup,
        "jobs": [entry for p in passes for entry in p.job_log],
    }
    doc["correct"] = not errors
    if trace:
        doc["metrics"] = metrics.per_layer(tr, passes[1], passes[0])
        doc["notes"] = [SERVE_NOTE] if name == "serve-mixed" else []
        spans_path = os.path.join(
            core.work_dir("out"), f"spans-{name}-s{seed}.json")
        tr.dump(spans_path, {"workload": name, "seed": seed})
        doc["spans_file"] = os.path.relpath(spans_path, core.ROOT)
    else:
        doc["metrics"] = metrics.end_to_end(passes, setup)
        doc["ungated"] = {"cached_job_p50_s": metrics.cached_p50(passes)}
        doc["notes"] = []
    return doc


def print_report(doc: dict, out=sys.stdout) -> None:
    host = doc["host"]
    print(f"# {doc['workload']} seed={doc['seed']} trace={doc['trace']} "
          f"passes={doc['passes']} nproc={host['nproc']} "
          f"python={host['python']} calibration_s={host['calibration_s']:.4f}",
          file=out)
    for name, body in {**doc["metrics"], **doc.get("ungated", {})}.items():
        extra = "  (reported, no bound)" if name in doc.get("ungated", {}) \
            else ""
        if "n" in body:
            extra += f"  n={body['n']}"
        if "percentile" in body:
            extra += f" p={body['percentile']:g}"
        print(f"{name:42s} {body['value']:.6g} {body['unit']}{extra}", file=out)
    for note in doc["notes"]:
        print(f"note: {note}", file=out)
    for error in doc["errors"][:20]:
        print(f"ERROR: {error}", file=out)
    print(f"attempted={doc['attempted']} failed={doc['failed']} "
          f"error_rate={doc['failed'] / max(1, doc['attempted']):.4g}",
          file=out)


def result_line(doc: dict) -> str:
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": body["value"], "unit": body["unit"]}
            for name, body in doc["metrics"].items()
        },
    })


def save(doc: dict) -> None:
    path = os.path.join(
        core.work_dir("out"),
        f"result-{doc['workload']}-s{doc['seed']}-t{doc['trace']}.json")
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)


def record_goldens(names) -> None:
    from benchlib import engine_workloads, goldens, mc_workload, serve_workload

    def log(line):
        print(line, file=sys.stderr, flush=True)

    for name in names:
        log(f"recording goldens for {name}")
        if name in ("uts-spin", "graph-loads"):
            table = engine_workloads.record_goldens(name, log)
        elif name == "serve-mixed":
            table = serve_workload.record_goldens(log)
        else:
            table = mc_workload.record_goldens(log)
        goldens.save(name, table)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true",
                      help="run every workload and print every metric")
    mode.add_argument("--record-goldens", nargs="*", metavar="WORKLOAD",
                      choices=WORKLOADS,
                      help="rewrite the golden outputs (all by default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("normal", "tiny"), default="normal",
                        help="tiny: the smoke-test subset of each workload")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not core.program_available():
        print(f"error: the program is not in this checkout ({core.SRC})",
              file=sys.stderr)
        return 2
    core.use_source_tree()
    names = WORKLOADS if args.all else (args.workload,)
    core.install_signal_handlers(
        None if args.record_goldens is not None else DEADLINE_S * len(names)
    )
    try:
        if args.record_goldens is not None:
            record_goldens(args.record_goldens or WORKLOADS)
            return 0
        docs = []
        for name in names:
            doc = run_workload(name, args.seed, args.seconds, args.trace,
                               args.size)
            save(doc)
            print_report(doc)
            docs.append(doc)
        if not args.all:
            print(result_line(docs[0]), flush=True)
        return 0 if all(doc["correct"] for doc in docs) else 1
    except core.BenchInterrupted as err:
        core.kill_survivors()
        print(f"interrupted ({err}); no result", file=sys.stderr)
        return 128 + getattr(signal, str(err), signal.SIGTERM).value
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
