"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload served --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see ``metrics.py``). A traced run spends half its seconds on an
untraced closed loop and then replays the same queries on a fresh set-up
with every entry point wrapped, so ``trace.overhead_frac`` compares the
two. Every run checks its outcomes (see ``checks.py``) after the clock
stops. Human-readable lines start with ``#``; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. A failed check prints the query on standard error and exits
with code 1 without a result. Files go to ``.perfbench/`` under the
repository root.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["solo", "served", "fleet", "repeat"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


@dataclass
class Measured:
    """Everything one run measured, before any check or metric."""

    workload: object
    setups: list
    phase: object
    traced: object
    tracer: object


async def measure(args, workdir):
    """Set up, run the timed phase (and the traced replay), tear down."""
    from tracer import Tracer
    from workloads import SETUP_REPEATS, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.prepare()
    setups: list = []

    async def timed_setup():
        began = time.perf_counter()
        state = await workload.setup()
        setups.append(time.perf_counter() - began)
        return state

    workload.fresh()
    for _ in range(SETUP_REPEATS // 2 - 1):
        await workload.teardown(await timed_setup())
    state = await timed_setup()
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        phase = await workload.drive(state, workload.stream(), seconds, None)
    finally:
        await workload.teardown(state)
    workload.fresh()
    for _ in range(SETUP_REPEATS - len(setups)):
        await workload.teardown(await timed_setup())

    traced = tracer = None
    if args.trace:
        workload.fresh()
        state = await workload.setup()
        tracer = Tracer()
        tracer.install()
        try:
            specs = iter([r.spec for r in phase.records])
            traced = await workload.drive(state, specs, float("inf"), tracer)
        finally:
            tracer.uninstall()
            await workload.teardown(state)
    return Measured(workload, setups, phase, traced, tracer)


def check(measured: Measured) -> None:
    """Check every outcome, off the clock; raises CheckFailed."""
    from checks import CheckFailed, GroundTruth, check_identical, check_records, trace_bytes

    workload, phase, traced = measured.workload, measured.phase, measured.traced
    check_records(phase.records, GroundTruth(workload.dataset))
    references = workload.references(phase.records)
    if references is not None:
        check_identical(phase.records, references, workload.expected())
    if traced is not None:
        untraced = {r.spec.qid: r for r in phase.records}
        for record in traced.records:
            base = untraced[record.spec.qid]
            if (record.outcome is None) != (base.outcome is None) or (
                record.outcome is not None
                and trace_bytes(record.outcome.trace) != trace_bytes(base.outcome.trace)
            ):
                raise CheckFailed(f"{record.spec.label()}: traced run differs from untraced")


def report(args, measured: Measured):
    """The metrics of a run, with notes for the human-readable lines."""
    from checks import failed_labels
    from measure import median, tail
    from tracer import SpanSummary
    from workloads import layer_metrics

    setups, phase, traced, tracer = (
        measured.setups, measured.phase, measured.traced, measured.tracer
    )
    if tracer is None:
        done = phase.done
        latencies = [r.t_done - r.t_submit for r in done]
        firsts = [(r.t_first or r.t_done) - r.t_submit for r in done]
        tail_value, tail_pct = tail(latencies)
        wall = phase.end - phase.start
        metrics = {
            "setup_s": median(setups),
            "queries_per_s": len(done) / wall if wall > 0 else 0.0,
            "query_latency_p50_ms": median(latencies) * 1e3,
            "query_latency_tail_ms": tail_value * 1e3,
            "first_result_p50_ms": median(firsts) * 1e3,
            "us_per_sample": phase.us_per_sample,
            "cpu_us_per_sample": phase.cpu_s / max(phase.samples, 1) * 1e6,
            "samples_per_result": phase.samples / max(sum(r.outcome.num_results for r in done), 1),
            "peak_rss_mb": phase.rss_mb,
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "queries_per_s": f"{len(done)} queries in {wall:.3f} s",
            "query_latency_p50_ms": f"n={len(latencies)}",
            "query_latency_tail_ms": f"p{tail_pct:.1f}, n={len(latencies)}",
            "first_result_p50_ms": f"n={len(firsts)}"
            + (", results arrive with the outcome" if args.workload == "fleet" else ""),
            "us_per_sample": f"{phase.samples} sampled frames",
            "cpu_us_per_sample": "process tree",
        }
    else:
        tracer.add_query_spans(traced.records)
        summary = SpanSummary(tracer.spans, (traced.start, traced.end))
        metrics = layer_metrics(traced, summary, phase)
        notes = {
            "trace.overhead_frac": f"traced {traced.us_per_sample:.1f} vs untraced "
            f"{phase.us_per_sample:.1f} us/sample",
            "spans": f"{len(tracer.spans)} spans, {len(traced.records)} queries replayed",
        }
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.jsonl"))
    attempted = len(phase.records)
    failed = failed_labels(phase.records)
    notes["failed_frac"] = f"{len(failed) / max(attempted, 1):.4f} ({len(failed)} of {attempted})"
    for index, label in enumerate(failed):
        notes[f"failed[{index}]"] = label
    return metrics, notes, attempted, len(failed)


def environment(args, workload) -> dict:
    import numpy

    from workloads import DATASET, DATASET_SEED, ENGINE_SEED, SCALE

    digest = hashlib.blake2b(digest_size=16)
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "dataset": DATASET,
        "scale": SCALE,
        "dataset_seed": DATASET_SEED,
        "engine_seed": ENGINE_SEED,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": workload.clients,
        "loop": workload.loop,
        "git_commit": commit,
        "source_digest": digest.hexdigest(),
    }


def stop_children() -> None:
    """Stop every child process still alive and wait for it to end: the
    shared-cache manager, and the tracker of the fleet's shared memory."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    # Stops the tracker if it was started, and waits for it.
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from checks import CheckFailed
    from metrics import END_TO_END, PER_LAYER

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # Temporary files of the program (the shared-cache manager's socket)
    # stay in the checkout too. A relative path keeps the socket address
    # under the AF_UNIX length limit however deep the checkout is.
    tempfile.tempdir = os.path.relpath(workdir)
    try:
        measured = asyncio.run(measure(args, workdir))
        check(measured)
        metrics, notes, attempted, failed = report(args, measured)
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    env = environment(args, measured.workload)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, "results", f"{stem}.json"), "w") as handle:
        json.dump({"environment": env, "notes": notes, **result}, handle, indent=1)
    print("# environment: " + json.dumps(env))
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"# {name:40s} {metrics[name]:>14.6g} {unit}{note}")
    for name, note in notes.items():
        if name not in units:
            print(f"# {name:40s} {note}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
