"""Quick self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

It checks two things. A one-second run of every workload, untraced and
traced, prints every metric ``BENCHMARK.json`` names, with its unit, and
passes its correctness checks; that includes ``solo``, which runs by hand
but is not listed. The checker rejects an outcome whose
trace was deliberately altered, and one whose result names an instance
of another class. Exits non-zero on the first failure.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def expect(condition, message) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metric_names(spec) -> None:
    from metrics import END_TO_END, PER_LAYER

    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == table, f"BENCHMARK.json {key} differs from metrics.py")


def check_quick_runs(spec) -> None:
    from workloads import WORKLOADS

    listed = {w["name"] for w in spec["workloads"]}
    expect(listed <= set(WORKLOADS), "BENCHMARK.json lists a workload run.py lacks")
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            label = f"{workload} --trace {trace}"
            expect(done.returncode == 0, f"{label} exited {done.returncode}: {done.stderr[-2000:]}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(result["correct"] is True and result["attempted"] >= 1, f"{label}: not correct")
            for metric in spec[key]:
                name, unit = metric["name"], metric["unit"]
                got = result["metrics"].get(name)
                expect(got is not None and got["unit"] == unit, f"{label}: {name} missing or not in {unit}")
                expect(isinstance(got["value"], (int, float)), f"{label}: {name} is not a number")
                printed = [ln for ln in lines if ln.startswith(f"# {name} ")]
                expect(printed and printed[0].split()[3] == unit, f"{label}: {name} not printed with {unit}")
            print(f"selftest: {label} ok ({result['attempted']} queries)")


def check_checker() -> None:
    from checks import CheckFailed, GroundTruth, check_identical, check_records, trace_bytes
    from stream import live_stream
    from workloads import ENGINE_SEED, Record, make_dataset

    from repro.query import QueryEngine

    dataset = make_dataset()
    engine = QueryEngine(dataset, seed=ENGINE_SEED)
    spec = next(s for s in live_stream(dataset.classes, 3) if s.method == "exsample")

    outcome = engine.run(spec.query(), method=spec.method, run_seed=spec.run_seed)
    reference = [trace_bytes(outcome.trace)]
    check_identical([Record(spec, outcome=copy.deepcopy(outcome))], reference)

    altered = copy.deepcopy(outcome)
    altered.trace.frames[0] += 1
    try:
        check_identical([Record(spec, outcome=altered)], reference)
    except CheckFailed as exc:
        expect(f"q{spec.qid} " in str(exc), "the rejection does not name the query")
    else:
        expect(False, "an altered trace passed the identity check")

    truth = GroundTruth(dataset)
    foreign = copy.deepcopy(outcome)
    real = next(i for i, r in enumerate(foreign.trace.results) if r.instance_uid is not None)
    other = next(c for c in dataset.classes if c != spec.object)
    stranger = dataset.world.instances_of(other)[0].uid
    foreign.trace.results[real] = dataclasses.replace(
        foreign.trace.results[real], instance_uid=stranger
    )
    try:
        check_records([Record(spec, outcome=foreign, reason="result_limit")], truth)
    except CheckFailed:
        pass
    else:
        expect(False, "a result naming another class's instance passed the ground-truth check")
    print("selftest: checker rejects altered outcomes ok")


def main() -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("selftest: no program under src/", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_metric_names(spec)
    check_checker()
    check_quick_runs(spec)
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
