"""Correctness checks on every outcome a run produced.

Three rules. Every outcome's real results name ground-truth instances
of the queried class that are visible in the reported frame. Every
outcome met its stop condition. Every served, fleet and repeat trace is
byte-identical to a solo ``engine.run`` of the same (query, method,
run_seed), computed off the clock: the repository's determinism contract.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

_TRACE_ARRAYS = ("chunks", "frames", "d0s", "d1s", "costs")


class CheckFailed(Exception):
    """An outcome broke a rule; the message names the query."""


def trace_bytes(trace) -> bytes:
    """A canonical byte encoding of everything a trace records."""
    parts = []
    for name in _TRACE_ARRAYS:
        array = np.ascontiguousarray(getattr(trace, name))
        parts.append(f"{name}:{array.dtype.str}:{array.shape}:".encode())
        parts.append(array.tobytes())
    for result in trace.results:
        parts.append(
            repr(
                (
                    int(result.video),
                    int(result.frame),
                    result.class_name,
                    float(result.score),
                    tuple(float(x) for x in result.box_xyxy),
                    None if result.instance_uid is None else int(result.instance_uid),
                    int(result.track_id),
                )
            ).encode()
        )
    parts.append(repr((float(trace.upfront_cost), trace.searcher)).encode())
    return b"|".join(parts)


class GroundTruth:
    """Instance lookups for one dataset's world."""

    def __init__(self, dataset):
        self.world = dataset.world
        self._uids = {
            name: {inst.uid for inst in self.world.instances_of(name)}
            for name in dataset.classes
        }

    def check(self, spec, outcome) -> None:
        """Raise unless every real result is a visible instance of the class."""
        for found in outcome.found:
            if found.class_name != spec.object:
                raise CheckFailed(
                    f"{spec.label()}: result of class {found.class_name!r}"
                )
            uid = found.instance_uid
            if uid is None:
                continue  # a false positive: not a real result
            if uid not in self._uids[spec.object]:
                raise CheckFailed(
                    f"{spec.label()}: instance_uid {uid} is not a "
                    f"ground-truth {spec.object!r}"
                )
            if not self.world.instances[uid].visible_in(found.video, found.frame):
                raise CheckFailed(
                    f"{spec.label()}: instance {uid} is not visible in video "
                    f"{found.video} frame {found.frame}"
                )


def check_stop(spec, outcome, reason: Optional[str]) -> None:
    """Raise unless a limit query stopped because it reached its limit.

    ``reason`` is the session's stop reason where the client sees the
    session, None where it does not (a fleet handle).
    """
    if outcome.num_results < spec.limit or reason not in (None, "result_limit"):
        raise CheckFailed(
            f"{spec.label()}: stopped by {reason!r} with "
            f"{outcome.num_results} results"
        )


def check_identical(records, references, expected: Optional[Dict] = None) -> None:
    """Raise unless each record's trace bytes equal its reference's.

    ``references`` aligns with ``records``: the :func:`trace_bytes` of a
    solo ``engine.run`` of each record's spec. ``expected`` optionally
    maps a spec key to trace bytes that must match as well (the original
    recording of an exact repeat).
    """
    for record, want in zip(records, references, strict=True):
        if record.outcome is None:
            continue
        got = trace_bytes(record.outcome.trace)
        if got != want:
            raise CheckFailed(
                f"{record.spec.label()}: trace differs from solo engine.run"
            )
        if expected and record.spec.key in expected and got != expected[record.spec.key]:
            raise CheckFailed(
                f"{record.spec.label()}: replay differs from the recorded run"
            )


def check_records(records, truth: GroundTruth) -> None:
    """Ground truth and stop condition of every outcome."""
    for record in records:
        if record.outcome is None:
            continue
        truth.check(record.spec, record.outcome)
        check_stop(record.spec, record.outcome, record.reason)


def failed_labels(records) -> List[str]:
    return [f"{r.spec.label()}: {r.error}" for r in records if r.error is not None]
