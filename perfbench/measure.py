"""Process-tree CPU and memory readings, and the percentile rules."""

from __future__ import annotations

import multiprocessing
import os
import resource
import statistics
from typing import Dict, List, Sequence, Tuple

_TICKS = os.sysconf("SC_CLK_TCK")


def _children() -> List[int]:
    """Live child processes (fleet shards, the shared-cache manager)."""
    return [child.pid for child in multiprocessing.active_children()]


def _child_cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # utime and stime are fields 14 and 15 of proc(5); index 0 is field 3.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def cpu_snapshot() -> Dict[int, float]:
    """CPU seconds so far of this process and of each live child."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    snapshot = {os.getpid(): usage.ru_utime + usage.ru_stime}
    for pid in _children():
        snapshot[pid] = _child_cpu_s(pid)
    return snapshot


def cpu_delta(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU seconds the process tree spent between two snapshots."""
    return sum(value - before.get(pid, 0.0) for pid, value in after.items())


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Sum of the peak resident sets of this process and its live children."""
    pids = [os.getpid()] + _children()
    return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten values beyond it.

    Returns ``(value, percentile)``: the eleventh-largest value and the
    share of values below it. With ten values or fewer it is the largest
    value, reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return (float(ordered[-1]) if ordered else 0.0), 100.0
    return float(ordered[n - 11]), 100.0 * (n - 10) / n
