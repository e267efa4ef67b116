"""Seeded query streams: the only input the program receives.

Every stream is built from blocks. A live block holds each of the seven
dashcam classes four times: ``exsample`` at limits 5, 10 and 15 and
``random`` at limit 10, shuffled, each with a fresh run seed and one of
four tenants. Fixing the block composition keeps the mix, and so the
work per query, the same across workload seeds; the seed decides the
order, the run seeds and the tenants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator, List, Sequence

import numpy as np

from repro.query import DistinctObjectQuery
from repro.serving import WorkloadItem

#: (method, limit) pairs of one class in a live block: mostly ExSample,
#: a minority of random, so a change that speeds one searcher at the
#: other's cost shows.
BLOCK_PATTERN = (("exsample", 5), ("exsample", 10), ("exsample", 15), ("random", 10))
TENANTS = ("tenant-0", "tenant-1", "tenant-2", "tenant-3")
#: Of every 20 queries of the ``repeat`` stream, this many are exact
#: repeats of recorded submissions. Not exactly half, so the latency
#: median does not sit on the boundary between the two populations.
REPEATS_PER_20 = 8


@dataclass(frozen=True)
class QuerySpec:
    """One generated submission. ``kind`` is ``live``, ``new`` or ``repeat``."""

    qid: int
    object: str
    limit: int
    method: str
    run_seed: int
    tenant: str
    kind: str = "live"

    def query(self) -> DistinctObjectQuery:
        return DistinctObjectQuery(self.object, limit=self.limit)

    def item(self) -> WorkloadItem:
        return WorkloadItem(
            object=self.object,
            limit=self.limit,
            method=self.method,
            run_seed=self.run_seed,
            tenant=self.tenant,
        )

    @property
    def key(self) -> tuple:
        """What determines the outcome: (query, method, run_seed)."""
        return (self.object, self.limit, self.method, self.run_seed)

    def label(self) -> str:
        return (
            f"q{self.qid} {self.kind} {self.method} {self.object!r} "
            f"limit={self.limit} run_seed={self.run_seed} tenant={self.tenant}"
        )


class _Seeds:
    """Draws run seeds never drawn before from this generator."""

    def __init__(self, rng: np.random.Generator, taken: Sequence[int] = ()):
        self.rng = rng
        self.taken = set(taken)

    def fresh(self) -> int:
        while True:
            seed = int(self.rng.integers(1, 2**31 - 1))
            if seed not in self.taken:
                self.taken.add(seed)
                return seed


def _live_blocks(classes, rng, seeds) -> Iterator[tuple]:
    """Endless shuffled live blocks of (class, method, limit, tenant, seed)."""
    combos = [(c, m, lim) for c in classes for m, lim in BLOCK_PATTERN]
    while True:
        order = rng.permutation(len(combos))
        tenants = rng.permutation(np.resize(np.arange(len(TENANTS)), len(combos)))
        for position, index in enumerate(order):
            cls, method, limit = combos[index]
            yield cls, method, limit, TENANTS[tenants[position]], seeds.fresh()


def live_stream(classes: Sequence[str], seed: int) -> Iterator[QuerySpec]:
    """The endless query stream of ``solo``, ``served`` and ``fleet``."""
    rng = np.random.default_rng([seed, 1])
    seeds = _Seeds(rng)
    for qid, (cls, method, limit, tenant, run_seed) in enumerate(
        _live_blocks(classes, rng, seeds)
    ):
        yield QuerySpec(qid, cls, limit, method, run_seed, tenant)


def history(classes: Sequence[str], seed: int) -> List[QuerySpec]:
    """One live block: the submissions ``repeat`` records before set-up."""
    rng = np.random.default_rng([seed, 2])
    block = itertools.islice(
        _live_blocks(classes, rng, _Seeds(rng)), len(classes) * len(BLOCK_PATTERN)
    )
    return [
        QuerySpec(-1 - i, cls, limit, method, run_seed, tenant, kind="history")
        for i, (cls, method, limit, tenant, run_seed) in enumerate(block)
    ]


def repeat_stream(
    classes: Sequence[str], seed: int, recorded: Sequence[QuerySpec]
) -> Iterator[QuerySpec]:
    """The endless ``repeat`` stream over a recorded ``history``.

    Exact repeats copy a recorded submission; new queries take fresh run
    seeds of the recorded classes, from live blocks.
    """
    rng = np.random.default_rng([seed, 3])
    seeds = _Seeds(rng, taken=[spec.run_seed for spec in recorded])
    new_queries = _live_blocks(classes, rng, seeds)
    qid = 0
    while True:
        kinds = rng.permutation([True] * REPEATS_PER_20 + [False] * (20 - REPEATS_PER_20))
        for is_repeat in kinds:
            if is_repeat:
                pick = recorded[int(rng.integers(len(recorded)))]
                yield replace(pick, qid=qid, kind="repeat")
            else:
                cls, method, limit, tenant, run_seed = next(new_queries)
                yield QuerySpec(qid, cls, limit, method, run_seed, tenant, kind="new")
            qid += 1
