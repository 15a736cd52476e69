"""Scope CPython's cyclic garbage collector around the long-lived world graph.

A built world is one large object graph (nodes, routers, buffers, path
followers, RNG streams) that lives for the whole run.  The cyclic collector
cannot free any of it, yet every full collection re-walks all of it, and
building or restoring a 100k-node world triggers thousands of collections.
Two scopes keep the collector off that graph:

* :func:`collector_paused` around code that allocates only long-lived
  objects (``build_scenario``, checkpoint restore): a collection there would
  find nothing to free.  On exit the survivors go straight to the oldest
  generation, so re-enabling the collector does not cost one young
  collection that walks the whole new graph.
* :func:`heap_frozen` around ``Simulator.run``: ``gc.freeze()`` moves
  everything alive at entry into the permanent generation, so collections
  during the run only scan objects made after it.

Both scopes put objects into the oldest generation without the bookkeeping
that schedules full collections, so on its own CPython would rarely collect
a world discarded after its run, and the next run would freeze it again: a
process that builds, runs and drops world after world (a sweep, a figure, a
backend worker) would keep every one.  So :func:`collector_paused` applies
CPython's own rule for full collections itself, before the new graph
exists: once the heap has grown by a quarter since the last full collection
it ran, it runs one.  Heap size is read as ``sys.getallocatedblocks()``,
which costs well under a millisecond even with a 100k-node world alive.

Neither scope changes what the simulation computes: the collector frees
unreachable objects only, and no simulation state observes when that
happens.  Both restore the collector state they found on entry.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["collector_paused", "heap_frozen"]

#: allocated memory blocks right after the last full collection
#: :func:`collector_paused` ran (``None`` before its first use)
_blocks_after_collect: Optional[int] = None

#: heap growth since that collection which triggers the next one (CPython
#: starts a full collection when long-lived objects grew by a quarter)
_GROWTH = 1.25


def _collect_if_grown() -> None:
    global _blocks_after_collect
    blocks = sys.getallocatedblocks()
    if _blocks_after_collect is not None:
        if blocks <= _GROWTH * _blocks_after_collect:
            return
        gc.collect()
        blocks = sys.getallocatedblocks()
    _blocks_after_collect = blocks


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the collector for the block; re-enable only if it was on."""
    enabled = gc.isenabled()
    if enabled:
        # free what earlier scopes left unscanned (typically the previous,
        # discarded world) while the heap does not yet hold the new graph
        _collect_if_grown()
    gc.disable()
    try:
        yield
    finally:
        if not gc.get_freeze_count():
            # freeze + unfreeze moves every tracked object into the oldest
            # generation without scanning; skipped when the caller keeps a
            # frozen set, which unfreeze would release
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


@contextmanager
def heap_frozen() -> Iterator[None]:
    """Freeze the heap for the block and unfreeze it on exit.

    A non-empty permanent generation on entry belongs to the caller (or to
    an enclosing frozen scope), so it is left exactly as found.
    """
    if gc.get_freeze_count():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
