"""Pause Python's cyclic garbage collector around bulk allocation.

The parser, the preprocessor's clause database and the CDCL kernel each
build large numbers of small, long-lived containers (clause lists, tuples,
occurrence sets, watch lists) in one burst. Every few hundred allocations
that triggers a generational collection, and each sweep scans a heap of
*live* objects with no garbage to find. Reference counting still reclaims
everything these builders drop; only cycle detection is deferred.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

__all__ = ["paused_gc"]


@contextmanager
def paused_gc():
    """Disable the cyclic collector for the duration of the block.

    Restored on every exit path; a no-op when the collector is already
    disabled (by an enclosing pause or by the embedding application).
    Usable as a decorator too (``@paused_gc()``).
    """
    if gc.isenabled():
        gc.disable()
        try:
            yield
        finally:
            gc.enable()
    else:
        yield
