"""Global primitive-operation counter for query-cost accounting.

A "primitive operation" is one directory/array read or one loop iteration
inside a query structure.  Structures on the query path tally their work
locally and report it with a single ``add`` per layer call (rank/select,
inorder select, LCA, the micro-root-tree and in-micro LCA, inorder rank), so
the totals are the per-read counts while a query makes only a handful of
calls; the counter is cheap enough to stay always-on.
"""

from contextlib import contextmanager

OPS = 0


def add(k: int) -> None:
    global OPS
    OPS += k


def reset() -> None:
    global OPS
    OPS = 0


def snapshot() -> int:
    return OPS


@contextmanager
def uncounted():
    """Leave the count as it was before the block: for checks that, like
    building a lookup table, are not the query's work."""
    global OPS
    saved = OPS
    try:
        yield
    finally:
        OPS = saved
