"""The in-slots of a slot matrix's rows: a lazy reverse index and a scan.

:class:`~repro.core.array_backend.ArraySlotBackend` stores each node's
out-requests as target rows in one slot matrix.  The requests pointing
at a row, its in-slots, come from one of two places: the
:class:`ReverseIndex`, a cache of one set of ``(source id, slot)`` pairs
per row built from a sorted snapshot of the matrix, or
:func:`scan_in_slot_keys`, one pass over the matrix for a few rows.
The scan gives an in-slot as the key ``source id · width + slot``, which
sorts as its ``(source id, slot)`` pair does.
"""

from __future__ import annotations

import numpy as np


class ReverseIndex(dict):
    """Row -> set of ``(source id, slot)`` pairs whose slot targets the row.

    Built from one snapshot of the slot matrix: the assigned slots in
    row-major order, stably sorted by target row.  A row's set is made
    from its run of the snapshot on first lookup (:meth:`__missing__`)
    and kept, so later mutations edit it in place.  Rows beyond the
    snapshot (grown later) start empty.  A set's iteration order is
    unspecified: every consumer that exposes an order sorts ascending.
    """

    __slots__ = ("_starts", "_sources", "_cols")

    def __init__(self, slots: np.ndarray, id_of: np.ndarray) -> None:
        super().__init__()
        cap, width = slots.shape
        flat_slots = slots.reshape(-1)
        flat = np.flatnonzero(flat_slots >= 0)
        targets = flat_slots[flat]
        # Sort by target with the row-major flat index as the tie-break:
        # one integer sort, several times faster than a stable argsort.
        flat = np.sort(targets * flat_slots.size + flat) % flat_slots.size
        rows, self._cols = np.divmod(flat, width)
        self._sources = id_of[rows]
        self._starts = np.zeros(cap + 1, dtype=np.int64)
        np.cumsum(np.bincount(targets, minlength=cap), out=self._starts[1:])

    def __missing__(self, row: int) -> set[tuple[int, int]]:
        bounds = self._starts[row : row + 2].tolist()
        lo, hi = bounds if len(bounds) == 2 else (0, 0)
        refs = set(zip(self._sources[lo:hi].tolist(), self._cols[lo:hi].tolist()))
        self[row] = refs
        return refs


def scan_in_slot_keys(
    slots: np.ndarray, id_of: np.ndarray, rows: list[int | None]
) -> list[list[int]]:
    """The in-slots of each of *rows* as keys ``source id · width +
    slot``, in row-major order, from one pass over *slots* (the used
    rows of the slot matrix); ``None`` gets an empty list.  *id_of*
    maps a row to its node id and has one entry per row of capacity.
    """
    width = slots.shape[1]
    listed = [(k, row) for k, row in enumerate(rows) if row is not None]
    listed_rows = [row for _, row in listed]
    flat = slots.reshape(-1)
    # One more entry at the end, which an empty slot's -1 reads.
    wanted = np.zeros(id_of.size + 1, dtype=bool)
    wanted[listed_rows] = True
    hits = np.flatnonzero(wanted[flat])
    local_of = np.empty(id_of.size, dtype=np.int64)  # read at listed rows
    local_of[listed_rows] = [k for k, _ in listed]
    source_rows, cols = np.divmod(hits, width)
    return grouped(id_of[source_rows] * width + cols, local_of[flat[hits]], len(rows))


def grouped(values: np.ndarray, groups: np.ndarray, count: int) -> list[list[int]]:
    """*values* split into *count* lists by their group index, each list
    in the order of *values*."""
    ends = np.cumsum(np.bincount(groups, minlength=count)).tolist()
    values = values[np.argsort(groups, kind="stable")].tolist()
    return [values[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]
