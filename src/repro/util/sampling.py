"""O(1) uniform sampling from a mutable set of node ids.

The dynamic-graph models need to pick a node uniformly at random from the
set of currently-alive nodes thousands of times per simulated second, while
nodes are continuously inserted and removed.  :class:`IndexedSet` supports
``add``, ``discard``, membership, and uniform ``sample`` all in O(1) using
the classic list + position-map ("swap-pop") representation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np


#: Below this many values, scalar draws beat one vector draw, whose fixed
#: cost (argument handling) exceeds three scalar calls.  Best-of timings
#: of ``k`` scalar calls vs one ``size=k`` call, NumPy 2.4 / CPython 3.11
#: on 2 vCPUs: k=1 2.0 vs 5.4 µs, k=2 3.6 vs 5.6, k=3 4.9 vs 5.1,
#: k=4 6.4 vs 6.2, k=6 11.4 vs 5.7.  Both forms consume the same stream.
_VECTOR_DRAW_MIN = 4


def _uniform_indices(rng: np.random.Generator, size: int, k: int) -> list[int]:
    """*k* uniform draws from ``[0, size)``, in stream order."""
    if k < _VECTOR_DRAW_MIN:
        return [int(rng.integers(0, size)) for _ in range(k)]
    return rng.integers(0, size, size=k).tolist()


#: Fewest values a speculative chunk of :func:`birth_prefix_draws` draws.
_SPECULATION_MIN = 512


def birth_prefix_draws(
    rng: np.random.Generator, first_size: int, count: int, d: int
) -> np.ndarray:
    """Pool indices of *count* successive newborns' *d* requests each.

    Newborn ``k`` sees a pool of ``first_size + k`` members with itself
    last, so each of its requests takes bounded draws with that bound
    until one is not its own index.  Row ``k`` of the ``(count, d)``
    result holds the same values, and *rng* ends in the same state, as a
    loop of ``IndexedSet.add(newborn)`` plus ``sample_many(rng, d,
    exclude=newborn)``; a newborn alone in its pool draws nothing and
    gets a row of −1.

    One ``rng.integers`` call with an array of bounds consumes the stream
    like scalar calls with those bounds, one after another.  So a chunk
    of about one pool size of values (at least ``_SPECULATION_MIN``) is
    drawn speculatively, assuming no rejection; at the first rejected
    value the generator state is restored and the chunk replayed up to
    and including that value, and drawing goes on from there.
    Rejections come about ``d·ln(count)`` times in all, mostly in the
    first, smallest pools.
    """
    out = np.full((count, d), -1, dtype=np.int64)
    skip = 1 if first_size == 1 else 0
    if count <= skip or d == 0:
        return out
    sizes = np.arange(first_size + skip, first_size + count, dtype=np.int64)
    bounds = np.repeat(sizes, d)
    flat = out[skip:].reshape(-1)
    bit_generator = rng.bit_generator
    pos = 0
    while pos < bounds.size:
        chunk = bounds[pos : pos + max(_SPECULATION_MIN, int(bounds[pos]))]
        saved = bit_generator.state
        values = rng.integers(0, chunk)
        rejected = np.flatnonzero(values == chunk - 1)
        if rejected.size == 0:
            flat[pos : pos + chunk.size] = values
            pos += chunk.size
            continue
        first = int(rejected[0])
        flat[pos : pos + first] = values[:first]
        bit_generator.state = saved
        rng.integers(0, chunk[: first + 1])
        pos += first
    return out


def birth_batch_draws(
    rng: np.random.Generator, first_size: int, count: int, d: int
) -> np.ndarray:
    """Pool indices of *count* successive newborns' *d* requests, in one call.

    Same arguments, result and −1 convention as
    :func:`birth_prefix_draws`, but newborn ``k`` draws each request over
    the ``first_size − 1 + k`` members before itself, so nothing is
    rejected and the batch is one ``rng.integers`` call: the same law,
    a different stream.
    """
    bounds = np.repeat(
        np.arange(first_size - 1, first_size - 1 + count, dtype=np.int64), d
    )
    valid = bounds > 0
    draws = rng.integers(0, np.where(valid, bounds, 1))
    return np.where(valid, draws, -1).reshape(count, d)


class IndexedSet:
    """A set of ints supporting O(1) add/discard/contains/uniform-sample."""

    __slots__ = ("_items", "_pos")

    def __init__(self, items: Iterable[int] = ()) -> None:
        self._items: list[int] = []
        self._pos: dict[int, int] = {}
        for item in items:
            self.add(item)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: int) -> bool:
        return item in self._pos

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedSet({self._items!r})"

    def add(self, item: int) -> None:
        """Insert *item* if not already present."""
        if item in self._pos:
            return
        self._pos[item] = len(self._items)
        self._items.append(item)

    @classmethod
    def from_unique_list(cls, items: list[int]) -> "IndexedSet":
        """Build from a list of *distinct* items at C speed.

        The fused-window write-back path: constructing via per-item
        :meth:`add` costs a Python call per member, which at n = 1e5+
        dominates an otherwise vectorized kernel.  The caller guarantees
        distinctness (a duplicate would corrupt the position map).
        """
        obj = cls()
        obj._items = list(items)
        obj._pos = dict(zip(obj._items, range(len(obj._items))))
        return obj

    def extend_unique(self, items: Iterable[int]) -> None:
        """Bulk-append *items*, all of which must be absent from the set.

        The batched-birth fast path: one C-level list extend plus one dict
        update instead of a per-item :meth:`add` loop.  The caller is
        responsible for uniqueness (the topology backends check their own
        id maps first); a duplicate would corrupt the position map.
        """
        base = len(self._items)
        self._items.extend(items)
        self._pos.update(
            (item, base + offset)
            for offset, item in enumerate(self._items[base:])
        )

    def discard(self, item: int) -> None:
        """Remove *item* if present (no-op otherwise)."""
        pos = self._pos.pop(item, None)
        if pos is None:
            return
        last = self._items.pop()
        if last != item:
            self._items[pos] = last
            self._pos[last] = pos

    def remove(self, item: int) -> None:
        """Remove *item*, raising :class:`KeyError` if absent."""
        if item not in self._pos:
            raise KeyError(item)
        self.discard(item)

    def sample(self, rng: np.random.Generator) -> int:
        """Return a uniformly random member (the set must be non-empty)."""
        if not self._items:
            raise IndexError("cannot sample from an empty IndexedSet")
        return self._items[int(rng.integers(0, len(self._items)))]

    def sample_excluding(self, rng: np.random.Generator, excluded: int) -> int:
        """Uniformly sample a member different from *excluded*.

        Requires at least one eligible member; see
        :meth:`sample_each_excluding`.
        """
        return self.sample_each_excluding(rng, (excluded,))[0]

    def sample_each_excluding(
        self, rng: np.random.Generator, excluded: Sequence[int]
    ) -> list[int]:
        """One uniform member per entry of *excluded*, never that entry.

        Rejection sampling that consumes the RNG exactly like a loop of
        scalar ``int(rng.integers(0, size))`` draws, one entry after
        another: NumPy's bounded draws with one bound form a single
        stream, so ``rng.integers(0, size, size=k)`` yields the same
        values and leaves the same generator state as ``k`` scalar
        calls.  The walk takes the stream's next value for each entry;
        a rejected value is followed by the next one, drawn in a refill
        only as long as the entries still waiting (each of them needs at
        least one more value, so nothing is over-drawn).

        Raises :class:`IndexError` (before any draw) when some entry has
        no eligible member.
        """
        items = self._items
        size = len(items)
        count = len(excluded)
        if count and (size == 0 or (size == 1 and items[0] in excluded)):
            raise IndexError("no eligible element to sample")
        out: list[int] = []
        while len(out) < count:
            # One value per waiting entry: an entry that rejects its value
            # takes the next one, and the rejections are drawn again.
            for index in _uniform_indices(rng, size, count - len(out)):
                candidate = items[index]
                if candidate != excluded[len(out)]:
                    out.append(candidate)
        return out

    def sample_many(
        self, rng: np.random.Generator, k: int, exclude: int | None = None
    ) -> list[int]:
        """Sample *k* members independently (with replacement).

        If *exclude* is given, that member is never returned.  Returns an
        empty list when no eligible member exists: this mirrors the paper's
        convention that the very first node of the network creates no edges
        because "the network" is empty at that point.
        """
        size = len(self._items)
        if size == 0:
            return []
        if exclude is not None and exclude in self._pos:
            if size == 1:
                return []
            return self.sample_each_excluding(rng, (exclude,) * k)
        return [self._items[i] for i in _uniform_indices(rng, size, k)]

    def as_list(self) -> list[int]:
        """Return a snapshot copy of the members (ordering is internal)."""
        return list(self._items)
