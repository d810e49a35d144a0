"""O(1) uniform sampling from a mutable set of node ids.

The dynamic-graph models need to pick a node uniformly at random from the
set of currently-alive nodes thousands of times per simulated second, while
nodes are continuously inserted and removed.  :class:`IndexedSet` supports
``add``, ``discard``, membership, and uniform ``sample`` all in O(1) using
the classic list + position-map ("swap-pop") representation.
"""

from __future__ import annotations

from bisect import bisect_left
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


#: Raw words are 32-bit: ``rng.integers(0, b)`` with ``b <= 2**32`` draws
#: one ``next_uint32`` per attempt (Lemire's multiply-shift).
_WORD_SPAN = 1 << 32
_LOW_HALF = _WORD_SPAN - 1

#: Most words one block of a :class:`RawWordDraws` holds: 256 KiB of
#: words, and per tabulated bound about 2.4 MB of Python ints.  Bounds
#: what a long window keeps at once and what a close replays.
_MAX_BLOCK_WORDS = 1 << 16

#: Blocks of at most this many words serve :meth:`RawWordDraws.take` with
#: a per-word Python loop: below it a block is cheaper to walk than to
#: tabulate with NumPy, whose per-call cost dominates a one-round window
#: (about 3d words).
_SMALL_BLOCK_WORDS = 64


def _check_bound(bound: int) -> None:
    if not 1 <= bound <= _WORD_SPAN:
        raise ValueError(
            f"raw-word draws need 1 <= bound <= 2**32, got {bound}"
        )


def _lemire(
    words: np.ndarray, bounds: np.ndarray | np.uint64
) -> tuple[np.ndarray, np.ndarray]:
    """NumPy's bounded draw ``[0, bound)`` from each raw word.

    Returns the values ``(w·b) >> 32`` (int64) and the ascending
    positions of the words NumPy rejects, whose low half is below
    ``(2**32 − b) % b``: a rejected word is discarded and the draw takes
    the next word with the same bound.  *words* are uint32, *bounds* (an
    array or one shared scalar) uint64, each at least 2, since a bound
    of 1 takes no word at all.  Like NumPy, the threshold is worked out
    only where the low half is below the bound, which always exceeds it.
    """
    product = words * bounds
    at = np.flatnonzero((product & _LOW_HALF) < bounds)
    if at.size:
        bound = bounds[at] if np.ndim(bounds) else bounds
        at = at[(product[at] & _LOW_HALF) < (_WORD_SPAN - bound) % bound]
    np.right_shift(product, 32, out=product)
    return product.view(np.int64), at


class RawWordDraws:
    """Exact bounded draws from one generator, served from raw-word blocks.

    For every bound ``1 <= b <= 2**32`` each draw returns what
    ``rng.integers(0, b)`` would at that point of the stream, and after
    :meth:`close` the generator is in the state those per-call draws
    would have left.  Words are pulled ahead in blocks with one
    ``rng.integers(0, 2**32, size=m, dtype=np.uint32)`` call (the same
    ``next_uint32`` sequence the bounded draws consume) and turned into
    values with NumPy's own multiply-shift and rejection rule
    (:func:`_lemire`).  A block is refilled only once it is used up, so
    refills never rewind; :meth:`close` restores the state saved before
    the last block and replays exactly its consumed words.  Nothing else
    may draw from the generator while the source is open.

    A take's *ahead* hint (the words the caller expects to need after
    it) sizes a refill, up to ``_MAX_BLOCK_WORDS``.  Its *sure* part
    counts draws certain to follow, each taking at least one word: a
    block no longer than the take plus those is certain to be used up,
    so it is drawn without saving the state it would rewind to.
    """

    __slots__ = ("_rng", "_saved", "_words", "_raw", "_pos", "_size", "_tables")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._saved = None
        self._words = None
        self._raw: list[int] | None = None
        self._pos = 0
        self._size = 0
        self._tables: dict[int, list] = {}

    def __enter__(self) -> "RawWordDraws":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is not None and self._saved is None:
            # An error cut short the draws this block was sure to serve;
            # leave the generator after the block rather than mask it.
            self._pos = self._size
        self.close()

    def close(self) -> None:
        """Rewind the generator to just after the consumed words.

        Raises :class:`RuntimeError` when a block drawn for sure draws
        was not used up: the state to rewind to was never saved.
        """
        if self._pos < self._size:
            if self._saved is None:
                raise RuntimeError(
                    f"{self._size - self._pos} words drawn for draws that "
                    "were sure to follow were never used"
                )
            self._rng.bit_generator.state = self._saved
            if self._pos:
                self._rng.integers(0, _WORD_SPAN, size=self._pos, dtype=np.uint32)
        self._words = self._raw = None
        self._pos = self._size = 0
        self._tables = {}

    def _refill(self, size: int, sure: int) -> None:
        """Replace the used-up block with *size* fresh words (capped).

        *sure* counts the words certain to be consumed next; a block no
        longer than that is not rewound, so its start state is not saved.
        """
        size = min(max(size, 1), _MAX_BLOCK_WORDS)
        self._saved = self._rng.bit_generator.state if size > sure else None
        self._words = self._rng.integers(0, _WORD_SPAN, size=size, dtype=np.uint32)
        self._raw = self._words.tolist() if size <= _SMALL_BLOCK_WORDS else None
        self._pos = 0
        self._size = size
        self._tables = {}

    def take(
        self, bound: int, count: int, ahead: int = 0, sure: int = 0
    ) -> list[int]:
        """*count* draws over ``[0, bound)`` as Python ints.

        A large block keeps, per bound, its values and rejected word
        positions as Python lists and the next rejected position it
        found, so a take inside it that ends before that position is a
        list slice; a small block is walked word by word.
        """
        table = self._tables.get(bound)
        pos = self._pos
        end = pos + count
        if table is not None and pos <= end <= table[2]:
            self._pos = end
            return table[0][pos:end]
        _check_bound(bound)
        if count < 0:
            raise ValueError(f"negative draw count {count}")
        if bound == 1:
            return [0] * count
        out: list[int] = []
        while len(out) < count:
            need = count - len(out)
            if self._pos == self._size:
                self._refill(need + ahead, need + sure)
            pos = self._pos
            end = min(self._size, pos + need)
            if self._raw is not None:
                threshold = (_WORD_SPAN - bound) % bound
                for word in self._raw[pos:end]:
                    product = word * bound
                    if product & _LOW_HALF >= threshold:
                        out.append(product >> 32)
                self._pos = end
                continue
            table = self._table(bound)
            values, rejected, _ = table
            # Positions only grow within a block, so the first rejected
            # one from here stays the next one until a take passes it.
            stop = table[2] = rejected[bisect_left(rejected, pos)]
            if stop < end:
                out += values[pos:stop]
                self._pos = stop + 1
                continue
            out += values[pos:end]
            self._pos = end
        return out

    def _table(self, bound: int) -> list:
        """The block's values and rejected word positions under *bound*
        (ending with the block size as a sentinel), then the first
        rejected position at or after the last general-loop take."""
        table = self._tables.get(bound)
        if table is None:
            values, rejected = _lemire(self._words, np.uint64(bound))
            rejected = rejected.tolist() + [self._size]
            table = self._tables[bound] = [values.tolist(), rejected, rejected[0]]
        return table

    def take_array(
        self, bound: int, count: int, redraw_last: bool = False
    ) -> np.ndarray:
        """*count* draws over ``[0, bound)`` as an int64 array.

        With *redraw_last* a value of ``bound − 1`` is drawn again, so
        the values lie in ``[0, bound − 1)``: a newborn, last of its own
        pool, rejecting itself.
        """
        _check_bound(bound)
        if redraw_last and bound < 2:
            raise ValueError("redrawing the last value needs a bound of 2 or more")
        if bound == 1:
            return np.zeros(count, dtype=np.int64)
        if count <= _SMALL_BLOCK_WORDS and not redraw_last:
            return np.array(self.take(bound, count), dtype=np.int64)
        out = np.empty(count, dtype=np.int64)
        self._fill(np.full(count, bound, dtype=np.uint64), out, redraw_last)
        return out

    def _fill(
        self, bounds: np.ndarray, out: np.ndarray, redraw_last: bool = False
    ) -> None:
        """One draw per uint64 bound (each at least 2) into *out*.

        With *redraw_last* a value equal to its bound − 1 is drawn again
        with the same bound (a newborn that is last in its own pool
        rejecting itself); each redraw moves every later draw one word
        on.  Values are computed a run at a time from the unread words;
        a run stops at its first redraw, and with *redraw_last* spans
        about one bound's worth of draws (at least
        ``_SPECULATION_MIN``), the expected distance between self-hits.
        """
        pos = 0
        while pos < bounds.size:
            if self._pos == self._size:
                self._refill(bounds.size - pos, bounds.size - pos)
            span = bounds.size - pos
            if redraw_last:
                span = min(span, max(_SPECULATION_MIN, int(bounds[pos])))
            words = self._words[self._pos : self._pos + span]
            run = bounds[pos : pos + words.size]
            values, rejected = _lemire(words, run)
            stop = int(rejected[0]) if rejected.size else words.size
            if redraw_last:
                hits = np.flatnonzero(values[:stop] == run[:stop] - 1)
                stop = int(hits[0]) if hits.size else stop
            out[pos : pos + stop] = values[:stop]
            self._pos += stop + (stop < words.size)
            pos += stop


#: Fewest draws one speculative run of :func:`birth_prefix_draws` spans.
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

    Every draw comes from one :class:`RawWordDraws` source.  Values are
    computed a run of about one pool size at a time, assuming no
    rejection; a self-hit ends the run, its word is consumed, and the
    request draws again from the next word, so every later request
    moves one word on.  Self-hits come about ``d·ln(count)`` times in
    all, mostly in the first, smallest pools.
    """
    out = np.full((count, d), -1, dtype=np.int64)
    skip = 1 if first_size == 1 else 0
    if count <= skip or d == 0:
        return out
    sizes = np.arange(first_size + skip, first_size + count, dtype=np.uint64)
    with RawWordDraws(rng) as source:
        source._fill(np.repeat(sizes, d), out[skip:].reshape(-1), redraw_last=True)
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

    def index(self, item: int) -> int:
        """Position of *item* in the internal order (``KeyError`` if absent)."""
        return self._pos[item]

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
