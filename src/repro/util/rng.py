"""Deterministic random-number-generator management.

All stochastic objects in the library accept either an integer seed or a
ready-made :class:`numpy.random.Generator`.  Experiments that run many
independent trials derive one child generator per trial from a single master
seed via :class:`numpy.random.SeedSequence`, which guarantees statistically
independent, fully reproducible streams.

Two derivation schemes coexist:

* :func:`child_seeds` — positional children of one master seed (the
  original scheme).  Deriving *several* independent families this way
  forced callers into ad-hoc arithmetic (``child_seeds(seed + 1, ...)``,
  ``seed + 2``, ...), which is fragile: nothing stops two call sites from
  colliding on the same offset, and the offsets silently alias across
  master seeds (family *k* of seed *s* equals family *k − 1* of seed
  *s + 1*).
* :func:`derive_seeds` — **named streams**.  Every family of trials
  names its stream (``derive_seeds(seed, "exp01-sdg", trials)``); the
  name is hashed into the :class:`~numpy.random.SeedSequence` entropy, so
  distinct names give statistically independent streams for the *same*
  master seed, with no cross-seed aliasing and no offsets to coordinate.
  This is the scheme the sweep plane keys its per-cell seeds on.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

#: Type accepted everywhere a source of randomness is needed.
SeedLike = int | np.random.Generator | np.random.SeedSequence | None


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``None`` yields a non-deterministic generator (fresh OS entropy); an
    existing generator is passed through unchanged so callers can thread one
    generator through a pipeline without re-seeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def child_seeds(seed: SeedLike, count: int) -> list[np.random.SeedSequence]:
    """Derive *count* independent child seed sequences from *seed*.

    The children are suitable for parallel or sequential trials: streams
    seeded from distinct children are independent by construction.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif isinstance(seed, np.random.Generator):
        # Derive a root sequence from the generator's own stream so that
        # repeated calls advance deterministically.
        root = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    else:
        root = np.random.SeedSequence(seed)
    return list(root.spawn(count))


_SEED_MASK = (1 << 64) - 1


def _stream_entropy(stream: str) -> tuple[int, ...]:
    """Stable 128-bit entropy words for a stream name (sha256 prefix)."""
    digest = hashlib.sha256(stream.encode("utf-8")).digest()
    return tuple(
        int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
    )


def stream_root(seed: int, stream: str) -> np.random.SeedSequence:
    """The root :class:`~numpy.random.SeedSequence` of a named stream.

    The root's entropy combines the integer master *seed* with a hash of
    the *stream* name, so streams with distinct names are independent for
    the same master seed, and — unlike ``child_seeds(seed + k, ...)``
    offsetting — a stream of seed ``s`` never aliases a stream of seed
    ``s + 1``.
    """
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise TypeError(
            f"named seed streams need an integer master seed, got {seed!r}"
        )
    if not stream:
        raise ValueError("stream name must be a non-empty string")
    return np.random.SeedSequence(
        entropy=[int(seed) & _SEED_MASK, *_stream_entropy(stream)]
    )


def derive_seed(seed: int, stream: str, index: int) -> np.random.SeedSequence:
    """Child *index* of the named stream — O(1), independent of *index*.

    Equals ``derive_seeds(seed, stream, n)[index]`` for any ``n > index``
    (children are addressed by spawn key, exactly as
    :meth:`numpy.random.SeedSequence.spawn` numbers them), which is what
    lets parallel sweep workers re-derive a single cell's seed without
    materializing the whole grid's seed list.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    root = stream_root(seed, stream)
    return np.random.SeedSequence(
        entropy=root.entropy, spawn_key=(index,)
    )


def derive_seeds(
    seed: int, stream: str, count: int
) -> list[np.random.SeedSequence]:
    """*count* independent child seeds of the named stream.

    Name the family instead of hand-numbering it::

        for child in derive_seeds(seed, "exp01-pdg", trials):
            ...

    Children are the stream root's spawn children, so
    ``derive_seeds(s, name, n)[i]`` equals ``derive_seed(s, name, i)``
    for any ``n > i`` (asserted in tests/test_util_rng.py).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return list(stream_root(seed, stream).spawn(count))


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Return *count* independent generators derived from *seed*."""
    return [np.random.default_rng(child) for child in child_seeds(seed, count)]


def sample_indices_with_replacement(
    rng: np.random.Generator, population_size: int, k: int
) -> Sequence[int]:
    """Sample *k* indices uniformly with replacement from ``range(population_size)``."""
    if population_size <= 0:
        raise ValueError("population_size must be positive")
    return rng.integers(0, population_size, size=k).tolist()
