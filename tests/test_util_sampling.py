"""Tests for repro.util.sampling.IndexedSet, including hypothesis properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import sampling
from repro.util.rng import make_rng
from repro.util.sampling import (
    IndexedSet,
    RawWordDraws,
    birth_batch_draws,
    birth_prefix_draws,
)


class TestBasicOps:
    def test_add_and_contains(self):
        s = IndexedSet()
        s.add(3)
        assert 3 in s
        assert 4 not in s

    def test_len(self):
        s = IndexedSet([1, 2, 3])
        assert len(s) == 3

    def test_duplicate_add_is_noop(self):
        s = IndexedSet()
        s.add(1)
        s.add(1)
        assert len(s) == 1

    def test_discard(self):
        s = IndexedSet([1, 2, 3])
        s.discard(2)
        assert 2 not in s
        assert len(s) == 2

    def test_discard_absent_is_noop(self):
        s = IndexedSet([1])
        s.discard(9)
        assert len(s) == 1

    def test_remove_raises_on_absent(self):
        with pytest.raises(KeyError):
            IndexedSet([1]).remove(2)

    def test_iteration_covers_members(self):
        s = IndexedSet([5, 6, 7])
        assert sorted(s) == [5, 6, 7]

    def test_as_list_is_copy(self):
        s = IndexedSet([1, 2])
        lst = s.as_list()
        lst.append(99)
        assert 99 not in s


class TestSampling:
    def test_sample_from_singleton(self):
        s = IndexedSet([42])
        assert s.sample(make_rng(0)) == 42

    def test_sample_empty_raises(self):
        with pytest.raises(IndexError):
            IndexedSet().sample(make_rng(0))

    def test_sample_is_member(self):
        s = IndexedSet(range(100))
        rng = make_rng(1)
        for _ in range(50):
            assert s.sample(rng) in s

    def test_sample_excluding(self):
        s = IndexedSet([1, 2])
        rng = make_rng(2)
        for _ in range(20):
            assert s.sample_excluding(rng, 1) == 2

    def test_sample_excluding_no_candidate(self):
        s = IndexedSet([1])
        with pytest.raises(IndexError):
            s.sample_excluding(make_rng(0), 1)

    def test_sample_many_counts(self):
        s = IndexedSet(range(10))
        out = s.sample_many(make_rng(0), 25)
        assert len(out) == 25

    def test_sample_many_excludes(self):
        s = IndexedSet([7, 8])
        out = s.sample_many(make_rng(0), 50, exclude=7)
        assert out == [8] * 50

    def test_sample_many_empty(self):
        assert IndexedSet().sample_many(make_rng(0), 5) == []

    def test_sample_many_only_excluded(self):
        s = IndexedSet([3])
        assert s.sample_many(make_rng(0), 5, exclude=3) == []

    def test_sampling_is_roughly_uniform(self):
        s = IndexedSet(range(4))
        rng = make_rng(3)
        counts = {i: 0 for i in range(4)}
        trials = 8000
        for _ in range(trials):
            counts[s.sample(rng)] += 1
        for c in counts.values():
            assert abs(c / trials - 0.25) < 0.03


class TestSwapPopConsistency:
    def test_interleaved_ops(self):
        s = IndexedSet()
        reference: set[int] = set()
        rng = np.random.default_rng(5)
        for _ in range(2000):
            x = int(rng.integers(0, 50))
            if rng.random() < 0.5:
                s.add(x)
                reference.add(x)
            else:
                s.discard(x)
                reference.discard(x)
            assert len(s) == len(reference)
        assert sorted(s) == sorted(reference)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 20)), max_size=60))
def test_property_matches_builtin_set(ops):
    """IndexedSet behaves exactly like a built-in set under add/discard."""
    s = IndexedSet()
    reference: set[int] = set()
    for is_add, value in ops:
        if is_add:
            s.add(value)
            reference.add(value)
        else:
            s.discard(value)
            reference.discard(value)
    assert set(s.as_list()) == reference
    assert len(s) == len(reference)
    for v in range(21):
        assert (v in s) == (v in reference)


def scalar_sample_each_excluding(s, rng, excluded):
    """The per-request loop :meth:`IndexedSet.sample_each_excluding`
    replaces: one scalar rejection loop per entry."""
    items = s.as_list()
    out = []
    for avoid in excluded:
        while True:
            candidate = items[int(rng.integers(0, len(items)))]
            if candidate != avoid:
                out.append(candidate)
                break
    return out


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(2, 5),
    picks=st.lists(st.integers(0, 6), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_each_excluding_consumes_the_scalar_stream(size, picks, seed):
    """Same values and the same generator state as the scalar loop.

    Tiny sets make rejections (and refills of the vector draw) frequent;
    exclusions outside the set are never rejected.
    """
    s = IndexedSet(range(size))
    fast_rng, slow_rng = make_rng(seed), make_rng(seed)
    assert s.sample_each_excluding(fast_rng, picks) == (
        scalar_sample_each_excluding(s, slow_rng, picks)
    )
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
    # Both generators continue on the same stream, under a new bound too.
    assert fast_rng.integers(0, 1000) == slow_rng.integers(0, 1000)


def test_sample_many_excluding_matches_scalar_stream():
    s = IndexedSet(range(3))
    fast_rng, slow_rng = make_rng(4), make_rng(4)
    assert s.sample_many(fast_rng, 40, exclude=1) == (
        scalar_sample_each_excluding(s, slow_rng, [1] * 40)
    )
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


def test_sample_each_excluding_needs_an_eligible_member():
    with pytest.raises(IndexError):
        IndexedSet([5]).sample_each_excluding(make_rng(0), [6, 5])
    with pytest.raises(IndexError):
        IndexedSet().sample_each_excluding(make_rng(0), [1])
    assert IndexedSet([5]).sample_each_excluding(make_rng(0), [6, 7]) == [5, 5]
    assert IndexedSet().sample_each_excluding(make_rng(0), []) == []


def looped_birth_draws(rng, members, count, d):
    """The per-birth loop :func:`birth_prefix_draws` replaces: each
    newborn joins the set, then draws ``d`` members other than itself;
    results are pool indices (−1 pads a newborn alone in its pool)."""
    pool = IndexedSet(range(-members, 0))
    out = np.full((count, d), -1, dtype=np.int64)
    for newborn in range(count):
        pool.add(newborn)
        index = {member: i for i, member in enumerate(pool.as_list())}
        picks = pool.sample_many(rng, d, exclude=newborn)
        out[newborn, : len(picks)] = [index[p] for p in picks]
    return out


@settings(max_examples=200, deadline=None)
@given(
    members=st.integers(0, 5),
    count=st.integers(0, 40),
    d=st.integers(1, 8),
    drawn=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_birth_prefix_draws_consume_the_per_birth_stream(
    members, count, d, drawn, seed
):
    """Same values and generator state as the per-birth loop.

    Tiny starting pools make rejections (and speculative replays)
    frequent; ``d`` spans both sides of the scalar/vector threshold, and
    the generator may have drawn values before the births start.
    """
    fast_rng, slow_rng = make_rng(seed), make_rng(seed)
    for rng in (fast_rng, slow_rng):
        rng.integers(0, 7, size=drawn)
    fast = birth_prefix_draws(fast_rng, members + 1, count, d)
    assert np.array_equal(fast, looped_birth_draws(slow_rng, members, count, d))
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
    assert fast_rng.integers(0, 1000) == slow_rng.integers(0, 1000)


def test_birth_prefix_draws_across_many_speculation_chunks():
    """A warm-up large enough to cross many chunks and replays."""
    fast_rng, slow_rng = make_rng(2025), make_rng(2025)
    fast = birth_prefix_draws(fast_rng, 1, 3000, 8)
    assert np.array_equal(fast, looped_birth_draws(slow_rng, 0, 3000, 8))
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
    assert (fast[0] == -1).all() and (fast[1:] >= 0).all()
    assert (fast[1:] < np.arange(1, 3000)[:, None]).all()


@settings(max_examples=100, deadline=None)
@given(
    members=st.integers(0, 5),
    count=st.integers(0, 40),
    d=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_birth_batch_draws_take_one_draw_per_request(members, count, d, seed):
    """Newborn ``k`` takes ``d`` scalar draws over the ``members + k``
    pool entries before itself (none when there are none); same values
    and generator state as those draws one after another."""
    fast_rng, slow_rng = make_rng(seed), make_rng(seed)
    fast = birth_batch_draws(fast_rng, members + 1, count, d)
    assert fast.shape == (count, d)
    for k in range(count):
        size = members + k
        expected = [
            int(slow_rng.integers(0, size)) if size else -1 for _ in range(d)
        ]
        assert fast[k].tolist() == expected
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


def test_takes_clear_of_rejected_words_are_list_slices(monkeypatch):
    """A tabulated block holding rejected words still serves every take
    whose own words hold none as a list slice: only takes that meet a
    rejected word (and the first, which tabulates) go through the
    general loop, which is the only part of ``take`` that checks its
    bound.  Values and generator state are the per-call ones."""
    bound = 4_252_000_000  # rejects a word with probability about 1 %
    general = []
    check_bound = sampling._check_bound
    monkeypatch.setattr(
        sampling, "_check_bound", lambda b: general.append(b) or check_bound(b)
    )
    fast_rng, slow_rng = make_rng(17), make_rng(17)
    with RawWordDraws(fast_rng) as source:
        values = source.take(bound, 1, ahead=2500)
        for _ in range(1000):
            values += source.take(bound, 2)
        rejected = source._tables[bound][1][:-1]
    assert len(rejected) >= 5
    assert values == [int(slow_rng.integers(0, bound)) for _ in range(2001)]
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
    assert len(general) <= 1 + len(rejected)
