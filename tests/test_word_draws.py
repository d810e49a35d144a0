"""The raw-word draw source against per-call ``rng.integers``.

:class:`repro.util.sampling.RawWordDraws` pulls raw 32-bit words in
blocks and applies NumPy's own bounded-integer rule to them (Lemire's
multiply-shift with rejection).  Every fused and exact streaming window
and the exact warm-up draw through it, so its values and the generator
state it leaves must equal what per-call ``rng.integers(0, bound)``
gives; the fused windows are checked against the dict oracle's hook
rounds, which draw one call at a time.  A NumPy release that changes
its bounded-integer algorithm fails here by name.  Only NumPy and
pytest are needed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.edge_policy import NoRegenerationPolicy, RegenerationPolicy
from repro.models.streaming import StreamingNetwork
from repro.util import sampling
from repro.util.sampling import RawWordDraws, birth_prefix_draws
from tests.oracles.dict_backend import DictBackend

GENERATORS = {
    "PCG64": np.random.PCG64,
    "MT19937": np.random.MT19937,
}

#: Bounds whose rejections are frequent (3e9 rejects about 40 % of words).
HIGH_BOUNDS = [3_000_000_000, 2**32]


def twins(kind: str, seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    make = GENERATORS[kind]
    return np.random.Generator(make(seed)), np.random.Generator(make(seed))


def mixed_takes(seed: int, count: int) -> list[tuple[int, int]]:
    """(bound, count) pairs: bounds 1, 2, 3, random below 2^31 and the
    two high bounds; counts from 0 to 70 (walked and tabulated blocks)."""
    chooser = np.random.default_rng(seed)
    takes = []
    for _ in range(count):
        pick = int(chooser.integers(0, 6))
        if pick < 3:
            bound = pick + 1
        elif pick < 5:
            bound = int(chooser.integers(4, 2**31))
        else:
            bound = HIGH_BOUNDS[int(chooser.integers(0, 2))]
        takes.append((bound, int(chooser.integers(0, 71))))
    return takes


def per_call(rng: np.random.Generator, bound: int, count: int) -> list[int]:
    return [int(rng.integers(0, bound)) for _ in range(count)]


def state_of(rng: np.random.Generator) -> dict:
    """The bit-generator state with arrays (MT19937's key) as lists."""
    return {
        key: state_of_value(value)
        for key, value in rng.bit_generator.state.items()
    }


def state_of_value(value):
    if isinstance(value, dict):
        return {key: state_of_value(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def assert_same_state(source_rng, reference_rng):
    assert state_of(source_rng) == state_of(reference_rng)
    assert source_rng.random() == reference_rng.random()
    assert state_of(source_rng) == state_of(reference_rng)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("ahead", [0, 5, 500])
def test_take_matches_per_call_draws(kind, ahead):
    """Mixed bounds, small walked blocks and large tabulated ones."""
    fast, reference = twins(kind, 11)
    with RawWordDraws(fast) as source:
        for bound, count in mixed_takes(3, 300):
            assert source.take(bound, count, ahead) == per_call(
                reference, bound, count
            )
    assert_same_state(fast, reference)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("bound", [1, 2, 3, 1999, 2**31 - 1, *HIGH_BOUNDS])
def test_take_array_matches_per_call_draws(kind, bound):
    fast, reference = twins(kind, 5)
    with RawWordDraws(fast) as source:
        for count in (1, 7, 64, 65, 3000):
            drawn = source.take_array(bound, count)
            assert drawn.dtype == np.int64
            assert drawn.tolist() == per_call(reference, bound, count)
    assert_same_state(fast, reference)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("block", [1, 2, 7, 100])
def test_reads_across_block_refills(kind, block, monkeypatch):
    """Blocks far smaller than the takes: every take crosses refills,
    including refills that start on a rejected word."""
    monkeypatch.setattr(sampling, "_MAX_BLOCK_WORDS", block)
    fast, reference = twins(kind, 9)
    with RawWordDraws(fast) as source:
        for bound, count in mixed_takes(8, 120):
            if count % 2:
                drawn = source.take_array(bound, count).tolist()
            else:
                drawn = source.take(bound, count, ahead=count)
            assert drawn == per_call(reference, bound, count)
    assert_same_state(fast, reference)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("words", [1, 3, 63, 65, 999])
def test_close_after_an_odd_word_count(kind, words):
    """Closing mid-block rewinds to just after the consumed words (PCG64
    keeps half of a 64-bit output buffered after an odd count)."""
    fast, reference = twins(kind, 21)
    source = RawWordDraws(fast)
    assert source.take(1999, words, ahead=4000) == per_call(
        reference, 1999, words
    )
    source.close()
    assert_same_state(fast, reference)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_source_draws_again_after_close(kind):
    fast, reference = twins(kind, 2)
    source = RawWordDraws(fast)
    for count in (5, 0, 70, 1):
        assert source.take(777, count, ahead=100) == per_call(
            reference, 777, count
        )
        source.close()
        source.close()
        assert state_of(fast) == state_of(reference)
    assert_same_state(fast, reference)


def test_bound_one_takes_no_word():
    fast, reference = twins("PCG64", 4)
    with RawWordDraws(fast) as source:
        assert source.take(1, 5) == [0] * 5
        assert source.take_array(1, 3).tolist() == [0, 0, 0]
        assert source.take(10, 3) == per_call(reference, 10, 3)
    assert_same_state(fast, reference)


@pytest.mark.parametrize("bound", [0, -3, 2**32 + 1, 2**40])
def test_bounds_outside_the_word_range_raise(bound):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with RawWordDraws(rng) as source:
        with pytest.raises(ValueError, match="2\\*\\*32"):
            source.take(bound, 3)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            source.take_array(bound, 100)
    assert rng.bit_generator.state == state


def per_birth_prefix(rng, first_size, count, d):
    """Each request redraws while it hits the newborn, last in its pool."""
    out = np.full((count, d), -1, dtype=np.int64)
    for k in range(count):
        size = first_size + k
        if size == 1:
            continue
        for j in range(d):
            value = size - 1
            while value == size - 1:
                value = int(rng.integers(0, size))
            out[k, j] = value
    return out


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("block", [3, 600, None])
@pytest.mark.parametrize("first_size,count,d", [(1, 300, 3), (40, 200, 8)])
def test_birth_prefix_draws_across_refills(
    kind, block, first_size, count, d, monkeypatch
):
    if block is not None:
        monkeypatch.setattr(sampling, "_MAX_BLOCK_WORDS", block)
    fast, reference = twins(kind, 17)
    drawn = birth_prefix_draws(fast, first_size, count, d)
    assert np.array_equal(drawn, per_birth_prefix(reference, first_size, count, d))
    assert_same_state(fast, reference)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("block", [3, None])
@pytest.mark.parametrize("bound", [2, 3, 1999, 2**31 - 1])
def test_take_array_redraw_last_matches_per_call_draws(
    kind, block, bound, monkeypatch
):
    """Each draw redrawn while it is ``bound − 1``, one call at a time."""
    if block is not None:
        monkeypatch.setattr(sampling, "_MAX_BLOCK_WORDS", block)
    fast, reference = twins(kind, 13)
    with RawWordDraws(fast) as source:
        for count in (0, 1, 7, 700):
            expected = []
            for _ in range(count):
                value = bound - 1
                while value == bound - 1:
                    value = int(reference.integers(0, bound))
                expected.append(value)
            assert source.take_array(bound, count, redraw_last=True).tolist() == (
                expected
            )
        with pytest.raises(ValueError, match="bound of 2"):
            source.take_array(1, 3, redraw_last=True)
    assert_same_state(fast, reference)


def fused_state(n, d, seed, rounds, window, backend, regenerate=True):
    """Alive order, out-slots and generator state after fused windows;
    the dict oracle steps them as hook rounds, one draw per call."""
    policy = RegenerationPolicy(d) if regenerate else NoRegenerationPolicy(d)
    net = StreamingNetwork(n, policy, seed=seed, backend=backend)
    net.advance_to_time_batched(net.now + rounds, window=window)
    state = net.state
    alive = state.alive_ids()
    return (
        alive,
        [state.out_slots_of(u) for u in alive],
        net.rng.bit_generator.state,
    )


@pytest.mark.parametrize("regenerate", [True, False], ids=["SDGR", "SDG"])
def test_one_round_windows_match_the_oracle(regenerate):
    array = fused_state(60, 4, 5, 150, 1, None, regenerate)
    oracle = fused_state(60, 4, 5, 150, 1, DictBackend(), regenerate)
    assert array == oracle


@pytest.mark.parametrize("regenerate", [True, False], ids=["SDGR", "SDG"])
def test_windows_longer_than_a_block_match_the_oracle(regenerate, monkeypatch):
    """Blocks of 37 words make one 200-round window refill dozens of
    times; the result must equal the unchanged block size's and the
    oracle's hook rounds, which draw per call."""
    unchanged = fused_state(60, 4, 8, 200, None, None, regenerate)
    reference = fused_state(60, 4, 8, 200, None, DictBackend(), regenerate)
    monkeypatch.setattr(sampling, "_MAX_BLOCK_WORDS", 37)
    array = fused_state(60, 4, 8, 200, None, None, regenerate)
    assert array == unchanged == reference


def test_an_error_inside_a_source_is_not_masked():
    """A window cut short by an error re-raises that error on leaving
    the source, even when its block was sized for draws that never came."""
    rng = np.random.default_rng(3)
    with pytest.raises(KeyError):
        with RawWordDraws(rng) as source:
            source.take(48, 5, ahead=4, sure=4)
            raise KeyError("cut short")
    source = RawWordDraws(np.random.default_rng(3))
    source.take(48, 5, ahead=4, sure=4)
    with pytest.raises(RuntimeError, match="never used"):
        source.close()
