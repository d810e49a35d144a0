"""Shared draw plan for fused streaming-churn windows.

A fused window executes ``W`` consecutive streaming rounds (death →
regeneration → birth, :mod:`repro.models.streaming`) inside one backend
call.  The control flow of those rounds is fully deterministic — round
``k`` of the window kills the oldest node and births one newborn — so the
only randomness is the destination draws.  :class:`WindowDrawPlan` owns
all of them and fixes their *canonical order*: within round ``k``, the
regeneration draws of the round's orphans (ascending ``(source, slot)``),
then the newborn's ``d`` birth draws.

* **birth offsets** — uniform over ``[0, n-1)``; offset ``v`` of round
  ``k`` addresses the ``v``-th oldest of the ``n - 1`` nodes present when
  the newborn joins (the post-death survivors), which is exactly the
  paper's uniform-over-others birth law — the newborn itself is not in
  the pool, so no rejection or skip is needed.  Windows without
  regeneration draws (SDG) may take the whole window's matrix upfront
  (:meth:`WindowDrawPlan.take_birth` with ``rounds > 1``): bounded draws
  consume the generator one value after another, so one ``(W, d)`` take
  consumes it exactly like ``W`` consecutive one-round takes (pinned by
  the window-boundary equivalence tests).
* **regeneration draws** — uniform over ``[0, n-2)``, exactly one per
  orphaned request, taken per round.  An orphan owned by the survivor at
  post-death age rank ``rel`` maps draw ``v`` to rank ``v + (v >=
  rel)``: exact uniform over the ``n - 2`` survivors other than itself
  (the skip trick), no rejection re-draws.

Every value is what a per-call ``rng.integers(0, bound)`` would return
at that point of the stream.  The plan serves them from a
:class:`~repro.util.sampling.RawWordDraws` source: raw words are drawn
ahead in blocks, and closing the plan rewinds the generator to just
after the words the window's draws consumed.  So the stream position
after a window still depends only on the sequence of rounds, never on
how rounds are partitioned into windows or how far ahead a block drew.
That buys the two reproducibility guarantees the fused path makes:
arbitrary window splits replay the identical trajectory (W=1 fused ==
one big window), and a checkpoint between windows restores it (the
trajectory is a pure function of backend state + RNG state, with no
pool carry-over to lose).

The array kernel reads each round's draws as Python ints
(:meth:`WindowDrawPlan.regen`, :meth:`WindowDrawPlan.births`): inside
one block they are list slices, with no NumPy call per round.

Both backends consume the *same* plan protocol with the *same* orphan
ordering, so the fused trajectory is bit-identical across backends —
unlike the per-event path, whose rejection sampling consumes the RNG
through the alive set's internal order.  Versus the per-event path the
fused path is law-equivalent but a *different seeded trajectory* (the
distribution-parity suite verifies the law; ``fast_warm`` set the
precedent).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.util.sampling import RawWordDraws


#: Words a fused round is expected to take, in units of ``d``, slightly
#: over: ``d`` births and up to ``2d`` orphans (steady-state SDGR windows
#: took 2.7d words a round at n = 300 to 1e4, as the dying oldest node
#: has gathered regenerated slots).
ROUND_WORDS = 3


class WindowDrawPlan:
    """The RNG draws of one fused streaming window, in canonical order.

    Every draw is served by one
    :class:`~repro.util.sampling.RawWordDraws` source, so the generator
    runs ahead of the window's draws until :meth:`close` (or the end of a
    ``with`` block) rewinds it to just after them.  Nothing else may
    draw from *rng* while the plan is open.  Each take tells the source
    the words the rest of the window is expected to need, and the ``d``
    birth draws per remaining newborn that are certain to follow.  (With
    ``n = 2`` a birth pool is one node and takes no word, but then no
    take ever draws a block.)

    Args:
        n: constant network size of the streaming model.
        d: out-degree (requests per newborn).
        rounds: number of rounds the window covers (``W``).
        rng: the driver's generator, advanced by every take.
    """

    __slots__ = ("n", "d", "rounds", "_source", "_birth_taken")

    def __init__(
        self, n: int, d: int, rounds: int, rng: np.random.Generator
    ) -> None:
        if n < 2:
            raise ConfigurationError(f"window plan needs n >= 2, got {n}")
        if rounds < 1:
            raise ConfigurationError(f"window plan needs rounds >= 1, got {rounds}")
        self.n = int(n)
        self.d = int(d)
        self.rounds = int(rounds)
        self._source = RawWordDraws(rng)
        self._birth_taken = 0

    def __enter__(self) -> "WindowDrawPlan":
        return self

    def __exit__(self, *exc_info) -> None:
        self._source.__exit__(*exc_info)

    def close(self) -> None:
        """Rewind the generator to just after the draws taken so far."""
        self._source.close()

    def _count_births(self, rounds: int) -> None:
        if self._birth_taken + rounds > self.rounds:
            raise ConfigurationError(
                f"window plan covers {self.rounds} rounds; birth draws for "
                f"{self._birth_taken + rounds} requested"
            )
        self._birth_taken += rounds

    def births(self) -> list[int]:
        """The next newborn's ``d`` birth offsets, as Python ints.

        Uniform over ``[0, n-1)`` — the ``n - 1`` post-death survivors of
        the newborn's round.
        """
        self._count_births(1)
        rest = self.rounds - self._birth_taken  # rounds after this one
        return self._source.take(
            self.n - 1, self.d, ROUND_WORDS * self.d * rest, self.d * rest
        )

    def regen(self, count: int) -> list[int]:
        """The current round's *count* regeneration draws, over
        ``[0, n-2)``, as Python ints.

        Consumed in orphan order (ascending ``(source, slot)``), exactly
        *count* draws — the stream position after a round depends only on
        that round's orphan count, identical on every backend and every
        window partition.
        """
        if self.n < 3:
            raise ConfigurationError(
                "regeneration draws need n >= 3 (no third node to re-target)"
            )
        rest = self.rounds - self._birth_taken - 1  # rounds after this one
        # This round's newborn follows, then the rounds after it.
        return self._source.take(
            self.n - 2,
            count,
            self.d + ROUND_WORDS * self.d * rest,
            self.d * (rest + 1),
        )

    def take_birth(self, rounds: int = 1) -> np.ndarray:
        """Birth offsets for the next *rounds* newborns, shape ``(rounds, d)``.

        The same draws as *rounds* calls of :meth:`births`; regeneration-
        free windows take the whole window in one array.
        """
        self._count_births(rounds)
        return self._source.take_array(self.n - 1, rounds * self.d).reshape(
            rounds, self.d
        )
