"""Isolated-node theory (Lemmas 3.5 and 4.10).

**Bounds** (the lemmas' literal statements):

* streaming: at least ``(1/6)·n·e^{−2d}`` isolated nodes w.h.p.;
* Poisson: at least ``(1/18)·n·e^{−2d}``.

**Predictions** (first-order, should match simulation closely):

A node of age ``a`` (in units of ``n`` rounds) is isolated iff all ``d``
out-requests point to dead nodes and no in-request ever arrived.

* Streaming: an out-target chosen uniformly at birth is dead ``a·n`` rounds
  later with probability ``a`` (ages are uniform), and in-requests arrive
  as ``d`` Bernoulli(1/n) per round, so

  ``P(isolated | age a) ≈ a^d · e^{−d·a}`` and the expected fraction is
  ``∫₀¹ a^d e^{−d·a} da``.

* Poisson (time in units of ``n``): a uniformly chosen alive target has
  Exp(1) *residual* lifetime (memorylessness), so it is dead ``a`` later
  w.p. ``1 − e^{−a}``; ages are Exp(1).  In-edges differ from streaming:
  an in-edge dies when its *source* dies, and in the Poisson model the
  source can die before the target (in streaming a younger node always
  outlives the older target, so "no live in-edge" = "no in-request ever").
  Live in-edges at age ``a`` are a thinned Poisson process with mean
  ``d(1 − e^{−a})``, giving expected isolated fraction
  ``∫₀^∞ e^{−a} (1−e^{−a})^d e^{−d(1−e^{−a})} da``, which under the
  substitution ``u = 1 − e^{−a}`` equals the *streaming* integral
  ``∫₀¹ u^d e^{−d·u} du`` — the two models share the same first-order
  isolated fraction.

* "Isolated forever": multiply by the probability of no in-request in the
  remaining lifetime — ``e^{−d(1−a)}`` (streaming, giving the closed form
  ``e^{−d}/(d+1)``) or ``E[e^{−d·Exp(1)}] = 1/(1+d)`` (Poisson).
"""

from __future__ import annotations

import math


def isolated_fraction_lower_bound_streaming(d: int) -> float:
    """Lemma 3.5's guaranteed isolated fraction: ``e^{−2d}/6``."""
    return math.exp(-2.0 * d) / 6.0


def isolated_fraction_lower_bound_poisson(d: int) -> float:
    """Lemma 4.10's guaranteed isolated fraction: ``e^{−2d}/18``."""
    return math.exp(-2.0 * d) / 18.0


def isolated_fraction_prediction_streaming(d: int) -> float:
    """First-order expected isolated fraction in SDG: ``∫₀¹ a^d e^{−da} da``."""
    from scipy import integrate

    value, _ = integrate.quad(lambda a: a**d * math.exp(-d * a), 0.0, 1.0)
    return float(value)


def isolated_fraction_prediction_poisson(d: int) -> float:
    """First-order expected isolated fraction in PDG:
    ``∫₀^∞ e^{−a}(1−e^{−a})^d e^{−d(1−e^{−a})} da = ∫₀¹ u^d e^{−du} du``
    (see the module docstring for the live-in-edge derivation; the
    substitution ``u = 1−e^{−a}`` reduces it to the streaming integral)."""
    return isolated_fraction_prediction_streaming(d)


def isolated_forever_fraction_prediction_streaming(d: int) -> float:
    """Fraction isolated *for the rest of their life* in SDG:
    ``∫₀¹ a^d e^{−da} e^{−d(1−a)} da = e^{−d}/(d+1)``."""
    return math.exp(-d) / (d + 1.0)


def isolated_forever_fraction_prediction_poisson(d: int) -> float:
    """Fraction isolated forever in PDG: the isolated prediction with an
    extra no-future-in-edge factor ``E[e^{−d·Exp(1)}] = 1/(1+d)``."""
    return isolated_fraction_prediction_poisson(d) / (1.0 + d)
