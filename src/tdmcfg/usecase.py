"""Synthetic use-case generation for the three requirement classes.

Rates are drawn uniformly per client and accepted when the total load
falls in the class's window; latencies derive from a per-client
tightness factor Z via latency = 1 / (Z * rate), with a second
acceptance window on the latency-induced load for the tighter classes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import (
    ClientRequirement,
    DominanceClass,
    ProblemInstance,
    dominance_class,
    latency_slot_bound,
)

BD = "BD"
LD = "LD"
MD = "MD"

# rate and tightness intervals per client count, by class
_TABLE = {
    BD: {
        8: ((0.06, 0.16), (0.6, 0.9)),
        16: ((0.03, 0.08), (0.5, 0.75)),
        32: ((0.015, 0.04), (0.4, 0.6)),
        64: ((0.0075, 0.02), (0.3, 0.45)),
        128: ((0.00375, 0.01), (0.2, 0.3)),
    },
    LD: {
        8: ((0.02, 0.07), (1.6, 3.3)),
        16: ((0.01, 0.035), (1.58, 3.26)),
        32: ((0.005, 0.0175), (1.56, 3.22)),
        64: ((0.0025, 0.00875), (1.54, 3.18)),
        128: ((0.00125, 0.004375), (1.52, 3.14)),
    },
    MD: {
        8: ((0.06, 0.14), (0.95, 1.4)),
        16: ((0.03, 0.07), (0.9, 1.3)),
        32: ((0.015, 0.035), (0.85, 1.2)),
        64: ((0.0075, 0.0175), (0.8, 1.1)),
        128: ((0.00375, 0.00875), (0.75, 1.0)),
    },
}

_TOTAL_RATE_WINDOW = {BD: (0.8, 0.95), LD: (0.35, 0.5), MD: (0.7, 0.9)}
_LATENCY_LOAD_WINDOW = {BD: None, LD: (0.75, 0.95), MD: (0.7, 0.9)}

_TARGET_CLASS = {
    BD: DominanceClass.BANDWIDTH_DOMINATED,
    LD: DominanceClass.LATENCY_DOMINATED,
    MD: DominanceClass.MIXED_DOMINATED,
}

_QUANT = 10**6  # drawn reals quantized to exact rationals over this denominator


class GenerationExhaustedError(RuntimeError):
    """max_attempts exceeded without an acceptable instance."""


def _nearest_row(n: int) -> int:
    return min(_TABLE[BD], key=lambda k: (abs(k - n), k))


@dataclass
class GenSpec:
    klass: str
    n_clients: int
    rate_range: tuple[float, float]
    latency_tightness_range: tuple[float, float]
    total_rate_window: tuple[float, float]
    latency_load_window: Optional[tuple[float, float]]
    frame_size: int
    seed: int = 0
    max_attempts: int = 10_000

    @classmethod
    def default(cls, klass: str, n_clients: int, seed: int = 0) -> "GenSpec":
        if klass not in _TABLE:
            raise ValueError(f"unknown class {klass!r}")
        row = _nearest_row(n_clients)
        rate_range, z_range = _TABLE[klass][row]
        return cls(
            klass=klass,
            n_clients=n_clients,
            rate_range=rate_range,
            latency_tightness_range=z_range,
            total_rate_window=_TOTAL_RATE_WINDOW[klass],
            latency_load_window=_LATENCY_LOAD_WINDOW[klass],
            frame_size=8 * n_clients,
            seed=seed,
        )


def _quantize(value: float) -> Fraction:
    return Fraction(round(value * _QUANT), _QUANT)


def _draw(rng: random.Random, lo: float, hi: float) -> Fraction:
    return _quantize(rng.uniform(lo, hi))


def _md_latency(rate: Fraction, frame_size: int) -> Fraction:
    """Largest latency keeping the latency slot bound equal to the rate bound.

    ceil(f / (theta + 1)) = B holds iff theta < f/(B-1) - 1; stepping
    1/f^2 inside the open bound keeps the value exact and strictly valid.
    """
    f = frame_size
    b = max(1, -(-rate.numerator * f // rate.denominator))  # ceil(rate*f)
    if b == 1:
        return Fraction(f - 1)
    theta = Fraction(f, b - 1) - 1 - Fraction(1, f * f)
    return max(theta, Fraction(0))


def generate(spec: GenSpec) -> ProblemInstance:
    """Draw one instance satisfying the class's acceptance windows.

    Raises ValueError at once when n rates from the spec's range cannot
    sum to the inside of its total-rate window.
    """
    rng = random.Random(spec.seed)
    f = spec.frame_size
    n = spec.n_clients
    target = _TARGET_CLASS[spec.klass]
    rate_lo, rate_hi = spec.total_rate_window
    least, most = (n * Fraction(str(r)) for r in spec.rate_range)
    if most <= Fraction(str(rate_lo)) or least >= Fraction(str(rate_hi)):
        raise ValueError(
            f"{n} {spec.klass} clients at rates {spec.rate_range[0]}-{spec.rate_range[1]}"
            f" cannot reach the total-rate window {rate_lo}-{rate_hi}"
        )
    attempts = 0
    while attempts < spec.max_attempts:
        attempts += 1
        rates = [_draw(rng, *spec.rate_range) for _ in range(n)]
        total = sum(rates)
        if not Fraction(str(rate_lo)) <= total <= Fraction(str(rate_hi)):
            continue
        clients = _draw_latencies(spec, rng, rates, target)
        if clients is None:
            continue
        if spec.latency_load_window is not None:
            load = Fraction(
                sum(latency_slot_bound(c, f) for c in clients), f
            )
            lo, hi = spec.latency_load_window
            if not Fraction(str(lo)) <= load <= Fraction(str(hi)):
                continue
        return ProblemInstance(f, tuple(clients))
    raise GenerationExhaustedError(
        f"no acceptable {spec.klass} instance in {spec.max_attempts} attempts"
    )


def _draw_latencies(
    spec: GenSpec,
    rng: random.Random,
    rates: Sequence[Fraction],
    target: DominanceClass,
) -> Optional[list[ClientRequirement]]:
    """Latency requirements with per-client resampling to hit the class."""
    f = spec.frame_size
    clients: list[ClientRequirement] = []
    for i, rate in enumerate(rates, start=1):
        client = None
        for _ in range(200):
            z = _draw(rng, *spec.latency_tightness_range)
            if z <= 0 or rate == 0:
                continue
            theta = 1 / (z * rate)
            if spec.klass == MD:
                theta = _md_latency(rate, f)
            theta = min(theta, Fraction(f - 1))
            candidate = ClientRequirement(i, f"c{i}", rate, theta)
            if dominance_class(candidate, f) == target:
                client = candidate
                break
        if client is None:
            return None
        clients.append(client)
    return clients
