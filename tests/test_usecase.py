"""Synthetic use-case generator: class windows and determinism."""

from fractions import Fraction

import pytest

from tdmcfg.model import (
    DominanceClass,
    dominance_class,
    latency_slot_bound,
)
from tdmcfg.usecase import (
    BD,
    LD,
    MD,
    GenSpec,
    generate,
)

_CLASS_EXPECTED = {
    BD: DominanceClass.BANDWIDTH_DOMINATED,
    LD: DominanceClass.LATENCY_DOMINATED,
    MD: DominanceClass.MIXED_DOMINATED,
}

_TOTAL_RATE_WINDOW = {
    BD: (Fraction("0.8"), Fraction("0.95")),
    LD: (Fraction("0.35"), Fraction("0.5")),
    MD: (Fraction("0.7"), Fraction("0.9")),
}

_LATENCY_LOAD_WINDOW = {
    LD: (Fraction("0.75"), Fraction("0.95")),
    MD: (Fraction("0.7"), Fraction("0.9")),
}


@pytest.mark.parametrize("klass", [BD, LD, MD])
def test_generate_respects_class_windows(klass):
    for seed in range(5):
        inst = generate(GenSpec.default(klass, 8, seed=seed))
        assert inst.frame_size == 64
        assert inst.n_clients == 8
        lo, hi = _TOTAL_RATE_WINDOW[klass]
        assert lo <= inst.total_required_rate() <= hi
        if klass in _LATENCY_LOAD_WINDOW:
            lo, hi = _LATENCY_LOAD_WINDOW[klass]
            load = Fraction(
                sum(latency_slot_bound(c, 64) for c in inst.clients), 64
            )
            assert lo <= load <= hi
        for client in inst.clients:
            assert dominance_class(client, 64) == _CLASS_EXPECTED[klass]


def test_generate_deterministic_per_seed():
    a = generate(GenSpec.default(BD, 8, seed=42))
    b = generate(GenSpec.default(BD, 8, seed=42))
    assert a == b
    c = generate(GenSpec.default(BD, 8, seed=43))
    assert a != c


def test_default_spec_picks_nearest_table_row():
    spec = GenSpec.default(BD, 16)
    assert spec.frame_size == 128
    # a non-tabulated size still resolves to tabulated parameters
    spec2 = GenSpec.default(BD, 12)
    assert spec2.n_clients == 12
    assert spec2.rate_range in (spec.rate_range, GenSpec.default(BD, 8).rate_range)


def test_generate_rejects_unknown_class():
    with pytest.raises(ValueError):
        GenSpec.default("XX", 8)


@pytest.mark.parametrize("klass", [BD, LD, MD])
@pytest.mark.parametrize("n", [2, 4])
def test_generate_refuses_an_unreachable_total_rate_window(klass, n):
    # the default spec takes its rate range from the n = 8 row, so n clients
    # at the top of that range still sum below the class's window; the
    # generator must say so before drawing, not after 10 000 attempts
    spec = GenSpec.default(klass, n)
    lo, hi = spec.total_rate_window
    assert n * spec.rate_range[1] < lo
    with pytest.raises(ValueError, match=f"total-rate window {lo}-{hi}"):
        generate(spec)


def test_rates_and_latencies_are_exact_rationals():
    inst = generate(GenSpec.default(MD, 8, seed=1))
    for client in inst.clients:
        assert isinstance(client.required_rate, Fraction)
        assert client.required_latency is not None
        assert isinstance(client.required_latency, Fraction)
