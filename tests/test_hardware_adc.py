"""Tests for the 10-bit ADC model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.adc import ADC, ADCParams


class TestADCBasics:
    def test_full_scale_codes(self, ideal_adc):
        params = ideal_adc.params
        assert params.max_code == 1023
        assert params.lsb_volts == pytest.approx(5.0 / 1024)

    def test_zero_volts_is_code_zero(self):
        adc = ADC(params=ADCParams(inl_lsb=0.0), rng=None)
        adc.attach(0, lambda t: 0.0)
        assert adc.sample(0.0, 0) == 0

    def test_full_scale_clips(self, ideal_adc):
        ideal_adc.attach(0, lambda t: 9.0)
        assert ideal_adc.sample(0.0, 0) == 1023

    def test_midscale_voltage(self):
        adc = ADC(params=ADCParams(inl_lsb=0.0), rng=None)
        adc.attach(0, lambda t: 2.5)
        assert adc.sample(0.0, 0) == 512

    def test_sample_volts_roundtrip(self):
        adc = ADC(params=ADCParams(inl_lsb=0.0), rng=None)
        adc.attach(3, lambda t: 1.234)
        volts = adc.sample_volts(0.0, 3)
        assert volts == pytest.approx(1.234, abs=adc.params.lsb_volts)

    def test_unattached_channel_raises(self, ideal_adc):
        with pytest.raises(KeyError):
            ideal_adc.sample(0.0, 5)

    def test_detach(self, ideal_adc):
        ideal_adc.attach(0, lambda t: 1.0)
        ideal_adc.detach(0)
        with pytest.raises(KeyError):
            ideal_adc.sample(0.0, 0)

    def test_negative_channel_rejected(self, ideal_adc):
        with pytest.raises(ValueError):
            ideal_adc.attach(-1, lambda t: 0.0)

    def test_conversion_counter(self, ideal_adc):
        ideal_adc.attach(0, lambda t: 1.0)
        for _ in range(5):
            ideal_adc.sample(0.0, 0)
        assert ideal_adc.conversions == 5

    def test_source_receives_time(self, ideal_adc):
        seen = []
        ideal_adc.attach(0, lambda t: seen.append(t) or 1.0)
        ideal_adc.sample(3.25, 0)
        assert seen == [3.25]


class TestADCNonIdealities:
    def test_noise_spread_about_half_lsb(self):
        adc = ADC(rng=np.random.default_rng(1))
        adc.attach(0, lambda t: 2.0)
        codes = np.array([adc.sample(0.0, 0) for _ in range(500)])
        assert 0.1 < codes.std() < 1.5

    def test_inl_bows_midscale(self):
        bowed = ADC(params=ADCParams(inl_lsb=1.0), rng=None)
        straight = ADC(params=ADCParams(inl_lsb=0.0), rng=None)
        bowed.attach(0, lambda t: 2.5)
        straight.attach(0, lambda t: 2.5)
        assert bowed.sample(0.0, 0) == straight.sample(0.0, 0) + 1

    def test_code_for_voltage_is_monotone(self, ideal_adc):
        codes = [ideal_adc.code_for_voltage(v) for v in np.linspace(0, 5, 200)]
        assert all(b >= a for a, b in zip(codes, codes[1:]))

    @given(v=st.floats(min_value=-1.0, max_value=8.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_property_codes_always_in_range(self, v):
        adc = ADC(rng=np.random.default_rng(0))
        adc.attach(0, lambda t: v)
        code = adc.sample(0.0, 0)
        assert 0 <= code <= adc.params.max_code


def _numpy_quantize(adc: ADC, voltage: float) -> int:
    """The conversion formula as first written, on numpy scalar ufuncs.

    ``ADC._quantize`` now uses branchy clamps and ``math.sin`` on the
    per-sample hot path; this copy is the oracle it must match bit for
    bit, noise draws included.
    """
    params = adc.params
    fraction = voltage / params.v_ref
    code = fraction * (params.max_code + 1)
    code += params.inl_lsb * np.sin(np.pi * np.clip(fraction, 0.0, 1.0))
    if adc.rng is not None:
        code += adc.rng.normal(0.0, params.noise_lsb_rms)
    return int(np.clip(round(code), 0, params.max_code))


_VOLTS = st.one_of(
    st.floats(min_value=-1e3, max_value=0.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=5.0, max_value=1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5.0, 2.5, 5.0 - 1e-12, 5e-324]),
)


class TestQuantizeMatchesNumpyFormula:
    @given(
        volts=st.lists(_VOLTS, min_size=1, max_size=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        inl=st.sampled_from([0.0, 0.5, 1.0, 3.7]),
        noisy=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_codes_and_noise_stream_match(self, volts, seed, inl, noisy):
        params = ADCParams(inl_lsb=inl)
        adc = ADC(params, rng=np.random.default_rng(seed) if noisy else None)
        oracle = ADC(
            params, rng=np.random.default_rng(seed) if noisy else None
        )
        feed = iter(volts)
        adc.attach(0, lambda t: next(feed))
        for v in volts:
            code = adc.sample(0.0, 0)
            assert type(code) is int
            assert code == _numpy_quantize(oracle, v)
        if noisy:
            assert (
                adc.rng.bit_generator.state == oracle.rng.bit_generator.state
            )

    @pytest.mark.parametrize("noisy", [False, True])
    def test_nan_source_raises_value_error(self, noisy):
        adc = ADC(rng=np.random.default_rng(0) if noisy else None)
        adc.attach(0, lambda t: float("nan"))
        with pytest.raises(ValueError):
            adc.sample(0.0, 0)

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("volts", [float("inf"), float("-inf")])
    def test_infinite_source_raises_overflow_error(self, volts, noisy):
        adc = ADC(rng=np.random.default_rng(0) if noisy else None)
        adc.attach(0, lambda t: volts)
        with pytest.raises(OverflowError):
            adc.sample(0.0, 0)
