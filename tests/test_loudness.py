import numpy as np
import pytest

from prosodika.audio import AudioBuffer, SegmentBounds
from prosodika.loudness import integrated_loudness, k_weighting_sos

from conftest import tone


def full_scale_sine(freq=997.0, seconds=5.0, rate=16000):
    return AudioBuffer(tone(freq, seconds, rate, amplitude=1.0), rate)


class TestIntegratedLoudness:
    def test_full_scale_997(self):
        # mean square 0.5 -> -3.01 dB, -0.691 offset, unity K-weighting at 997
        lufs = integrated_loudness(full_scale_sine())
        assert lufs == pytest.approx(-3.69, abs=0.1)

    def test_minus_20dbfs(self):
        ref = integrated_loudness(full_scale_sine())
        buf = AudioBuffer(tone(997, 5.0, 16000, amplitude=10 ** (-20 / 20)), 16000)
        assert integrated_loudness(buf) == pytest.approx(ref - 20.0, abs=0.05)

    def test_silence_sentinel(self):  # not measured: None
        buf = AudioBuffer(np.zeros(16000), 16000)
        assert integrated_loudness(buf) is None

    def test_too_short(self):  # not measured: None
        buf = AudioBuffer(np.full(3200, 0.5), 16000)  # 200 ms
        assert integrated_loudness(buf) is None
        assert integrated_loudness(AudioBuffer(np.full(16000, 0.5), 16000),
                                   SegmentBounds(0, 399)) is None

    def test_one_block_is_measured(self):
        buf = AudioBuffer(tone(997, 0.4, 16000, amplitude=0.5), 16000)
        assert integrated_loudness(buf) == pytest.approx(-0.691 + 10 * np.log10(0.125),
                                                         abs=0.01)

    @pytest.mark.parametrize("rate", [3000, 3363])
    def test_short_segment_at_a_refused_rate_still_raises(self, rate):
        # the rate is checked before the length: an unstable cascade is an
        # error, not a segment that is merely not measured
        buf = AudioBuffer(np.full(rate // 5, 0.5), rate)  # 200 ms
        with pytest.raises(ValueError, match=f"sample rate {rate} Hz"):
            integrated_loudness(buf)

    @pytest.mark.parametrize("value", [1e200, np.nan, np.inf])
    def test_samples_past_the_float_range_raise(self, value):
        buf = AudioBuffer(np.full(16000, value), 16000)
        with pytest.raises(ValueError, match="must be finite"):
            integrated_loudness(buf)

    @pytest.mark.parametrize("gain", [0.1, 0.25, 0.5, 1.0])
    def test_gain_linearity(self, gain):
        base = full_scale_sine(seconds=2.0)
        ref = integrated_loudness(base)
        scaled = AudioBuffer(base.samples * gain, base.sample_rate)
        expected = ref + 20.0 * np.log10(gain)
        assert integrated_loudness(scaled) == pytest.approx(expected, abs=0.05)

    def test_bounds_slice(self):
        sig = np.concatenate(
            [np.zeros(16000), tone(997, 1.0, 16000, amplitude=0.5), np.zeros(16000)]
        )
        buf = AudioBuffer(sig, 16000)
        inside = integrated_loudness(buf, SegmentBounds(1000, 2000))
        ref = integrated_loudness(AudioBuffer(tone(997, 1.0, 16000, amplitude=0.5), 16000))
        assert inside == pytest.approx(ref, abs=0.2)

    def test_gating_ignores_silent_tail(self):
        # loud 2 s then 2 s of silence: the all-silent blocks fall below the
        # absolute gate; only boundary blocks (partial tone, above the -10 LU
        # relative gate) may pull the mean down, bounded by 10*log10(18.5/20)
        loud = tone(997, 2.0, 16000, amplitude=0.5)
        sig = np.concatenate([loud, np.zeros(2 * 16000)])
        with_tail = integrated_loudness(AudioBuffer(sig, 16000))
        alone = integrated_loudness(AudioBuffer(loud, 16000))
        assert alone - 0.5 < with_tail <= alone + 1e-9

    @pytest.mark.parametrize("rate", [49, 2000, 3000, 3363])
    def test_rate_with_the_shelf_above_nyquist_is_refused(self, rate):
        # the K-weighting shelf sits at 1681.97 Hz; at these rates the cascade
        # has a pole on or outside the unit circle (1.0006 at 3363 Hz)
        buf = AudioBuffer(tone(10.0, 1.0, rate, amplitude=0.5), rate)
        with pytest.raises(ValueError, match=f"sample rate {rate} Hz"):
            integrated_loudness(buf)
        with pytest.raises(ValueError, match=f"sample rate {rate} Hz"):
            k_weighting_sos(rate)

    @pytest.mark.parametrize("rate", [3364, 8000, 16000])
    def test_rates_above_the_floor_read_the_tone(self, rate):
        buf = AudioBuffer(tone(997.0, 1.0, rate, amplitude=0.5), rate)
        assert integrated_loudness(buf) == pytest.approx(-0.691 + 10 * np.log10(0.125),
                                                         abs=0.01)

    def test_works_at_48k(self):
        buf = AudioBuffer(tone(997, 2.0, 48000, amplitude=1.0), 48000)
        assert integrated_loudness(buf) == pytest.approx(-3.70, abs=0.1)


class TestKWeighting:
    def test_unity_gain_at_997(self):
        from prosodika.loudness import _cascade_gain_at

        for rate in (16000, 44100, 48000):
            sos = k_weighting_sos(rate)
            assert _cascade_gain_at(sos, 997.0, rate) == pytest.approx(1.0, abs=1e-9)

    def test_high_shelf_boost_and_lf_cut(self):
        from prosodika.loudness import _cascade_gain_at

        sos = k_weighting_sos(16000)
        assert _cascade_gain_at(sos, 6000.0, 16000) > 1.2   # shelf boost
        assert _cascade_gain_at(sos, 40.0, 16000) < 0.6     # high-pass cut
