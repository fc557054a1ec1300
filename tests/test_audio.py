import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from prosodika import audio
from prosodika.audio import (
    AudioBuffer,
    SegmentBounds,
    UnreadableFileError,
    UnsupportedFormatError,
    UnsupportedRateError,
    detect_speech_segments,
    load_wav,
    peak_amplitude,
    peak_normalize,
    resample_to_16k,
    window_power,
)

from conftest import tone, traced_peak, write_wav_int16, write_wav_raw


class TestLoadWav:
    def test_mono_16bit_length(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav_int16(path, tone(440, 1.0, 16000), 16000)
        buf = load_wav(path)
        assert buf.sample_rate == 16000
        assert len(buf) == 16000

    def test_stereo_averages_to_zero(self, tmp_path):
        path = tmp_path / "st.wav"
        n = 1000
        interleaved = np.empty(2 * n)
        interleaved[0::2] = 0.5
        interleaved[1::2] = -0.5
        data = np.round(interleaved * 32768.0).astype("<i2").tobytes()
        write_wav_raw(path, data, 16000, channels=2, bits=16)
        buf = load_wav(path)
        assert len(buf) == n
        assert np.all(buf.samples == 0.0)

    def test_24bit_full_scale(self, tmp_path):
        path = tmp_path / "w24.wav"
        # single sample at 0x7FFFFF
        write_wav_raw(path, b"\xff\xff\x7f", 16000, channels=1, bits=24)
        buf = load_wav(path)
        assert abs(buf.samples[0] - (1.0 - 2.0 ** -23)) < 1e-6

    def test_24bit_negative(self, tmp_path):
        path = tmp_path / "w24n.wav"
        write_wav_raw(path, b"\x00\x00\x80", 16000, channels=1, bits=24)
        buf = load_wav(path)
        assert buf.samples[0] == -1.0

    def test_float32(self, tmp_path):
        path = tmp_path / "f32.wav"
        data = np.array([0.25, -0.5, 1.5], dtype="<f4").tobytes()
        write_wav_raw(path, data, 16000, channels=1, bits=32, audio_format=3)
        buf = load_wav(path)
        assert buf.samples[0] == pytest.approx(0.25)
        assert buf.samples[2] == 1.0  # clipped into range

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_float_rejected(self, tmp_path, bad):
        path = tmp_path / "f32.wav"
        data = np.array([0.25, bad, -0.5], dtype="<f4").tobytes()
        write_wav_raw(path, data, 16000, channels=1, bits=32, audio_format=3)
        with pytest.raises(UnsupportedFormatError, match=r"f32\.wav: .*index 1"):
            load_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableFileError):
            load_wav(tmp_path / "absent.wav")

    def test_not_riff(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a wav at all")
        with pytest.raises(UnreadableFileError):
            load_wav(path)

    def test_unsupported_codec(self, tmp_path):
        path = tmp_path / "ulaw.wav"
        write_wav_raw(path, b"\x00\x00", 8000, channels=1, bits=8, audio_format=7)
        with pytest.raises(UnsupportedFormatError):
            load_wav(path)


# (bits, WAV format tag) of every sample layout load_wav reads
LAYOUTS = [(8, 1), (16, 1), (24, 1), (32, 1), (32, 3)]


def reference_decode(data: bytes, channels: int, bits: int, audio_format: int):
    """The samples load_wav should give, decoded one at a time in plain
    Python; None where it should raise UnsupportedFormatError."""
    width = bits // 8
    whole = data[: len(data) - len(data) % width]
    if audio_format == 3:
        values = [v for (v,) in struct.iter_unpack("<f", whole)]
        if any(v != v or v in (float("inf"), float("-inf")) for v in values):
            return None
        values = [min(max(v, -1.0), 1.0) for v in values]
    elif bits == 8:
        values = [(b - 128) / 128 for b in whole]
    elif bits == 24:
        values = [int.from_bytes(whole[i : i + 3], "little", signed=True) / 2**23
                  for i in range(0, len(whole), 3)]
    else:
        code = "<h" if bits == 16 else "<i"
        values = [v / 2 ** (bits - 1) for (v,) in struct.iter_unpack(code, whole)]
    if channels == 2:
        # numpy's mean sums from 0.0, which makes two negative zeros average to +0.0
        values = [(0.0 + values[i] + values[i + 1]) / 2 for i in range(0, len(values) - 1, 2)]
    return values or None


def assert_decodes_like_reference(path, data, channels, bits, audio_format):
    write_wav_raw(path, data, 16000, channels=channels, bits=bits, audio_format=audio_format)
    expected = reference_decode(data, channels, bits, audio_format)
    if expected is None:
        with pytest.raises(UnsupportedFormatError):
            load_wav(path)
    else:
        assert load_wav(path).samples.tobytes() == np.array(expected, np.float64).tobytes()


def payload(bits, audio_format, n_samples, seed):
    """n_samples random samples of one layout, extremes first."""
    rng = np.random.default_rng(seed)
    if audio_format == 3:
        values = [-0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 1.5, -2.0, 1e-45, -1e-45]
        values += list(rng.uniform(-1.2, 1.2, n_samples))
        return np.array(values[:n_samples], dtype="<f4").tobytes()
    extremes = {8: b"\x00\xff\x80\x7f", 16: struct.pack("<4h", 0, -1, 32767, -32768),
                24: b"\x00\x00\x00\xff\xff\x7f\x00\x00\x80\xff\xff\xff",
                32: struct.pack("<4i", 0, -1, 2**31 - 1, -(2**31))}[bits]
    noise = rng.integers(0, 256, n_samples * bits // 8, dtype=np.uint8).tobytes()
    return (extremes + noise)[: n_samples * bits // 8]


class TestBitExactDecode:
    @pytest.mark.parametrize("bits, audio_format", LAYOUTS)
    @pytest.mark.parametrize("channels", [1, 2])
    def test_whole_frames(self, tmp_path, bits, audio_format, channels):
        data = payload(bits, audio_format, 2 * 301, seed=bits)
        assert_decodes_like_reference(tmp_path / "a.wav", data, channels, bits, audio_format)

    @pytest.mark.parametrize("bits, audio_format", LAYOUTS)
    @pytest.mark.parametrize("channels", [1, 2])
    def test_partial_last_sample_dropped(self, tmp_path, bits, audio_format, channels):
        data = payload(bits, audio_format, 40, seed=bits) + b"\x01\x02\x03"[: bits // 8 - 1]
        assert_decodes_like_reference(tmp_path / "a.wav", data, channels, bits, audio_format)

    @pytest.mark.parametrize("bits, audio_format", LAYOUTS)
    def test_odd_sample_count_in_stereo_drops_the_partial_frame(self, tmp_path, bits,
                                                                audio_format):
        data = payload(bits, audio_format, 41, seed=bits)
        assert_decodes_like_reference(tmp_path / "a.wav", data, 2, bits, audio_format)
        assert len(load_wav(tmp_path / "a.wav")) == 20

    def test_24bit_extremes(self, tmp_path):
        codes = [0, 1, -1, 2**23 - 1, -(2**23), 2**22, -(2**22) - 1]
        data = b"".join(c.to_bytes(3, "little", signed=True) for c in codes)
        path = tmp_path / "x.wav"
        write_wav_raw(path, data, 16000, channels=1, bits=24)
        samples = load_wav(path).samples
        assert samples.tobytes() == np.array([c / 2**23 for c in codes]).tobytes()
        assert samples[3] == 1.0 - 2.0**-23 and samples[4] == -1.0

    @pytest.mark.parametrize("bits", [8, 16, 24, 32])
    def test_stereo_integer_mix_matches_float_mix(self, tmp_path, bits):
        # the float mix: each channel scaled to [-1, +1], then (a + b) * 0.5
        lo, hi = (0, 255) if bits == 8 else (-(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
        zero = 128 if bits == 8 else 0
        pairs = [(lo, lo), (hi, hi), (lo, hi), (hi, lo), (zero, zero), (lo, zero),
                 (hi, zero), (zero + 1, zero - 1), (zero - 1, zero - 1), (lo + 1, hi)]
        rng = np.random.default_rng(bits)
        pairs += [tuple(p) for p in rng.integers(lo, hi, (500, 2), endpoint=True)]
        codes = np.array(pairs, dtype=np.int64).ravel()
        width = bits // 8
        data = b"".join(int(c).to_bytes(width, "little", signed=bits != 8) for c in codes)
        path = tmp_path / "st.wav"
        write_wav_raw(path, data, 44100, channels=2, bits=bits)
        flat = (codes - zero) / float(2 ** (bits - 1))
        mixed = flat[0::2] + flat[1::2]
        mixed *= 0.5
        assert load_wav(path).samples.tobytes() == mixed.tobytes()

    @pytest.mark.parametrize("channels", [1, 2])
    def test_no_whole_sample_or_frame(self, tmp_path, channels):
        path = tmp_path / "a.wav"
        write_wav_raw(path, b"\x00\x00\x00" if channels == 2 else b"\x00\x00", 16000,
                      channels=channels, bits=24)
        with pytest.raises(UnsupportedFormatError, match="no whole sample"):
            load_wav(path)

    @given(st.sampled_from(LAYOUTS), st.sampled_from([1, 2]), st.binary(max_size=64))
    @example((32, 3), 1, b"\x00\x00\x81\x7f")  # a signalling NaN
    def test_random_payloads(self, tmp_path_factory, layout, channels, data):
        bits, audio_format = layout
        path = tmp_path_factory.mktemp("wav") / "r.wav"
        assert_decodes_like_reference(path, data, channels, bits, audio_format)


class TestResample:
    def test_identity_at_16k(self):
        buf = AudioBuffer(tone(440, 0.5, 16000), 16000)
        out = resample_to_16k(buf)
        assert out.sample_rate == 16000
        assert np.array_equal(out.samples, buf.samples)

    def test_sine_oracle_48k(self):
        buf = AudioBuffer(tone(1000, 1.0, 48000, amplitude=1.0), 48000)
        out = resample_to_16k(buf)
        trim = 160  # 10 ms
        t = np.arange(len(out)) / 16000.0
        ref = np.sin(2 * np.pi * 1000 * t)
        err = np.max(np.abs(out.samples[trim:-trim] - ref[trim:-trim]))
        assert err < 1e-3

    def test_duration_44100(self):
        buf = AudioBuffer(np.zeros(2 * 44100), 44100)
        out = resample_to_16k(buf)
        assert abs(len(out) - 32000) <= 1

    def test_kernel_is_cached_and_read_only(self):
        kernel = audio._sinc_kernel(160, 441)
        assert audio._sinc_kernel(160, 441) is kernel
        assert not kernel.flags.writeable
        fresh = audio._sinc_kernel.__wrapped__(160, 441)
        assert kernel.tobytes() == fresh.tobytes()
        from scipy.signal import resample_poly

        buf = AudioBuffer(tone(440, 0.3, 44100), 44100)
        expected = resample_poly(buf.samples, 160, 441, window=fresh)
        assert resample_to_16k(buf).samples.tobytes() == expected.tobytes()
        assert audio._sinc_kernel(160, 441).tobytes() == fresh.tobytes()

    def test_rejects_low_rate(self):
        buf = AudioBuffer(np.zeros(4000), 4000)
        with pytest.raises(UnsupportedRateError):
            resample_to_16k(buf)


class TestPeakNormalize:
    def test_doubles_half_scale(self):
        buf = AudioBuffer(np.array([0.5, -0.25, 0.1]), 16000)
        out = peak_normalize(buf)
        assert np.allclose(out.samples, [1.0, -0.5, 0.2])

    def test_identity_when_peaked(self):
        buf = AudioBuffer(np.array([1.0, -0.5]), 16000)
        assert peak_normalize(buf) is buf

    def test_silence_unchanged(self):
        buf = AudioBuffer(np.zeros(100), 16000)
        out = peak_normalize(buf)
        assert np.all(out.samples == 0.0)

    @given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=64))
    def test_idempotent(self, values):
        buf = AudioBuffer(np.array(values), 16000)
        once = peak_normalize(buf)
        twice = peak_normalize(once)
        assert np.array_equal(once.samples, twice.samples)

    @given(st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=64))
    @example([-0.0])
    @example([-0.5, -0.25])
    def test_peak_amplitude_is_max_abs(self, values):
        x = np.array(values)
        assert peak_amplitude(x) == float(np.max(np.abs(x)))

    def test_returns_a_new_buffer_and_leaves_its_input(self):
        buf = AudioBuffer(np.array([0.5, -0.25, 0.1]), 16000)
        before = buf.samples.tobytes()
        out = peak_normalize(buf)
        assert out is not buf and out.samples is not buf.samples
        assert buf.samples.tobytes() == before
        assert out.samples.tobytes() == (buf.samples / 0.5).tobytes()


def one_array_window_power(samples, win, hop):
    """window_power as one running-sum array over the whole input."""
    n_windows = (len(samples) - win) // hop + 1
    if n_windows <= 0:
        return np.empty(0)
    sq = np.empty(len(samples) + 1)
    sq[0] = 0.0
    np.multiply(samples, samples, out=sq[1:])
    np.cumsum(sq[1:], out=sq[1:])
    starts = np.arange(n_windows) * hop
    return (sq[starts + win] - sq[starts]) / win


class TestWindowPower:
    # (win, hop): the RMS gate at 16 and 44.1 kHz, the loudness blocks at both
    WINDOWS = [(400, 160), (1102, 441), (6400, 1600), (17640, 4410)]

    @pytest.mark.parametrize("win, hop", WINDOWS)
    def test_matches_one_running_sum_bit_for_bit(self, win, hop):
        chunk = audio._RUN_CHUNK
        rng = np.random.default_rng(win)
        # loud and quiet stretches, so that the running sum's rounding matters
        signal = rng.normal(0, 1, 3 * chunk + 7) * np.repeat(
            rng.uniform(1e-4, 1.0, 3 * chunk // 1000 + 1), 1000)[: 3 * chunk + 7]
        for n in (0, win - 1, win, win + hop, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
            x = signal[:n]
            got = window_power(x, win, hop)
            assert got.tobytes() == one_array_window_power(x, win, hop).tobytes(), n
            assert len(got) == max(0, (n - win) // hop + 1)

    def test_detect_speech_segments_adds_little_memory(self):
        n = 8 * audio._RUN_CHUNK
        buf = AudioBuffer(np.tile(tone(440, 1.0, 16000), n // 16000 + 1)[:n], 16000)
        detect_speech_segments(buf)  # lazy set-up outside the trace
        segments, peak = traced_peak(detect_speech_segments, buf)
        assert segments == [SegmentBounds(0, 10 * ((n - 400) // 160) + 25)]
        assert peak <= buf.samples.nbytes / 4

    @pytest.mark.parametrize("value", [1e200, np.nan, np.inf])
    def test_samples_past_the_float_range_raise(self, value):
        x = np.full(16000, 0.5)
        x[12345] = value
        with pytest.raises(ValueError, match="must be finite"):
            window_power(x, 400, 160)
        x[12345] = 1e150  # its square still fits, and so does the sum
        assert np.isfinite(window_power(x, 400, 160)).all()


class TestDetectSpeechSegments:
    def test_silence_gives_nothing(self):
        buf = AudioBuffer(np.zeros(16000), 16000)
        assert detect_speech_segments(buf) == []

    @pytest.mark.parametrize("value", [1e200, np.nan])
    def test_samples_past_the_float_range_raise(self, value):
        buf = AudioBuffer(np.full(16000, value), 16000)
        with pytest.raises(ValueError, match="must be finite"):
            detect_speech_segments(buf)

    def test_two_tones_split_by_long_gap(self):
        quiet = tone(440, 0.5, 16000, amplitude=10 ** (-80 / 20))
        sig = np.concatenate([tone(440, 1.0, 16000), quiet, tone(440, 1.0, 16000)])
        segs = detect_speech_segments(AudioBuffer(sig, 16000))
        assert len(segs) == 2
        assert abs(segs[0].start_ms - 0) <= 30
        assert abs(segs[0].end_ms - 1000) <= 30
        assert abs(segs[1].start_ms - 1500) <= 30
        assert abs(segs[1].end_ms - 2500) <= 30

    def test_short_gap_merges(self):
        sig = np.concatenate(
            [tone(440, 1.0, 16000), np.zeros(int(0.2 * 16000)), tone(440, 1.0, 16000)]
        )
        segs = detect_speech_segments(AudioBuffer(sig, 16000))
        assert len(segs) == 1

    def test_sorted_disjoint_with_min_gaps(self):
        rng = np.random.default_rng(7)
        sig = np.concatenate(
            [
                tone(300, 0.4, 16000),
                np.zeros(int(0.35 * 16000)),
                rng.normal(0, 0.2, int(0.5 * 16000)),
                np.zeros(int(0.8 * 16000)),
                tone(200, 0.3, 16000),
            ]
        )
        segs = detect_speech_segments(AudioBuffer(sig, 16000))
        for a, b in zip(segs, segs[1:]):
            assert a.end_ms < b.start_ms
            assert b.start_ms - a.end_ms >= 300

    def test_covers_every_loud_window(self):
        rng = np.random.default_rng(13)
        pieces = []
        for _ in range(6):
            pieces.append(tone(rng.integers(100, 500), rng.uniform(0.05, 0.6), 16000,
                               amplitude=rng.uniform(0.05, 0.9)))
            pieces.append(np.zeros(int(rng.uniform(0.0, 0.7) * 16000)))
        sig = np.concatenate(pieces)
        buf = AudioBuffer(sig, 16000)
        segs = detect_speech_segments(buf)
        win, hop = 400, 160  # 25 ms / 10 ms at 16 kHz
        n_windows = (len(sig) - win) // hop + 1
        for i in range(n_windows):
            rms = np.sqrt(np.mean(sig[i * hop : i * hop + win] ** 2))
            if rms > 10 ** (-35 / 20):
                start_ms, end_ms = i * 10, i * 10 + 25
                assert any(
                    s.start_ms <= start_ms and end_ms <= s.end_ms for s in segs
                ), f"window at {start_ms} ms not covered"


    @pytest.mark.parametrize("sr", [49, 50])
    def test_rate_without_a_whole_hop_is_refused(self, sr):
        # the 10 ms hop rounds to 0 samples at 50 Hz and below
        with pytest.raises(ValueError, match=f"sample rate {sr} Hz"):
            detect_speech_segments(AudioBuffer(np.zeros(200), sr))

    def test_lowest_rate_with_a_whole_hop(self):
        assert detect_speech_segments(AudioBuffer(np.zeros(200), 51)) == []
        loud = detect_speech_segments(AudioBuffer(np.full(200, 0.5), 51))
        assert loud == [SegmentBounds(0, 199 * 10 + 25)]


class TestBounds:
    def test_segment_bounds_validation(self):
        with pytest.raises(ValueError):
            SegmentBounds(100, 100)
        with pytest.raises(ValueError):
            SegmentBounds(-1, 50)

    def test_duration_ms(self):
        buf = AudioBuffer(np.zeros(8000), 16000)
        assert buf.duration_ms == 500
