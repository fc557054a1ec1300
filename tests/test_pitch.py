from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prosodika import pitch
from prosodika.audio import AudioBuffer, SegmentBounds
from prosodika.pitch import (
    _BATCH_FRAMES,
    _ENERGY_GROUP,
    FMAX,
    FMIN,
    F0Track,
    estimate_f0_track,
    median_f0,
)

from conftest import NAT_DBFS, NAT_F0, NAT_PAUSE_MS, NAT_WORD_S, build_voice_track, tone


def track_of(buf):
    return estimate_f0_track(buf)


def voiced_f0(track):
    f0 = track.frames["f0_hz"]
    return f0[~np.isnan(f0)]


class TestEstimateF0:
    @pytest.mark.parametrize("freq", [80, 120, 200, 300, 400])
    def test_sine_median_within_one_percent(self, freq):
        buf = AudioBuffer(tone(freq, 1.0, 16000, amplitude=0.8), 16000)
        track = track_of(buf)
        values = voiced_f0(track)
        assert len(values) >= 0.9 * len(track.frames)
        assert abs(np.median(values) - freq) <= 0.01 * freq

    def test_220_sine_within_2hz(self):
        buf = AudioBuffer(tone(220, 1.0, 16000, amplitude=0.8), 16000)
        track = track_of(buf)
        voiced = voiced_f0(track)
        assert len(voiced) >= 0.9 * len(track.frames)
        assert np.all(np.abs(voiced - 220) <= 2.0)

    def test_white_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(3)
        buf = AudioBuffer(rng.normal(0, 0.3, 16000).clip(-1, 1), 16000)
        track = track_of(buf)
        assert len(voiced_f0(track)) <= 0.2 * len(track.frames)

    def test_silence_all_unvoiced(self):
        buf = AudioBuffer(np.zeros(16000), 16000)
        track = track_of(buf)
        assert np.all(np.isnan(track.frames["f0_hz"]))

    def test_one_frame_per_hop(self):
        buf = AudioBuffer(np.zeros(16000), 16000)
        track = estimate_f0_track(buf)
        # (16000 - 640) / 160 + 1 full frames
        assert len(track.frames) == 97
        hops = np.diff(track.frames["time_ms"])
        assert np.allclose(hops, 10.0)

    def test_shorter_than_one_frame_gives_empty_track(self):
        track = estimate_f0_track(AudioBuffer(np.zeros(100), 16000))
        assert len(track.frames) == 0
        assert median_f0(track, SegmentBounds(0, 1000)) is None

    def test_no_lag_in_range_gives_all_unvoiced(self):
        # at 60 Hz a 40 ms frame has 2 samples: no lag reaches sr // fmax or 2
        buf = AudioBuffer(tone(5, 1.0, 60, amplitude=0.8), 60)
        track = estimate_f0_track(buf)
        assert len(track.frames) == 59
        assert np.all(np.isnan(track.frames["f0_hz"]))

    @pytest.mark.parametrize("sr", [49, 50])
    def test_rate_without_a_whole_hop_is_refused(self, sr):
        # the 10 ms hop rounds to 0 samples at 50 Hz and below
        with pytest.raises(ValueError, match=f"sample rate {sr} Hz"):
            estimate_f0_track(AudioBuffer(np.zeros(200), sr))

    def test_lowest_rate_with_a_whole_hop(self):
        track = estimate_f0_track(AudioBuffer(np.zeros(200), 51))
        assert len(track.frames) == 199  # 2-sample frames, one per sample
        assert np.all(np.isnan(track.frames["f0_hz"]))

    def test_f0_within_configured_range(self):
        buf = AudioBuffer(tone(400, 1.0, 16000, amplitude=0.8), 16000)
        track = estimate_f0_track(buf)
        assert np.all((voiced_f0(track) >= FMIN) & (voiced_f0(track) <= FMAX))


# Reference tracker: the per-frame scalar dip search over a CMNDF computed
# with a 2 x frame_len FFT, one frame at a time.
def _reference_cmndf(frames, w, lag_max):
    n, frame_len = frames.shape
    nfft = 1
    while nfft < frame_len * 2:
        nfft *= 2
    spec_full = np.fft.rfft(frames, nfft, axis=1)
    spec_win = np.fft.rfft(frames[:, :w], nfft, axis=1)
    cross = np.fft.irfft(spec_full * np.conj(spec_win), nfft, axis=1)[:, : lag_max + 1]
    sq = np.concatenate([np.zeros((n, 1)), np.cumsum(frames * frames, axis=1)], axis=1)
    e0 = sq[:, w] - sq[:, 0]
    lags = np.arange(lag_max + 1)
    e_tau = sq[:, lags + w] - sq[:, lags]
    diff = np.maximum(e0[:, None] + e_tau - 2.0 * cross, 0.0)
    running = np.cumsum(diff[:, 1:], axis=1)
    tau = np.arange(1, lag_max + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.where(running > 0.0, diff[:, 1:] * tau[None, :] / running, 1.0)
    return np.concatenate([np.ones((n, 1)), norm], axis=1)


def _reference_pick(row, lag_min, lag_max, sample_rate, fmin, fmax, threshold):
    j = lag_min
    dip = None
    while j <= lag_max:
        if row[j] < threshold:
            while j + 1 <= lag_max and row[j + 1] < row[j]:
                j += 1
            dip = j
            break
        j += 1
    if dip is None:
        return None
    if 0 < dip < lag_max:
        a, b, c = row[dip - 1], row[dip], row[dip + 1]
        denom = a - 2.0 * b + c
        delta = 0.5 * (a - c) / denom if abs(denom) > 1e-12 else 0.0
        delta = float(np.clip(delta, -0.5, 0.5))
    else:
        delta = 0.0
    f0 = sample_rate / (dip + delta)
    return float(min(max(f0, fmin), fmax))


def reference_track(buf, frame_ms=40, hop_ms=10, fmin=60, fmax=400, threshold=0.15,
                    indices=None):
    """(times_ms, f0 or None) per frame, or per frame of ``indices``."""
    sr = buf.sample_rate
    frame_len = int(round(sr * frame_ms / 1000.0))
    hop = int(round(sr * hop_ms / 1000.0))
    w = frame_len // 2
    lag_max = min(w, int(np.ceil(sr / fmin)))
    lag_min = max(2, int(sr // fmax))
    n_frames = max(0, (len(buf.samples) - frame_len) // hop + 1)
    times, f0s = [], []
    for i in range(n_frames) if indices is None else indices:
        frame = buf.samples[i * hop : i * hop + frame_len][None, :]
        row = _reference_cmndf(frame, w, lag_max)[0]
        times.append((i * hop + frame_len / 2.0) * 1000.0 / sr)
        f0s.append(_reference_pick(row, lag_min, lag_max, sr, fmin, fmax, threshold))
    return times, f0s


def _chirp(noise, seed, sr=16000, n_samples=None):
    t = np.arange(3 * sr if n_samples is None else n_samples) / sr
    rng = np.random.default_rng(seed)
    sig = 0.6 * np.sin(2 * np.pi * (80 * t + 50 * t * t)) + rng.normal(0, noise, len(t))
    return sig.clip(-1, 1)


SIGNALS = {
    "chirp": lambda: _chirp(0.05, 1),
    "chirp-half-voiced": lambda: _chirp(0.18, 2),
    "white-noise": lambda: np.random.default_rng(3).normal(0, 0.3, 16000).clip(-1, 1),
    "silence": lambda: np.zeros(16000),
    "sine-80": lambda: tone(80, 1.0, 16000, amplitude=0.8),
    "sine-220": lambda: tone(220, 1.0, 16000, amplitude=0.8),
    "sine-400": lambda: tone(400, 1.0, 16000, amplitude=0.8),
    "corpus-voice": lambda: build_voice_track(2, NAT_F0, NAT_DBFS, NAT_WORD_S, NAT_PAUSE_MS)[0],
}


def assert_matches_reference(buf, indices=None, tol=1e-9):
    """Same frame times and voicing as the reference, f0 within ``tol`` Hz,
    on every frame or on the frames of ``indices``."""
    times, ref = reference_track(buf, indices=indices)
    frames = estimate_f0_track(buf).frames
    if indices is None:
        assert len(frames) == len(times)
    else:
        frames = frames[indices]
    assert np.array_equal(frames["time_ms"], np.array(times))
    ref_voiced = np.array([f is not None for f in ref])
    f0 = frames["f0_hz"]
    assert np.array_equal(~np.isnan(f0), ref_voiced)
    ref_f0 = np.array([f for f in ref if f is not None])
    assert np.all(np.abs(f0[ref_voiced] - ref_f0) <= tol)


@pytest.fixture(scope="module")
def long_loud_signal():
    # 10 minutes near full scale, quiet every other second, so a running sum
    # of squares that never restarted would carry a large total into the
    # quiet frames
    sr, seconds = 16000, 600
    t = np.arange(seconds * sr) / sr
    loud = np.where(np.floor(t) % 2 == 0, 0.95, 0.01)
    return AudioBuffer(loud * np.sin(2 * np.pi * (80 * t + 0.25 * t * t)), sr)


class TestMatchesScalarReference:
    @pytest.mark.parametrize("name", sorted(SIGNALS))
    def test_same_frames_voicing_and_f0(self, name):
        assert_matches_reference(AudioBuffer(SIGNALS[name](), 16000))

    # 11025 Hz gives an odd frame_len (441)
    @pytest.mark.parametrize("sr", [8000, 11025, 22050, 44100])
    def test_other_sample_rates(self, sr):
        assert_matches_reference(AudioBuffer(_chirp(0.05, 5, sr), sr))

    # one frame; part of an energy group; one frame past one whole batch and
    # past 4096 frames
    @pytest.mark.parametrize("n_frames", [1, _ENERGY_GROUP + 13, _BATCH_FRAMES + 1, 4097])
    def test_partial_groups_and_batches(self, n_frames):
        buf = AudioBuffer(_chirp(0.1, 6, n_samples=640 + (n_frames - 1) * 160), 16000)
        assert len(estimate_f0_track(buf).frames) == n_frames
        assert_matches_reference(buf)

    def test_no_drift_at_batch_ends_of_a_long_loud_signal(self, long_loud_signal):
        # the last four frames of every 4096 frames
        buf = long_loud_signal
        n_frames = (len(buf.samples) - 640) // 160 + 1
        ends = [end - k for end in range(4096, n_frames, 4096) for k in range(1, 5)]
        assert_matches_reference(buf, indices=ends)

    def test_no_drift_at_energy_group_ends_of_a_long_loud_signal(self, long_loud_signal):
        # the last four frames of every energy group, where the running sum
        # has added the most: its rounding reaches 3.1e-9 Hz on this signal
        # (3.5e-9 Hz on any frame), against the reference's own summation
        buf = long_loud_signal
        n_frames = (len(buf.samples) - 640) // 160 + 1
        ends = [end - k for end in range(_ENERGY_GROUP, n_frames + 1, _ENERGY_GROUP)
                for k in range(1, 5)]
        assert_matches_reference(buf, indices=ends, tol=1e-8)

    def test_mixed_voicing_is_exercised(self):
        _, ref = reference_track(AudioBuffer(SIGNALS["chirp-half-voiced"](), 16000))
        voiced = sum(f is not None for f in ref)
        assert 0.1 * len(ref) < voiced < 0.9 * len(ref)


def _sweep(seconds, seed, sr=16000):
    # 80 -> 380 Hz over the whole signal, in noise that leaves some frames
    # unvoiced
    t = np.arange(int(seconds * sr)) / sr
    rng = np.random.default_rng(seed)
    sig = 0.6 * np.sin(2 * np.pi * (80 * t + 150 * t * t / seconds)) + rng.normal(0, 0.2, len(t))
    return AudioBuffer(sig.clip(-1, 1), sr)


class TestBatches:
    def test_batches_hold_whole_energy_groups(self):
        # so every running sum restarts at the same sample whatever the batch
        assert _BATCH_FRAMES % _ENERGY_GROUP == 0

    def test_frames_do_not_depend_on_the_batch_size(self, monkeypatch):
        buf = _sweep(46, 8)  # 4597 frames: more than one batch at every size
        tracks = []
        for size in (32, _BATCH_FRAMES, 4096):
            monkeypatch.setattr(pitch, "_BATCH_FRAMES", size)
            tracks.append(estimate_f0_track(buf).frames.tobytes())
        assert tracks[0] == tracks[1] == tracks[2]


@pytest.fixture(scope="module")
def span_signal():
    """A buffer of three and a bit batches, and its full track."""
    buf = _sweep((3 * _BATCH_FRAMES + 40) / 100, 9)
    return buf, estimate_f0_track(buf)


def _frame_time(i):
    return i * 10.0 + 20.0  # 16 kHz: 160-sample hop, 640-sample frame


_EDGE_FRAMES = [0, 1, _ENERGY_GROUP - 1, _ENERGY_GROUP, _BATCH_FRAMES - 1, _BATCH_FRAMES,
                _BATCH_FRAMES + 1, 2 * _BATCH_FRAMES, 3 * _BATCH_FRAMES + 39]
_SPAN_MS = st.one_of(
    st.integers(-200, 10_000),
    st.floats(-200.0, 10_000.0, allow_nan=False),
    # on a frame time, at batch and energy-group edges, or just either side
    st.tuples(st.sampled_from(_EDGE_FRAMES), st.sampled_from([-0.5, 0.0, 0.5])).map(
        lambda e: _frame_time(e[0]) + e[1]),
)
_SPAN = st.one_of(st.tuples(_SPAN_MS, _SPAN_MS), _SPAN_MS.map(lambda t: (t, t)))


class TestSpans:
    @given(spans=st.lists(_SPAN, max_size=6))
    @example(spans=[])
    @settings(max_examples=80, deadline=None)
    def test_span_track_is_the_full_track_inside_the_spans(self, span_signal, spans):
        buf, full = span_signal
        track = estimate_f0_track(buf, spans)
        times = full.frames["time_ms"]
        inside = np.zeros(len(times), dtype=bool)
        for start, end in spans:
            inside |= (start <= times) & (times < end)
        assert track.frames.tobytes() == full.frames[inside].tobytes()
        assert np.all(np.diff(track.frames["time_ms"]) > 0)
        for start, end in spans:
            # median_f0 reads only the two bounds, so it takes any span here
            bounds = SimpleNamespace(start_ms=start, end_ms=end)
            assert median_f0(track, bounds) == median_f0(full, bounds)

    def test_span_past_the_audio_tracks_no_frames(self):
        # a 0.5 s voice whose grid runs to 6.7 s
        buf = AudioBuffer(tone(200, 0.5, 16000, amplitude=0.8), 16000)
        spans = [(700, 1900), (2300, 3500), (5500, 6700)]
        track = estimate_f0_track(buf, spans)
        assert len(track.frames) == 0
        assert all(median_f0(track, SegmentBounds(*s)) is None for s in spans)


class TestMedianF0:
    def mk_track(self, values):
        f0 = [np.nan if v is None else v for v in values]
        return F0Track.from_arrays(10.0 * np.arange(len(values)), f0)

    def test_simple_median(self):
        track = self.mk_track([200.0, 210.0, 220.0])
        assert median_f0(track, SegmentBounds(0, 1000)) == 210.0

    def test_absent_when_unvoiced(self):
        track = self.mk_track([None, None])
        assert median_f0(track, SegmentBounds(0, 1000)) is None

    def test_even_count_midpoint(self):
        track = self.mk_track([100.0] * 10 + [300.0] * 10)
        assert median_f0(track, SegmentBounds(0, 10000)) == 200.0

    def test_respects_bounds(self):
        track = self.mk_track([100.0, 100.0, 300.0, 300.0])
        # frames at 0,10,20,30 ms
        assert median_f0(track, SegmentBounds(0, 15)) == 100.0
        assert median_f0(track, SegmentBounds(20, 40)) == 300.0

    def test_frames_on_bounds_match_brute_force(self):
        rng = np.random.default_rng(7)
        values = [None if rng.random() < 0.3 else float(f) for f in rng.uniform(80, 300, 60)]
        track = self.mk_track(values)
        times, f0 = track.frames["time_ms"], track.frames["f0_hz"]
        # every bound sits exactly on a frame time: start is kept, end is not
        for start, end in [(0, 10), (10, 20), (0, 590), (200, 300), (250, 600), (590, 600)]:
            mask = (times >= start) & (times < end) & ~np.isnan(f0)
            expected = float(np.median(f0[mask])) if mask.any() else None
            assert median_f0(track, SegmentBounds(start, end)) == expected

    def test_order_invariant(self):
        a = self.mk_track([210.0, 180.0, 240.0, 200.0])
        b = self.mk_track([240.0, 210.0, 200.0, 180.0])
        bounds = SegmentBounds(0, 1000)
        assert median_f0(a, bounds) == median_f0(b, bounds)

    def test_frame_invariant(self):
        track = self.mk_track([200.0, None])
        assert len(track.frames) == 2
        assert np.isnan(track.frames["f0_hz"][1])
        with pytest.raises(ValueError):
            track.frames["f0_hz"][0] = 1.0  # read-only
        with pytest.raises(ValueError):
            F0Track.from_arrays([0.0, 10.0], [100.0, 100.0, 100.0])
        with pytest.raises(ValueError):
            F0Track.from_arrays([10.0, 0.0], [100.0, 100.0])  # times must ascend
