import math

import pytest
from hypothesis import given, settings, strategies as st

from prosodika.prosody import (
    FLAG_NO_LOUDNESS,
    FLAG_NO_PITCH,
    PairingError,
    PipelineConfig,
    SyntagmFeatures,
    annotate_corpus,
    pitch_delta,
    rate_delta,
    rolling_baseline,
    smooth_series,
    volume_delta,
    write_atomic,
)
from prosodika.syntagms import WORD, Syntagm, Token

CFG = PipelineConfig()


def brute_force_baseline(values, w):
    """Independent windowed median: sort-based, no shared code path."""
    present_all = sorted(v for v in values if v is not None)

    def med(xs):
        xs = sorted(xs)
        n = len(xs)
        return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2.0

    n = len(values)
    if n <= w:
        return [med(present_all)] * n
    out = []
    for i in range(n):
        start = i - w // 2
        start = 0 if start < 0 else (n - w if start > n - w else start)
        window = [v for v in values[start : start + w] if v is not None]
        out.append(med(window) if window else med(present_all))
    return out


class TestRollingBaseline:
    def test_single_value(self):
        assert rolling_baseline([200.0], 10) == [200.0]

    def test_short_list_is_global_median(self):
        values = [1.0, 9.0, 5.0, 3.0, 7.0]
        assert rolling_baseline(values, 10) == [5.0] * 5

    def test_window_center_frozen(self):
        values = [float(v) for v in range(1, 21)]
        baseline = rolling_baseline(values, 10)
        assert baseline[10] == 10.5  # median of values 6..15

    def test_skips_absent(self):
        values = [1.0, None, 3.0]
        assert rolling_baseline(values, 10) == [2.0] * 3

    def test_all_absent_raises(self):
        with pytest.raises(ValueError):
            rolling_baseline([None, None], 5)

    @given(
        st.lists(
            st.one_of(st.none(), st.floats(-100, 100, allow_nan=False)),
            min_size=1,
            max_size=50,
        ).filter(lambda vs: any(v is not None for v in vs)),
        st.integers(1, 12),
    )
    def test_matches_brute_force(self, values, w):
        assert rolling_baseline(values, w) == brute_force_baseline(values, w)


class TestPitchDelta:
    def test_equal_is_zero(self):
        assert pitch_delta(200.0, 200.0, CFG) == 0.0

    def test_clip_above(self):
        # s = 12*log2(220/200) = 1.6500 -> clipped to 1.5 -> +9.0508%
        assert pitch_delta(220.0, 200.0, CFG) == pytest.approx(9.05077326652577, abs=1e-9)

    def test_clip_below(self):
        # s = -12 -> clipped to -1.05 -> -5.8848%
        assert pitch_delta(100.0, 200.0, CFG) == pytest.approx(-5.884777049493173, abs=1e-9)

    def test_unclipped_value(self):
        # half a semitone up: (2**(0.5/12)-1)*100
        f0 = 200.0 * 2 ** (0.5 / 12)
        assert pitch_delta(f0, 200.0, CFG) == pytest.approx((2 ** (0.5 / 12) - 1) * 100, abs=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pitch_delta(0.0, 200.0, CFG)
        with pytest.raises(ValueError):
            pitch_delta(200.0, -1.0, CFG)

    @given(st.floats(50, 500), st.floats(50, 500))
    def test_roundtrip_semitones(self, f0, base):
        pct = pitch_delta(f0, base, CFG)
        s = 12.0 * math.log2(1.0 + pct / 100.0)
        expected = min(max(12.0 * math.log2(f0 / base), -0.7 * 1.5), 1.5)
        assert abs(s - expected) < 1e-9


class TestVolumeDelta:
    def test_zero(self):
        assert volume_delta(-20.0, -20.0, CFG) == 0.0

    def test_plus_3db_clipped(self):
        # raw +41.25% -> clipped to +10
        assert volume_delta(-17.0, -20.0, CFG) == 10.0

    def test_small_negative(self):
        assert volume_delta(-20.5, -20.0, CFG) == pytest.approx(-5.5939123714076615, abs=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            volume_delta(float("-inf"), -20.0, CFG)


class TestRateDelta:
    def test_equal_durations(self):
        assert rate_delta(10, 5.0, 5.0, CFG) == 0.0

    def test_long_slowdown_amplified_then_clamped(self):
        # raw -20%, amplified x1.5 -> -30, clamped to -10
        assert rate_delta(10, 5.0, 4.0, CFG) == -10.0

    def test_speedup_attenuated_then_ceiling(self):
        # raw +25%, x0.5 -> +12.5, ceiling +0.5R = +5
        assert rate_delta(10, 4.0, 5.0, CFG) == 5.0

    def test_short_slowdown_not_amplified(self):
        # d_nat = 0.9 s (short): raw -10% stays -10, inside the clamp
        assert rate_delta(2, 0.9, 0.8182, CFG) == pytest.approx(
            (0.8182 / 0.9 - 1) * 100, abs=1e-6
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rate_delta(0, 1.0, 1.0, CFG)
        with pytest.raises(ValueError):
            rate_delta(3, 0.0, 1.0, CFG)


class TestSmoothSeries:
    def test_fixed_point(self):
        assert smooth_series([5.0, 5.0, 5.0], CFG) == [5.0, 5.0, 5.0]

    def test_one_step(self):
        assert smooth_series([0.0, 10.0], CFG) == [0.0, 2.0]

    def test_jump_clamp(self):
        # smoothed step would be 20 -> clamped to 8
        assert smooth_series([0.0, 100.0], CFG) == [0.0, 8.0]

    def test_clamped_value_feeds_forward(self):
        out = smooth_series([0.0, 100.0, 100.0], CFG)
        assert out[1] == 8.0
        # next smoothed point is 0.2*100 + 0.8*8 = 26.4, again a >8 step,
        # so it clamps to 8 + 8
        assert out[2] == 16.0

    def test_alpha_one_no_jump_is_identity(self):
        cfg = PipelineConfig(smoothing_alpha=1.0, max_jump_pct=1e9)
        values = [3.0, -2.0, 7.5, 0.0]
        assert smooth_series(values, cfg) == values

    def test_closed_form_when_unclamped(self):
        cfg = PipelineConfig(max_jump_pct=1e9)
        values = [1.0, 4.0, -3.0, 2.0, 2.0]
        out = smooth_series(values, cfg)
        expected = [values[0]]
        for x in values[1:]:
            expected.append(0.2 * x + 0.8 * expected[-1])
        assert all(abs(a - b) < 1e-12 for a, b in zip(out, expected))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            smooth_series([], CFG)

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=40))
    def test_steps_bounded_by_jump(self, values):
        out = smooth_series(values, CFG)
        assert all(
            abs(b - a) <= CFG.max_jump_pct + 1e-12 for a, b in zip(out, out[1:])
        )


def make_syntagm(words, start_ms=0, word_ms=300, pause_ms=200):
    toks = []
    cursor = start_ms
    for w in words:
        toks.append(Token(WORD, w, cursor, cursor + word_ms))
        cursor += word_ms
    return Syntagm(tuple(toks), pause_ms)


def feats(f0=200.0, lufs=-20.0):
    return SyntagmFeatures(f0, lufs)


class TestAnnotateCorpus:
    def test_self_comparison_is_all_zero(self):
        syntagms = [make_syntagm(["le", "chat"]), make_syntagm(["dort"], start_ms=900)]
        features = [feats(), feats()]
        nat = list(zip(syntagms, features))
        deltas = annotate_corpus(nat, nat, CFG)
        assert all(d.pitch_pct == 0.0 for d in deltas)
        assert all(d.rate_pct == 0.0 for d in deltas)
        assert all(d.volume_pct == 0.0 for d in deltas)
        assert [d.break_ms for d in deltas] == [200, 200]
        assert all(d.flags == () for d in deltas)

    def test_single_syntagm_pitch_against_synthetic_baseline(self):
        # natural 220 Hz vs synthetic 200 Hz baseline, all else equal
        s = make_syntagm(["bonjour"])
        nat = [(s, feats(f0=220.0))]
        syn = [(s, feats(f0=200.0))]
        (delta,) = annotate_corpus(nat, syn, CFG)
        assert delta.pitch_pct == pytest.approx(9.05077326652577, abs=1e-9)
        assert delta.volume_pct == 0.0
        assert delta.rate_pct == 0.0
        assert delta.break_ms == 200

    def test_volume_uses_natural_baseline_vs_synthetic_instant(self):
        s = make_syntagm(["mot"])
        nat = [(s, feats(lufs=-17.0))]
        syn = [(s, feats(lufs=-20.0))]
        (delta,) = annotate_corpus(nat, syn, CFG)
        assert delta.volume_pct == 10.0  # +3 dB clipped at V

    def test_unvoiced_syntagm_flagged(self):
        s = make_syntagm(["chut"])
        nat = [(s, feats(f0=None))]
        syn = [(s, feats(f0=200.0))]
        (delta,) = annotate_corpus(nat, syn, CFG)
        assert delta.pitch_pct == 0.0
        assert FLAG_NO_PITCH in delta.flags

    def test_silent_loudness_flagged(self):
        s = make_syntagm(["mot"])
        nat = [(s, feats())]
        syn = [(s, feats(lufs=None))]
        (delta,) = annotate_corpus(nat, syn, CFG)
        assert delta.volume_pct == 0.0
        assert FLAG_NO_LOUDNESS in delta.flags

    def test_injected_break_flagged(self):
        base = make_syntagm(["fin."])
        injected = Syntagm(base.words, 500, pause_injected=True)
        nat = [(injected, feats())]
        syn = [(make_syntagm(["fin."], pause_ms=500), feats())]
        (delta,) = annotate_corpus(nat, syn, CFG)
        assert "injected-break" in delta.flags
        assert delta.break_ms == 500

    def test_length_mismatch(self):
        s = make_syntagm(["un"])
        with pytest.raises(PairingError):
            annotate_corpus([(s, feats())], [], CFG)

    def test_word_mismatch_names_index(self):
        a = [(make_syntagm(["un"]), feats()), (make_syntagm(["deux"]), feats())]
        b = [(make_syntagm(["un"]), feats()), (make_syntagm(["trois"]), feats())]
        with pytest.raises(PairingError) as err:
            annotate_corpus(a, b, CFG)
        assert "1" in str(err.value)

    def test_rate_uses_durations(self):
        s_nat = make_syntagm(["a", "b", "c"], word_ms=400)  # 1.2 s
        s_syn = make_syntagm(["a", "b", "c"], word_ms=500)  # 1.5 s
        nat = [(s_nat, feats())]
        syn = [(s_syn, feats())]
        (delta,) = annotate_corpus(nat, syn, CFG)
        assert delta.rate_pct == 5.0  # +25 raw, x0.5, ceiling

    def test_scale_invariance_of_pitch(self):
        syntagms = [make_syntagm([f"m{i}"]) for i in range(12)]
        f0s = [180.0, 210.0, 195.0, 240.0, 185.0, 200.0, 220.0, 205.0, 190.0, 230.0, 215.0, 198.0]
        nat = [(s, feats(f0=v)) for s, v in zip(syntagms, f0s)]
        syn = [(s, feats(f0=v * 0.9)) for s, v in zip(syntagms, f0s)]
        base = annotate_corpus(nat, syn, CFG)
        nat2 = [(s, feats(f0=v * 1.7)) for s, v in zip(syntagms, f0s)]
        syn2 = [(s, feats(f0=v * 0.9 * 1.7)) for s, v in zip(syntagms, f0s)]
        scaled = annotate_corpus(nat2, syn2, CFG)
        for d1, d2 in zip(base, scaled):
            assert d1.pitch_pct == pytest.approx(d2.pitch_pct, abs=1e-9)

    def test_empty_pairing_is_empty(self):
        assert annotate_corpus([], [], CFG) == []

    def test_unvoiced_syntagm_leaves_its_neighbours_unsmoothed(self):
        # the flagged syntagm's 0 stays out of the smoother, so the fully voiced
        # third syntagm keeps the first one's 9.05 instead of sliding towards 0
        syntagms = [make_syntagm([f"m{i}"]) for i in range(3)]
        nat = [(s, feats(f0=f0)) for s, f0 in zip(syntagms, [220.0, None, 220.0])]
        syn = [(s, feats(f0=200.0)) for s in syntagms]
        deltas = annotate_corpus(nat, syn, CFG)
        assert [round(d.pitch_pct, 2) for d in deltas] == [9.05, 0.0, 9.05]
        assert deltas[0].pitch_pct == deltas[2].pitch_pct
        assert [d.flags for d in deltas] == [(), (FLAG_NO_PITCH,), ()]

    def test_unvoiced_first_syntagm_does_not_seed_the_smoother(self):
        syntagms = [make_syntagm([f"m{i}"]) for i in range(3)]
        nat = [(s, feats(f0=f0)) for s, f0 in zip(syntagms, [None, 220.0, 220.0])]
        syn = [(s, feats(f0=200.0)) for s in syntagms]
        deltas = annotate_corpus(nat, syn, CFG)
        assert deltas[0].pitch_pct == 0.0
        assert deltas[1].pitch_pct == deltas[2].pitch_pct == pytest.approx(9.0508, abs=1e-4)

    def test_synthetic_voice_with_no_pitch_flags_every_syntagm(self):
        # no f0 baseline exists, so every raw pitch is 0 and nothing is smoothed away from it
        syntagms = [make_syntagm([f"m{i}"]) for i in range(3)]
        nat = [(s, feats(f0=250.0)) for s in syntagms]
        syn = [(s, feats(f0=None)) for s in syntagms]
        deltas = annotate_corpus(nat, syn, CFG)
        assert [(d.pitch_pct, d.flags) for d in deltas] == [(0.0, (FLAG_NO_PITCH,))] * 3

    def test_natural_voice_with_no_loudness_flags_every_syntagm(self):
        syntagms = [make_syntagm([f"m{i}"]) for i in range(3)]
        nat = [(s, feats(lufs=None)) for s in syntagms]
        syn = [(s, feats(lufs=-30.0)) for s in syntagms]
        deltas = annotate_corpus(nat, syn, CFG)
        assert [(d.volume_pct, d.flags) for d in deltas] == [(0.0, (FLAG_NO_LOUDNESS,))] * 3

    def test_all_three_flags_in_order(self):
        s = Syntagm(make_syntagm(["fin."]).words, 500, pause_injected=True)
        (delta,) = annotate_corpus([(s, feats(f0=None))], [(s, feats(lufs=None))], CFG)
        assert delta.flags == ("no-pitch", "no-loudness", "injected-break")
        assert (delta.pitch_pct, delta.volume_pct, delta.break_ms) == (0.0, 0.0, 500)

    def test_absent_value_in_window_is_skipped(self):
        # window 3 over 6 syntagms: the first three windows hold a None, and
        # their baselines come from the values beside it, not the global median
        cfg = PipelineConfig(baseline_window=3)
        syntagms = [make_syntagm([f"m{i}"]) for i in range(6)]
        f0_syn = [200.0, None, 250.0, 400.0, 800.0, 900.0]
        f0_nat = [225.0, 225.0, 325.0, 400.0, 800.0, 800.0]  # the synthetic baseline
        lufs_nat = [-20.0, None, -21.0, -22.0, -23.0, -24.0]
        lufs_syn = [-20.5, -20.5, -21.5, -22.0, -23.0, -23.0]  # the natural baseline
        nat = [(s, feats(f0, lufs)) for s, f0, lufs in zip(syntagms, f0_nat, lufs_nat)]
        syn = [(s, feats(f0, lufs)) for s, f0, lufs in zip(syntagms, f0_syn, lufs_syn)]
        deltas = annotate_corpus(nat, syn, cfg)
        assert [(d.pitch_pct, d.volume_pct, d.flags) for d in deltas] == [(0.0, 0.0, ())] * 6


bounded_floats = st.floats(-1000, 1000, allow_nan=False)


class TestClipInvariants:
    @settings(max_examples=300)
    @given(st.floats(30, 600), st.floats(30, 600))
    def test_pitch_bounds(self, f0, base):
        lo, hi = CFG.pitch_bounds_pct()
        assert lo - 1e-9 <= pitch_delta(f0, base, CFG) <= hi + 1e-9

    @settings(max_examples=300)
    @given(st.floats(-80, 0), st.floats(-80, 0))
    def test_volume_bounds(self, a, b):
        assert abs(volume_delta(a, b, CFG)) <= CFG.volume_clip_pct

    @settings(max_examples=300)
    @given(st.integers(1, 30), st.floats(0.05, 30), st.floats(0.05, 30))
    def test_rate_bounds(self, n, d_nat, d_syn):
        r = rate_delta(n, d_nat, d_syn, CFG)
        assert -CFG.rate_clip_pct <= r <= 0.5 * CFG.rate_clip_pct


class TestConfig:
    def test_from_mapping(self):
        cfg = PipelineConfig.from_mapping({"volume_clip_pct": "12", "baseline_window": "4"})
        assert cfg.volume_clip_pct == 12.0
        assert cfg.baseline_window == 4

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_mapping({"nope": 1})

    @pytest.mark.parametrize("value", [None, [1], "abc", "nan", "inf", 1e400, True])
    def test_bad_value_names_key(self, value):
        with pytest.raises(ValueError, match="volume_clip_pct"):
            PipelineConfig.from_mapping({"volume_clip_pct": value})

    def test_invariants(self):
        with pytest.raises(ValueError):
            PipelineConfig(smoothing_alpha=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(pitch_clip_semitones=-1)
        with pytest.raises(ValueError):
            PipelineConfig(baseline_window=0)


class TestWriteAtomic:
    def test_failed_write_removes_the_temporary_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            write_atomic(tmp_path / "a.txt", "lone surrogate \ud800")
        assert list(tmp_path.iterdir()) == []
