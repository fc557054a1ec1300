import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import prosodika
from prosodika.metrics import (
    BreakPrediction,
    DistributionSummary,
    MetricsReport,
    HISTOGRAM_BINS,
    PairingError,
    _error_stats,
    arr,
    attribute_errors,
    break_f1,
    document_syntagms,
    perplexity,
    summarize,
    tag_census,
    true_label_probabilities,
)
from prosodika.prosody import ProsodyDelta
from prosodika.ssml import EmitOptions, SilenceDirective, emit, parse, parse_corpus


def bp(word_count, positions, probabilities=None):
    return BreakPrediction(word_count, frozenset(positions),
                           tuple(probabilities) if probabilities else None)


class TestBreakF1:
    def test_exact_match(self):
        assert break_f1(bp(10, {2, 7}), bp(10, {2, 7})) == (1.0, 1.0, 1.0)

    def test_half_overlap(self):
        assert break_f1(bp(10, {2, 5}), bp(10, {2, 7})) == (0.5, 0.5, 0.5)

    def test_empty_prediction(self):
        assert break_f1(bp(10, set()), bp(10, {3})) == (0.0, 0.0, 0.0)

    def test_empty_vs_empty(self):
        assert break_f1(bp(10, set()), bp(10, set())) == (1.0, 1.0, 1.0)

    def test_word_count_mismatch(self):
        with pytest.raises(PairingError):
            break_f1(bp(10, {1}), bp(11, {1}))

    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.integers(0, n - 1)),
                st.sets(st.integers(0, n - 1)),
            )
        )
    )
    def test_precision_recall_swap_symmetry(self, case):
        n, a, b = case
        pa, ra, _ = break_f1(bp(n, a), bp(n, b))
        pb, rb, _ = break_f1(bp(n, b), bp(n, a))
        assert pa == rb and ra == pb


class TestPerplexity:
    def test_certain(self):
        assert perplexity([1.0, 1.0, 1.0]) == 1.0

    def test_half(self):
        assert perplexity([0.5, 0.5]) == pytest.approx(2.0, abs=1e-12)

    def test_hand_value(self):
        assert perplexity([1.0, 0.25]) == pytest.approx(2.0, abs=1e-12)

    def test_zero_probability_sentinel(self):
        assert perplexity([0.5, 0.0]) == float("inf")

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            perplexity([])
        with pytest.raises(ValueError):
            perplexity([1.2])

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=20))
    def test_permutation_invariant_and_floor(self, probs):
        assert perplexity(probs) == pytest.approx(perplexity(list(reversed(probs))))
        assert perplexity(probs) >= 1.0 - 1e-12
        # equals 1 exactly when every probability is 1
        if all(p == 1.0 for p in probs):
            assert perplexity(probs) == 1.0
        elif any(p < 0.999 for p in probs):
            assert perplexity(probs) > 1.0

    def test_true_label_probabilities(self):
        pred = bp(3, {1}, probabilities=[0.2, 0.9, 0.4])
        gold = bp(3, {1, 2})
        assert true_label_probabilities(pred, gold) == [0.8, 0.9, 0.4]


class TestArr:
    def test_perfect(self):
        assert arr([0.0, 1000.0], [0.0, 1000.0]) == 1.0

    def test_threshold_counting(self):
        # offsets 10 and 100 ms with tau = 50: one hit of two
        assert arr([10.0, 1100.0], [0.0, 1000.0]) == 0.5

    def test_macro_average_over_windows(self):
        # window 0 perfect, window 1 all misses
        pred = [0.0, 1.0, 16000.0, 17000.0]
        gold = [0.0, 1.0, 16200.0, 17300.0]
        assert arr(pred, gold) == 0.5
        # ten windows of ten words, one hit each, add left to right: sum(),
        # which compensates from Python 3.12, gives 0.1
        gold = [w * 15000.0 + i * 100.0 for w in range(10) for i in range(10)]
        pred = [g if g % 15000.0 == 0.0 else g + 60.0 for g in gold]
        assert arr(pred, gold) == 0.09999999999999999
        assert math.fsum([0.1] * 10) / 10 == 0.1

    def test_empty_windows_skipped(self):
        # words only in windows 0 and 4
        pred = [0.0, 61000.0]
        gold = [0.0, 61000.0]
        assert arr(pred, gold) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(PairingError):
            arr([0.0], [0.0, 1.0])

    def test_boundary_inclusive(self):
        assert arr([50.0], [0.0]) == 1.0
        assert arr([50.001], [0.0]) == 0.0

    def test_constant_shift_within_tau_keeps_perfect_score(self):
        gold = [0.0, 4000.0, 9000.0, 21000.0]
        pred = [g + 30.0 for g in gold]  # all offsets 30 < tau
        assert arr(pred, gold, tau_ms=50.0) == 1.0
        pred = [g + 70.0 for g in gold]  # shift pushes every offset past tau
        assert arr(pred, gold, tau_ms=50.0) == 0.0

    @pytest.mark.parametrize("window_s", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_window(self, window_s):
        with pytest.raises(ValueError, match="window_s"):
            arr([0.0], [0.0], 50.0, window_s)

    @pytest.mark.parametrize("tau_ms", [-0.5, math.nan, math.inf])
    def test_rejects_bad_tau(self, tau_ms):
        with pytest.raises(ValueError, match="tau_ms"):
            arr([0.0], [0.0], tau_ms)


def doc_of(syntagms, **opts):
    return parse(emit(syntagms, EmitOptions(**opts)))


def delta(pitch=0.0, rate=0.0, volume=0.0, break_ms=0):
    return ProsodyDelta(pitch, rate, volume, break_ms)


class TestAttributeErrors:
    def test_identical_documents(self):
        doc = doc_of([("un", delta(1.0, -1.0, 2.0, 100)), ("deux", delta(0.5, 0.0, 0.0, 0))])
        errors = attribute_errors(doc, doc)
        assert all(s.mae == 0.0 and s.rmse == 0.0 for s in errors.values())

    def test_pitch_hand_case(self):
        pred = doc_of([("a", delta(pitch=1.0, break_ms=1)), ("b", delta(pitch=3.0, break_ms=1))])
        gold = doc_of([("a", delta(pitch=2.0, break_ms=1)), ("b", delta(pitch=2.0, break_ms=1))])
        errors = attribute_errors(pred, gold)
        assert errors["pitch_pct"].mae == pytest.approx(1.0)
        assert errors["pitch_pct"].rmse == pytest.approx(1.0)

    def test_break_single_pair(self):
        pred = doc_of([("a", delta(break_ms=200))])
        gold = doc_of([("a", delta(break_ms=350))])
        errors = attribute_errors(pred, gold)
        assert errors["break_ms"].mae == pytest.approx(150.0)
        assert errors["break_ms"].rmse == pytest.approx(150.0)

    def test_rmse_vs_mae(self):
        pred = doc_of([("a", delta(pitch=4.0, break_ms=1)), ("b", delta(pitch=0.0, break_ms=1))])
        gold = doc_of([("a", delta(pitch=0.0, break_ms=1)), ("b", delta(pitch=2.0, break_ms=1))])
        errors = attribute_errors(pred, gold)
        assert errors["pitch_pct"].mae == pytest.approx(3.0)
        assert errors["pitch_pct"].rmse == pytest.approx(math.sqrt((16 + 4) / 2))
        assert errors["pitch_pct"].rmse >= errors["pitch_pct"].mae

    def test_text_divergence_raises(self):
        pred = doc_of([("un", delta())])
        gold = doc_of([("deux", delta())])
        with pytest.raises(PairingError) as err:
            attribute_errors(pred, gold)
        assert "'un'" in str(err.value) and "'deux'" in str(err.value)

    def test_segment_count_mismatch(self):
        pred = parse_corpus(emit([("a", delta())]) + "\n" + emit([("b", delta())]))
        gold = parse_corpus(emit([("a", delta())]))
        with pytest.raises(PairingError):
            attribute_errors(pred, gold)

    def test_mismatch_is_the_package_pairing_error(self):
        pred = parse_corpus(emit([("a", delta())]) + "\n" + emit([("b", delta())]))
        gold = parse_corpus(emit([("a", delta())]))
        with pytest.raises(prosodika.PairingError):
            attribute_errors(pred, gold)

    def test_macro_vs_micro(self):
        line1_pred = emit([("a", delta(pitch=1.0, break_ms=1))])
        line2_pred = emit([("b", delta(pitch=1.0, break_ms=1)), ("c", delta(pitch=1.0, break_ms=1))])
        line1_gold = emit([("a", delta(pitch=0.0, break_ms=1))])
        line2_gold = emit([("b", delta(pitch=0.7, break_ms=1)), ("c", delta(pitch=0.7, break_ms=1))])
        pred = parse_corpus(line1_pred + "\n" + line2_pred)
        gold = parse_corpus(line1_gold + "\n" + line2_gold)
        micro = attribute_errors(pred, gold)["pitch_pct"].mae
        macro = attribute_errors(pred, gold, macro=True)["pitch_pct"].mae
        assert micro == pytest.approx((1.0 + 0.3 + 0.3) / 3)
        assert macro == pytest.approx((1.0 + 0.3) / 2)
        # ten one-syntagm segments with a 0.10 % pitch gap add left to right:
        # sum(), which compensates from Python 3.12, gives 0.1
        pred = parse_corpus("\n".join(emit([(f"w{i}", delta(pitch=0.1))]) for i in range(10)))
        gold = parse_corpus("\n".join(emit([(f"w{i}", delta())]) for i in range(10)))
        errors = attribute_errors(pred, gold, macro=True)["pitch_pct"]
        assert errors.mae == errors.rmse == 0.09999999999999999
        assert math.fsum([0.1] * 10) / 10 == 0.1

    def test_missing_break_scored_as_zero(self):
        pred = parse('<prosody pitch="+0.00%" rate="+0.00%" volume="+0.00%">a</prosody>')
        gold = doc_of([("a", delta(break_ms=300))])
        errors = attribute_errors(pred, gold)
        assert errors["break_ms"].mae == pytest.approx(300.0)

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12))
    def test_rmse_at_least_mae(self, diffs):
        n = len(diffs)
        texts = [f"w{i}" for i in range(n)]
        pred = doc_of([(t, delta(pitch=round(d, 2), break_ms=1)) for t, d in zip(texts, diffs)])
        gold = doc_of([(t, delta(pitch=0.0, break_ms=1)) for t in texts])
        stats = attribute_errors(pred, gold)["pitch_pct"]
        assert stats.rmse >= stats.mae - 1e-12
        quantized = [abs(round(d, 2)) for d in diffs]
        if len(set(quantized)) == 1:
            assert stats.rmse == pytest.approx(stats.mae, abs=1e-12)


def _draw_diffs(rng: random.Random, n: int) -> list[float]:
    """``n`` differences of one of four kinds: two-decimal percentages as
    scoring sees them, whole milliseconds, signed zeros and subnormals, or
    magnitudes from 1e-300 to 1e150 (their squares stay finite)."""
    kind = rng.randrange(4)
    if kind == 0:
        return [round(rng.uniform(-50, 50), 2) - round(rng.uniform(-50, 50), 2)
                for _ in range(n)]
    if kind == 1:
        return [float(rng.randint(-900, 900)) for _ in range(n)]
    if kind == 2:
        return [rng.choice([0.0, -0.0, 5e-324 * rng.randint(-2**30, 2**30),
                            round(rng.uniform(-1, 1), 2)]) for _ in range(n)]
    return [rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 150) for _ in range(n)]


class TestErrorStatsMatchNumpy:
    """_error_stats sums in numpy's pairwise order, so MAE and RMSE keep the
    bits np.mean gave them, across the 8- and 128-item boundaries of that order."""

    def test_bit_for_bit_on_seeded_lists(self):
        rng = random.Random(1717)
        lengths = [*range(1, 300), 383, 384, 1023, 1024, 1025, 2047, 2048, 2049, 2200]
        lengths += [rng.randint(300, 2200) for _ in range(40)]
        mismatches = []
        for n in lengths:
            diffs = _draw_diffs(rng, n)
            x = np.asarray(diffs, dtype=np.float64)
            want = (float(np.mean(np.abs(x))).hex(), float(np.sqrt(np.mean(x * x))).hex())
            got = _error_stats(diffs)
            if (got.mae.hex(), got.rmse.hex(), got.count) != (*want, n):
                mismatches.append((n, got, want))
        assert mismatches == []

    def test_empty_is_zero(self):
        stats = _error_stats([])
        assert (stats.mae, stats.rmse, stats.count) == (0.0, 0.0, 0)


class TestTagCensus:
    def test_empty_corpus(self):
        census = tag_census([])
        assert census.prosody_mean == 0.0 and census.break_mean == 0.0
        assert census.prosody_total == 0 and census.break_total == 0

    def test_single_segment_counts(self):
        doc = doc_of(
            [("un n1", delta(1.0, 0.0, 0.0, 100)),
             ("deux", delta(2.0, 0.0, 0.0, 200)),
             ("trois", delta(3.0, 0.0, 0.0, 0))],
        )
        census = tag_census([doc])
        assert census.segments == 1
        assert census.prosody_total == 3
        assert census.break_total == 3
        assert census.prosody_mean == 3.0
        assert census.word_total == 4
        assert census.char_total == len("un n1") + len("deux") + len("trois")

    def test_mean_over_segments(self):
        doc = parse_corpus(
            emit([("a", delta(break_ms=1))]) + "\n"
            + emit([("b", delta(break_ms=1)), ("c", delta(break_ms=1))])
        )
        census = tag_census([doc])
        assert census.segments == 2
        assert census.prosody_mean == pytest.approx(1.5)

    def test_counts_inside_opaque(self):
        doc = parse('<p><prosody pitch="+1.00%">mot</prosody><break time="3ms"/></p>')
        census = tag_census([doc])
        assert census.prosody_total == 1
        assert census.break_total == 1


class TestCorpusStats:
    def test_single_delta_degenerate(self):
        for value in (1.0, 2.0, 3.0, 100.0):
            summary = summarize([value])
            assert summary.minimum == summary.q1 == summary.median == summary.q3 == summary.maximum

    def test_break_quartiles_frozen(self):
        summary = summarize([250.0, 400.0, 500.0])
        assert summary.median == 400.0
        assert summary.q1 == 250.0
        assert summary.q3 == 500.0

    def test_constant_series_zero_width_histogram(self):
        summary = summarize([2.0, 2.0, 2.0])
        assert summary.bins == ((2.0, 2.0, 3),)

    def test_histogram_counts_sum(self):
        summary = summarize([float(i) for i in range(100)])
        assert [c for _, _, c in summary.bins] == [5] * HISTOGRAM_BINS

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


def _numpy_summary(values: list[float], n_bins: int = 20) -> DistributionSummary:
    """summarize as np.percentile, np.median and np.histogram compute it."""
    x = np.asarray(values, dtype=np.float64)
    lo, hi = float(x.min()), float(x.max())
    with np.errstate(all="ignore"):  # a range or a middle pair past the float range
        median = float(np.median(x))
        if lo == hi:
            bins = ((lo, hi, len(values)),)
        else:
            # np.histogram raises this itself from numpy 2; older numpy counts
            # into zero-width bins instead, so the reference checks first
            edges = np.linspace(lo, hi, n_bins + 1)
            if np.any(edges[:-1] >= edges[1:]):
                raise ValueError(f"Too many bins for data range. Cannot create {n_bins} "
                                 f"finite-sized bins.")
            counts, edges = np.histogram(x, bins=n_bins, range=(lo, hi))
            bins = tuple((float(edges[i]), float(edges[i + 1]), int(counts[i]))
                         for i in range(n_bins))
    q1, q3 = map(float, np.percentile(x, [25, 75], method="nearest"))
    return DistributionSummary(lo, q1, median, q3, hi, bins)


def _numbers(s: DistributionSummary) -> tuple:
    return s.minimum, s.q1, s.median, s.q3, s.maximum, s.bins


def _outcome(summary_of, values):
    """repr of the summary (exact for floats, -0.0 included), or the error."""
    try:
        return repr(_numbers(summary_of(values)))
    except ValueError as exc:
        return "ValueError", str(exc)


def _both_zeros(values) -> bool:
    return {math.copysign(1.0, v) for v in values if v == 0} == {1.0, -1.0}


def _edges(lo: float, hi: float, n_bins: int = 20) -> list[float]:
    step = (hi - lo) / n_bins
    return [i * step + lo for i in range(n_bins)] + [hi]


def _draw_distribution(rng: random.Random) -> list[float]:
    n = rng.choice([1, 2, 3, 4, 5, rng.randint(1, 40), rng.randint(1, 400)])
    kind = rng.randrange(7)
    if kind == 0:  # two-decimal percentages, as the delta records hold them
        return [round(rng.uniform(-30, 30), 2) for _ in range(n)]
    if kind == 1:  # whole-ms breaks with many ties
        return [float(rng.choice([0, 250, 400, 500, rng.randint(0, 3000)])) for _ in range(n)]
    if kind == 2:  # on the bin edges, one ulp either side of them, and at both ends
        lo, hi = sorted(0.0 + round(rng.uniform(-1e3, 1e3), rng.randint(0, 3)) for _ in range(2))
        if lo == hi:
            return [lo] * n
        near = [x for e in _edges(lo, hi)
                for x in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))
                if lo <= x <= hi]
        return [lo, hi] + [rng.choice(near) for _ in range(n)]
    if kind == 3:  # one signed zero among other values
        zero = rng.choice([0.0, -0.0])
        return [rng.choice([zero, zero, 1.0, -2.5, 0.25]) for _ in range(n)]
    if kind == 4:  # subnormal ranges, some too narrow for 20 bins
        return [5e-324 * rng.choice([0, 1, 7, 20, 41, rng.randint(0, 2**20)]) for _ in range(n)]
    if kind == 5:  # a few ulps wide
        base = rng.uniform(-1e6, 1e6)
        return [base + rng.randint(0, 45) * math.ulp(base) for _ in range(n)]
    return [rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300) for _ in range(n)]


class TestSummarizeMatchesNumpy:
    """summarize computes in pure Python the numbers that np.percentile
    (nearest), np.median and np.histogram gave it, bit for bit."""

    FIXED = [
        [3.5], [2.0, 1.0], [7.25] * 5,  # n = 1 and 2, all equal
        [4.0, 1.0, 3.0, 2.0], [5.0, 1.0, 4.0, 2.0, 3.0], [1.0] * 6 + [2.0] * 7,  # even, odd
        _edges(0.0, 1.0), _edges(-3.0, 0.7) + [0.7, 0.7], _edges(1e-3, 0.1)[::3],  # on the edges
        [-0.0], [-0.0, -0.0], [-0.0, 1.0], [-1.0, -0.0, -0.0],  # a zero's sign
        [0.0, 5e-324], [5e-324, 2 * 5e-324, 0.0], [0.0, 20 * 5e-324, 7 * 5e-324],  # subnormal
        [-1.7e308, 1.7e308], [1.7e308, 1.7e308], [1e308, 1.7e308],  # past the float range
    ]

    @pytest.mark.parametrize("values", FIXED, ids=range(len(FIXED)))
    def test_fixed_cases(self, values):
        assert _outcome(summarize, values) == _outcome(_numpy_summary, values)

    def test_bit_for_bit_on_seeded_distributions(self):
        rng = random.Random(1801)
        mismatches = []
        for _ in range(3000):
            values = _draw_distribution(rng)
            rng.shuffle(values)
            got, want = _outcome(summarize, values), _outcome(_numpy_summary, values)
            if _both_zeros(values):  # a rounded percentage can be -0.0; see below
                got, want = _numbers(summarize(values)), _numbers(_numpy_summary(values))
            if got != want:
                mismatches.append(values)
        assert mismatches == []

    def test_both_signed_zeros_compare_equal_in_input_order(self):
        # numpy picks either zero by its SIMD lanes and selection order
        rng = random.Random(1802)
        for _ in range(300):
            values = [rng.choice([0.0, -0.0, 0.0, 1.5, -2.0]) for _ in range(rng.randint(2, 60))]
            if not _both_zeros(values):
                continue
            got, want = summarize(values), _numpy_summary(values)
            assert _numbers(got) == _numbers(want)  # as numbers: 0.0 == -0.0
        first = summarize([0.0, -0.0, 0.0])
        assert math.copysign(1.0, first.minimum) == math.copysign(1.0, first.q1) == 1.0
        last = summarize([-0.0, 0.0, -0.0])
        assert math.copysign(1.0, last.maximum) == -1.0


class TestMetricsReport:
    def build(self, **kwargs):
        doc = doc_of([("a", delta(1.0, 0.0, 0.0, 100))])
        return MetricsReport(
            attribute_errors=attribute_errors(doc, doc),
            pred_census=tag_census([doc]),
            gold_census=tag_census([doc]),
            **kwargs,
        )

    def test_to_dict_minimal_schema(self):
        payload = self.build().to_dict()
        assert set(payload) == {"attribute_errors", "tag_census", "averaging"}
        assert payload["attribute_errors"]["pitch_pct"]["mae"] == 0.0
        assert payload["tag_census"]["pred"]["prosody_total"] == 1

    def test_optional_sections(self):
        report = self.build(
            break_precision=0.5, break_recall=1.0, break_f1_score=2 * 0.5 / 1.5,
            break_perplexity=1.2,
            arr_score=0.9,
        )
        payload = report.to_dict()
        assert payload["break_prediction"]["f1"] == pytest.approx(2 / 3)
        assert payload["arr"] == 0.9
        text = report.table()
        assert "break F1" in text and "ARR" in text

    def test_f1_consistency(self):
        p, r = 0.5, 1.0
        report = self.build(break_precision=p, break_recall=r,
                            break_f1_score=2 * p * r / (p + r))
        assert report.break_f1_score == pytest.approx(2 * p * r / (p + r))


class TestDocumentSyntagms:
    def test_break_attaches_to_preceding_prosody(self):
        doc = doc_of([("a", delta(1.0, 0.0, 0.0, 123))], azure_silence_wrap=True)
        (records,) = document_syntagms(doc)
        assert records[0].break_ms == 123

    def test_text_split_by_a_child_element(self):
        doc = parse('<prosody pitch="+1.00%">un <emphasis>deux <b/>trois</emphasis>'
                    ' quatre</prosody>')
        (records,) = document_syntagms(doc)
        assert records[0].text == "un deux trois quatre"

    def test_bare_text_not_scored(self):
        doc = parse("intro<prosody pitch='+1.00%'>mot</prosody>".replace("'", '"'))
        (records,) = document_syntagms(doc)
        assert len(records) == 1
        assert records[0].text == "mot"

    @staticmethod
    def records(line):
        (records,) = document_syntagms(parse(line))
        return [(r.text, r.pitch_pct, r.break_ms) for r in records]

    def test_break_after_bare_text_goes_to_preceding_prosody(self):
        line = ('<prosody pitch="+1.00%">a</prosody> entre <break time="50ms"/>'
                '<prosody pitch="-2.00%">b</prosody>')
        assert self.records(line) == [("a", 1.0, 50), ("b", -2.0, None)]

    def test_second_break_is_ignored(self):
        line = ('<prosody pitch="+1.00%">a</prosody><break time="50ms"/>'
                '<break time="70ms"/><prosody>b</prosody><break time="9ms"/>'
                '<break time="8ms"/>')
        assert self.records(line) == [("a", 1.0, 50), ("b", 0.0, 9)]

    def test_break_before_any_prosody_is_dropped(self):
        line = '<break time="40ms"/>intro<prosody rate="+3.00%">a</prosody>'
        assert self.records(line) == [("a", 0.0, None)]

    def test_silence_directives_change_nothing(self):
        plain = ('<prosody pitch="+1.00%">a</prosody><break time="50ms"/>'
                 '<prosody>b</prosody>')
        wrapped = ('<mstts:silence type="leading-exact" value="0ms"/>'
                   '<prosody pitch="+1.00%">a</prosody>'
                   '<mstts:silence type="trailing-exact" value="0ms"/>'
                   '<break time="50ms"/>'
                   '<mstts:silence type="leading-exact" value="0ms"/>'
                   '<prosody>b</prosody>'
                   '<mstts:silence type="trailing-exact" value="0ms"/>')
        (nodes,) = parse(wrapped).segments
        assert sum(isinstance(n, SilenceDirective) for n in nodes) == 4
        assert document_syntagms(parse(wrapped)) == document_syntagms(parse(plain))
        assert self.records(plain) == [("a", 1.0, 50), ("b", 0.0, None)]
