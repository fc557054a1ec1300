import itertools
import math
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import prosodika
from prosodika.metrics import (
    BreakPrediction,
    MetricsReport,
    PairingError,
    WerResult,
    arr,
    attribute_errors,
    break_f1,
    corpus_stats,
    document_syntagms,
    perplexity,
    summarize,
    tag_census,
    true_label_probabilities,
    wer,
)
from prosodika.prosody import ProsodyDelta
from prosodika.ssml import EmitOptions, emit, parse, parse_corpus


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


@lru_cache(maxsize=None)
def _lev(a: tuple, b: tuple) -> int:
    # textbook recurrence, memoized: the brute-force oracle
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        _lev(a[1:], b[1:]) + (a[0] != b[0]),
        _lev(a[1:], b) + 1,
        _lev(a, b[1:]) + 1,
    )


class TestWer:
    def test_identity(self):
        res = wer(["le", "chat", "dort"], ["le", "chat", "dort"])
        assert (res.wer, res.substitutions, res.deletions, res.insertions) == (0, 0, 0, 0)

    def test_single_substitution(self):
        res = wer(["le", "chat", "dort"], ["le", "chien", "dort"])
        assert res.wer == pytest.approx(1 / 3)
        assert (res.substitutions, res.deletions, res.insertions) == (1, 0, 0)

    def test_all_deletions(self):
        res = wer(["le", "chat", "dort"], [])
        assert res.wer == 1.0
        assert (res.substitutions, res.deletions, res.insertions) == (0, 3, 0)

    def test_insertions(self):
        res = wer(["chat"], ["le", "chat", "gris"])
        assert (res.substitutions, res.deletions, res.insertions) == (0, 0, 2)
        assert res.wer == 2.0

    def test_substitution_preferred_on_ties(self):
        res = wer(["a"], ["b"])
        assert (res.substitutions, res.deletions, res.insertions) == (1, 0, 0)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            wer([], ["a"])

    def test_matches_oracle_small_exhaustive(self):
        vocab = ("a", "b", "c")
        seqs = [
            s
            for n in range(0, 5)
            for s in itertools.product(vocab, repeat=n)
        ]
        for ref in seqs:
            if not ref:
                continue
            for hyp in seqs:
                res = wer(list(ref), list(hyp))
                dist = _lev(ref, hyp)
                assert res.substitutions + res.deletions + res.insertions == dist
                assert res.wer == pytest.approx(dist / len(ref))


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
        stats = corpus_stats([delta(1.0, 2.0, 3.0, 100)])
        for summary in stats.values():
            assert summary.minimum == summary.q1 == summary.median == summary.q3 == summary.maximum

    def test_break_quartiles_frozen(self):
        deltas = [delta(break_ms=250), delta(break_ms=400), delta(break_ms=500)]
        summary = corpus_stats(deltas)["break_ms"]
        assert summary.median == 400.0
        assert summary.q1 == 250.0
        assert summary.q3 == 500.0

    def test_constant_series_zero_width_histogram(self):
        summary = summarize([2.0, 2.0, 2.0])
        assert summary.bins == ((2.0, 2.0, 3),)

    def test_histogram_counts_sum(self):
        summary = summarize([float(i) for i in range(100)], n_bins=10)
        assert sum(c for _, _, c in summary.bins) == 100

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats([])


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
            wer_result=WerResult(0.25, 1, 0, 0),
            arr_score=0.9,
        )
        payload = report.to_dict()
        assert payload["break_prediction"]["f1"] == pytest.approx(2 / 3)
        assert payload["wer"]["substitutions"] == 1
        assert payload["arr"] == 0.9
        text = report.table()
        assert "break F1" in text and "WER" in text and "ARR" in text

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

    def test_bare_text_not_scored(self):
        doc = parse("intro<prosody pitch='+1.00%'>mot</prosody>".replace("'", '"'))
        (records,) = document_syntagms(doc)
        assert len(records) == 1
        assert records[0].text == "mot"
