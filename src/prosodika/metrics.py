"""Evaluation metric suite: break F1, perplexity, WER, ARR, per-attribute
MAE/RMSE between aligned SSML documents, the tag census, and corpus-level
distribution summaries.

All metrics are pure folds over their inputs; corpus aggregation uses plain
sums so segments can be scored concurrently and merged.

Embedding-based similarity between predicted and gold markup is deliberately
not provided (it needs an external sentence-embedding model); compute it
externally over the texts from document_syntagms() and report it alongside
MetricsReport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .prosody import PairingError, ProsodyDelta
from .ssml import (
    BreakElement,
    OpaqueElement,
    ProsodyElement,
    SsmlDocument,
    TextNode,
)

INFINITE_PERPLEXITY = float("inf")


@dataclass(frozen=True)
class BreakPrediction:
    """Break positions over a word sequence: a break follows word i when
    i is in positions. Optional per-word probabilities of 'break follows'."""

    word_count: int
    positions: frozenset[int]
    probabilities: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.word_count < 0:
            raise ValueError("word_count must be >= 0")
        if any(not (0 <= p < self.word_count) for p in self.positions):
            raise ValueError("break positions must lie in [0, word_count)")
        if self.probabilities is not None:
            if len(self.probabilities) != self.word_count:
                raise ValueError("need one probability per word")
            if any(not (0.0 <= p <= 1.0) for p in self.probabilities):
                raise ValueError("probabilities must lie in [0, 1]")


def break_f1(pred: BreakPrediction, gold: BreakPrediction) -> tuple[float, float, float]:
    """Position-set precision, recall and F1. Empty vs empty scores 1.0;
    other zero denominators score 0."""
    if pred.word_count != gold.word_count:
        raise PairingError(
            f"word counts differ: {pred.word_count} vs {gold.word_count}"
        )
    if not pred.positions and not gold.positions:
        return (1.0, 1.0, 1.0)
    tp = len(pred.positions & gold.positions)
    precision = tp / len(pred.positions) if pred.positions else 0.0
    recall = tp / len(gold.positions) if gold.positions else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return (precision, recall, f1)


def true_label_probabilities(pred: BreakPrediction, gold: BreakPrediction) -> list[float]:
    """Per-word probability the predictor assigned to the gold label."""
    if pred.probabilities is None:
        raise ValueError("prediction carries no probabilities")
    if pred.word_count != gold.word_count:
        raise PairingError(
            f"word counts differ: {pred.word_count} vs {gold.word_count}"
        )
    return [
        p if i in gold.positions else 1.0 - p
        for i, p in enumerate(pred.probabilities)
    ]


def perplexity(probabilities_of_true_labels: list[float]) -> float:
    """exp of the mean negative log probability; inf when any probability
    is zero."""
    if not probabilities_of_true_labels:
        raise ValueError("need at least one probability")
    total = 0.0
    for p in probabilities_of_true_labels:
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"probability {p} outside [0, 1]")
        if p == 0.0:
            return INFINITE_PERPLEXITY
        total += -math.log(p)
    return math.exp(total / len(probabilities_of_true_labels))


@dataclass(frozen=True)
class WerResult:
    wer: float
    substitutions: int
    deletions: int
    insertions: int


def wer(reference: list[str], hypothesis: list[str]) -> WerResult:
    """Word error rate (S + D + I) / N by minimal edit distance, unit costs.

    Ties prefer substitution over a delete + insert pair (diagonal first,
    then deletion, then insertion on backtrace).
    """
    if not reference:
        raise ValueError("reference must be non-empty")
    n, w = len(reference), len(hypothesis) + 1
    # row-major (n + 1) x w distance table in one flat list: dist[i * w + j]
    dist = list(range(w))
    for i, ref_word in enumerate(reference, 1):
        k = (i - 1) * w  # the previous row's cell j - 1
        left = i
        dist.append(left)
        for hyp_word in hypothesis:
            best = dist[k] + (ref_word != hyp_word)
            up = dist[k + 1] + 1
            if up < best:
                best = up
            if left + 1 < best:
                best = left + 1
            dist.append(best)
            left = best
            k += 1
    s = d = ins = 0
    i, j = n, w - 1
    while i > 0 or j > 0:
        here = dist[i * w + j]
        if i > 0 and j > 0:
            miss = reference[i - 1] != hypothesis[j - 1]
            if here == dist[(i - 1) * w + j - 1] + miss:
                s += miss
                i, j = i - 1, j - 1
                continue
        if i > 0 and here == dist[(i - 1) * w + j] + 1:
            d += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return WerResult((s + d + ins) / n, s, d, ins)


def arr(
    pred_starts_ms: list[float],
    gold_starts_ms: list[float],
    tau_ms: float = 50.0,
    window_s: float = 15.0,
) -> float:
    """Alignment recall rate: fraction of words whose predicted start is
    within tau of gold, macro-averaged over fixed windows of ``window_s``
    anchored at t = 0 of the gold stream. Windows with no words are skipped."""
    if len(pred_starts_ms) != len(gold_starts_ms):
        raise PairingError(
            f"list lengths differ: {len(pred_starts_ms)} vs {len(gold_starts_ms)}"
        )
    if not gold_starts_ms:
        raise ValueError("need at least one word")
    if not (0.0 < window_s < math.inf):
        raise ValueError(f"window_s must be positive and finite, got {window_s}")
    if not (0.0 <= tau_ms < math.inf):
        raise ValueError(f"tau_ms must be zero or more and finite, got {tau_ms}")
    window_ms = window_s * 1000.0
    hits: dict[int, list[bool]] = {}
    for p, g in zip(pred_starts_ms, gold_starts_ms):
        hits.setdefault(int(g // window_ms), []).append(abs(p - g) <= tau_ms)
    ratios = [sum(h) / len(h) for _, h in sorted(hits.items())]
    return sum(ratios) / len(ratios)


@dataclass(frozen=True)
class ErrorStats:
    mae: float
    rmse: float
    count: int


@dataclass(frozen=True)
class SyntagmRecord:
    """One prosody element and its trailing break, flattened for scoring."""

    text: str
    pitch_pct: float
    rate_pct: float
    volume_pct: float
    break_ms: int | None


def _node_text(nodes: tuple) -> str:
    parts = []
    for node in nodes:
        if isinstance(node, TextNode):
            parts.append(node.content)
        elif isinstance(node, (ProsodyElement, OpaqueElement)):
            parts.append(_node_text(node.children))
    return " ".join(p for p in parts if p)


def document_syntagms(doc: SsmlDocument) -> list[list[SyntagmRecord]]:
    """Per-segment syntagm records: prosody elements in order, each with the
    break that follows it (silence directives and bare text skipped). Missing
    prosody attributes read as 0 (neutral)."""
    out = []
    for seg in doc.segments:
        records: list[SyntagmRecord] = []
        for node in seg:
            if isinstance(node, ProsodyElement):
                text = _node_text(node.children)
                records.append(
                    SyntagmRecord(
                        text=" ".join(text.split()),
                        pitch_pct=node.pitch_pct or 0.0,
                        rate_pct=node.rate_pct or 0.0,
                        volume_pct=node.volume_pct or 0.0,
                        break_ms=None,
                    )
                )
            elif isinstance(node, BreakElement) and records and records[-1].break_ms is None:
                records[-1] = SyntagmRecord(
                    records[-1].text,
                    records[-1].pitch_pct,
                    records[-1].rate_pct,
                    records[-1].volume_pct,
                    node.time_ms,
                )
        out.append(records)
    return out


def _error_stats(diffs: list[float]) -> ErrorStats:
    if not diffs:
        return ErrorStats(0.0, 0.0, 0)
    arr_ = np.asarray(diffs, dtype=np.float64)
    return ErrorStats(
        mae=float(np.mean(np.abs(arr_))),
        rmse=float(np.sqrt(np.mean(arr_ * arr_))),
        count=len(diffs),
    )


def attribute_errors(
    pred: SsmlDocument, gold: SsmlDocument, macro: bool = False
) -> dict[str, ErrorStats]:
    """MAE/RMSE per attribute over syntagm-aligned documents.

    Alignment requires the same segment count and, per position, the same
    whitespace-normalized text; the first divergence raises PairingError.
    Breaks missing on one side are scored as 0 ms. With ``macro`` the errors
    are averaged per segment first, then across segments.
    """
    pred_segs = document_syntagms(pred)
    gold_segs = document_syntagms(gold)
    if len(pred_segs) != len(gold_segs):
        raise PairingError(
            f"segment counts differ: {len(pred_segs)} vs {len(gold_segs)}"
        )
    per_attr: dict[str, list[list[float]]] = {
        "pitch_pct": [],
        "volume_pct": [],
        "rate_pct": [],
        "break_ms": [],
    }
    for si, (ps, gs) in enumerate(zip(pred_segs, gold_segs)):
        if len(ps) != len(gs):
            raise PairingError(
                f"segment {si}: syntagm counts differ: {len(ps)} vs {len(gs)}"
            )
        seg_diffs = {key: [] for key in per_attr}
        for qi, (p, g) in enumerate(zip(ps, gs)):
            if p.text != g.text:
                raise PairingError(
                    f"segment {si}, syntagm {qi}: text diverges: {p.text!r} vs {g.text!r}"
                )
            seg_diffs["pitch_pct"].append(p.pitch_pct - g.pitch_pct)
            seg_diffs["volume_pct"].append(p.volume_pct - g.volume_pct)
            seg_diffs["rate_pct"].append(p.rate_pct - g.rate_pct)
            seg_diffs["break_ms"].append(float((p.break_ms or 0) - (g.break_ms or 0)))
        for key in per_attr:
            per_attr[key].append(seg_diffs[key])

    out: dict[str, ErrorStats] = {}
    for key, per_segment in per_attr.items():
        if macro:
            stats = [_error_stats(seg) for seg in per_segment if seg]
            if not stats:
                out[key] = ErrorStats(0.0, 0.0, 0)
            else:
                out[key] = ErrorStats(
                    mae=sum(s.mae for s in stats) / len(stats),
                    rmse=sum(s.rmse for s in stats) / len(stats),
                    count=sum(s.count for s in stats),
                )
        else:
            out[key] = _error_stats([d for seg in per_segment for d in seg])
    return out


@dataclass(frozen=True)
class TagCensus:
    segments: int
    prosody_total: int
    break_total: int
    prosody_mean: float
    break_mean: float
    word_total: int
    char_total: int


def _count_tags(nodes: tuple, counts: dict):
    for node in nodes:
        if isinstance(node, ProsodyElement):
            counts["prosody"] += 1
            _count_tags(node.children, counts)
        elif isinstance(node, BreakElement):
            counts["break"] += 1
        elif isinstance(node, TextNode):
            counts["words"] += len(node.content.split())
            counts["chars"] += len(node.content)
        elif isinstance(node, OpaqueElement):
            _count_tags(node.children, counts)


def tag_census(docs: list[SsmlDocument]) -> TagCensus:
    """Per-segment mean and total counts of prosody and break tags, plus
    word/character totals of the text content."""
    counts = {"prosody": 0, "break": 0, "words": 0, "chars": 0}
    n_segments = 0
    for doc in docs:
        for seg in doc.segments:
            n_segments += 1
            _count_tags(seg, counts)
    return TagCensus(
        segments=n_segments,
        prosody_total=counts["prosody"],
        break_total=counts["break"],
        prosody_mean=counts["prosody"] / n_segments if n_segments else 0.0,
        break_mean=counts["break"] / n_segments if n_segments else 0.0,
        word_total=counts["words"],
        char_total=counts["chars"],
    )


@dataclass(frozen=True)
class MetricsReport:
    """Bundle of everything one scoring run produced. Optional sections stay
    None when their inputs were not supplied."""

    attribute_errors: dict[str, ErrorStats]
    pred_census: TagCensus
    gold_census: TagCensus
    averaging: str = "micro"
    break_precision: float | None = None
    break_recall: float | None = None
    break_f1_score: float | None = None
    break_perplexity: float | None = None
    wer_result: WerResult | None = None
    arr_score: float | None = None

    def to_dict(self) -> dict:
        payload: dict = {
            "attribute_errors": {
                k: {"mae": v.mae, "rmse": v.rmse, "count": v.count}
                for k, v in self.attribute_errors.items()
            },
            "tag_census": {
                "pred": self.pred_census.__dict__,
                "gold": self.gold_census.__dict__,
            },
            "averaging": self.averaging,
        }
        if self.break_f1_score is not None:
            payload["break_prediction"] = {
                "precision": self.break_precision,
                "recall": self.break_recall,
                "f1": self.break_f1_score,
            }
            if self.break_perplexity is not None:
                payload["break_prediction"]["perplexity"] = self.break_perplexity
        if self.wer_result is not None:
            payload["wer"] = {
                "wer": self.wer_result.wer,
                "substitutions": self.wer_result.substitutions,
                "deletions": self.wer_result.deletions,
                "insertions": self.wer_result.insertions,
            }
        if self.arr_score is not None:
            payload["arr"] = self.arr_score
        return payload

    def table(self, tau_ms: float = 50.0, window_s: float = 15.0) -> str:
        unit = {"pitch_pct": "%", "volume_pct": "%", "rate_pct": "%", "break_ms": "ms"}
        lines = [f"{'attribute':<12} {'MAE':>10} {'RMSE':>10}  n"]
        for key, stats in self.attribute_errors.items():
            lines.append(
                f"{key:<12} {stats.mae:>9.3f}{unit[key]:<2} "
                f"{stats.rmse:>9.3f}{unit[key]:<2} {stats.count}"
            )
        lines.append(
            f"tags/segment: prosody {self.pred_census.prosody_mean:.2f} vs "
            f"{self.gold_census.prosody_mean:.2f} (gold), break "
            f"{self.pred_census.break_mean:.2f} vs {self.gold_census.break_mean:.2f} (gold)"
        )
        if self.break_f1_score is not None:
            line = (
                f"break F1: {self.break_f1_score:.4f} (precision "
                f"{self.break_precision:.4f}, recall {self.break_recall:.4f})"
            )
            if self.break_perplexity is not None:
                line += f", perplexity {self.break_perplexity:.4f}"
            lines.append(line)
        if self.wer_result is not None:
            lines.append(
                f"WER: {self.wer_result.wer:.4f} (S={self.wer_result.substitutions}, "
                f"D={self.wer_result.deletions}, I={self.wer_result.insertions})"
            )
        if self.arr_score is not None:
            lines.append(
                f"ARR (tau {tau_ms:g} ms, {window_s:g} s windows): {self.arr_score:.4f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class DistributionSummary:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    bins: tuple[tuple[float, float, int], ...]

    def to_dict(self) -> dict:
        return {
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.maximum,
            "bins": [list(b) for b in self.bins],
        }


def summarize(values: list[float], n_bins: int = 20) -> DistributionSummary:
    """Five-number summary plus histogram. Quartiles use the nearest-rank
    method; the median uses midpoint interpolation for even counts."""
    if not values:
        raise ValueError("cannot summarize an empty distribution")
    arr_ = np.asarray(values, dtype=np.float64)
    lo, hi = float(arr_.min()), float(arr_.max())
    if lo == hi:
        bins = ((lo, hi, len(values)),)
    else:
        counts, edges = np.histogram(arr_, bins=n_bins, range=(lo, hi))
        bins = tuple(
            (float(edges[i]), float(edges[i + 1]), int(counts[i]))
            for i in range(len(counts))
        )
    return DistributionSummary(
        minimum=lo,
        q1=float(np.percentile(arr_, 25, method="nearest")),
        median=float(np.median(arr_)),
        q3=float(np.percentile(arr_, 75, method="nearest")),
        maximum=hi,
        bins=bins,
    )


def corpus_stats(deltas: list[ProsodyDelta], n_bins: int = 20) -> dict[str, DistributionSummary]:
    """Distribution summaries for the four delta attributes."""
    if not deltas:
        raise ValueError("cannot summarize an empty corpus")
    return {
        "pitch_pct": summarize([d.pitch_pct for d in deltas], n_bins),
        "rate_pct": summarize([d.rate_pct for d in deltas], n_bins),
        "volume_pct": summarize([d.volume_pct for d in deltas], n_bins),
        "break_ms": summarize([float(d.break_ms) for d in deltas], n_bins),
    }


def histogram_csv(summaries: dict[str, DistributionSummary]) -> str:
    """Comma-separated histogram rows for external plotting."""
    lines = ["attribute,bin_lo,bin_hi,count"]
    for name, summary in summaries.items():
        for lo, hi, count in summary.bins:
            lines.append(f"{name},{lo:.6g},{hi:.6g},{count}")
    return "\n".join(lines) + "\n"
