"""Evaluation metric suite: break F1, perplexity, ARR, per-attribute
MAE/RMSE between aligned SSML documents, the tag census, and corpus-level
distribution summaries.

All metrics are pure folds over their inputs; floats are summed in a fixed
order, not by sum(), which compensates them from Python 3.12.

Embedding-based similarity between predicted and gold markup is deliberately
not provided (it needs an external sentence-embedding model); compute it
externally over the texts from document_syntagms() and report it alongside
MetricsReport.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import add, sub

from .prosody import PairingError
from .ssml import (
    BreakElement,
    OpaqueElement,
    ProsodyElement,
    SsmlDocument,
    TextNode,
)

INFINITE_PERPLEXITY = float("inf")

ARR_TAU_MS = 50.0
ARR_WINDOW_S = 15.0
HISTOGRAM_BINS = 20


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


def arr(
    pred_starts_ms: list[float],
    gold_starts_ms: list[float],
    tau_ms: float = ARR_TAU_MS,
    window_s: float = ARR_WINDOW_S,
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
    return reduce(add, ratios, 0.0) / len(ratios)


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


def _syntagm_record(node: ProsodyElement, break_ms: int | None) -> SyntagmRecord:
    children = node.children
    # the common case, a lone run of text, skips the walk
    alone = len(children) == 1 and type(children[0]) is TextNode
    return SyntagmRecord(
        text=" ".join((children[0].content if alone else _node_text(children)).split()),
        pitch_pct=node.pitch_pct or 0.0,
        rate_pct=node.rate_pct or 0.0,
        volume_pct=node.volume_pct or 0.0,
        break_ms=break_ms,
    )


def document_syntagms(doc: SsmlDocument) -> list[list[SyntagmRecord]]:
    """Per-segment syntagm records: prosody elements in order, each with the
    first break between it and the next prosody element (silence directives
    and bare text skipped). Missing prosody attributes read as 0 (neutral)."""
    out = []
    for seg in doc.segments:
        records: list[SyntagmRecord] = []
        held = None  # the last prosody element, recorded once its break is known
        break_ms = None
        for node in seg:
            if isinstance(node, ProsodyElement):
                if held is not None:
                    records.append(_syntagm_record(held, break_ms))
                held, break_ms = node, None
            elif isinstance(node, BreakElement) and held is not None and break_ms is None:
                break_ms = node.time_ms
        if held is not None:
            records.append(_syntagm_record(held, break_ms))
        out.append(records)
    return out


def _pairwise_sum(values: list[float]) -> float:
    """Sum of ``values`` in numpy's pairwise order for float64, so that a mean
    has np.mean's bits: a plain loop below 8 items, 8 strided accumulators up
    to 128, else halves split at a multiple of 8."""
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        m = n - n % 8
        r = [reduce(add, values[j:m:8]) for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[m:], head)
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _error_stats(diffs: list[float]) -> ErrorStats:
    """MAE and RMSE of ``diffs``, bit for bit as np.mean would give them."""
    n = len(diffs)
    if not n:
        return ErrorStats(0.0, 0.0, 0)
    return ErrorStats(
        mae=_pairwise_sum([abs(d) for d in diffs]) / n,
        rmse=math.sqrt(_pairwise_sum([d * d for d in diffs]) / n),
        count=n,
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
    # one (pitch, volume, rate, break) difference tuple per syntagm, per segment
    per_segment: list[list[tuple[float, float, float, float]]] = []
    for si, (ps, gs) in enumerate(zip(pred_segs, gold_segs)):
        if len(ps) != len(gs):
            raise PairingError(
                f"segment {si}: syntagm counts differ: {len(ps)} vs {len(gs)}"
            )
        diffs = []
        for qi, (p, g) in enumerate(zip(ps, gs)):
            if p.text != g.text:
                raise PairingError(
                    f"segment {si}, syntagm {qi}: text diverges: {p.text!r} vs {g.text!r}"
                )
            diffs.append((p.pitch_pct - g.pitch_pct, p.volume_pct - g.volume_pct,
                          p.rate_pct - g.rate_pct,
                          float((p.break_ms or 0) - (g.break_ms or 0))))
        per_segment.append(diffs)

    out: dict[str, ErrorStats] = {}
    for i, key in enumerate(("pitch_pct", "volume_pct", "rate_pct", "break_ms")):
        if macro:
            stats = [_error_stats([d[i] for d in seg]) for seg in per_segment if seg]
            n = len(stats) or 1  # no syntagm anywhere: 0.0 errors over 0, as micro gives
            out[key] = ErrorStats(mae=reduce(add, (s.mae for s in stats), 0.0) / n,
                                  rmse=reduce(add, (s.rmse for s in stats), 0.0) / n,
                                  count=sum(s.count for s in stats))
        else:
            out[key] = _error_stats([d[i] for seg in per_segment for d in seg])
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
        kind = type(node)  # node classes are never subclassed
        if kind is ProsodyElement:
            counts["prosody"] += 1
            _count_tags(node.children, counts)
        elif kind is BreakElement:
            counts["break"] += 1
        elif kind is TextNode:
            counts["words"] += len(node.content.split())
            counts["chars"] += len(node.content)
        elif kind is OpaqueElement:
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
        if self.arr_score is not None:
            payload["arr"] = self.arr_score
        return payload

    def table(self, tau_ms: float = ARR_TAU_MS, window_s: float = ARR_WINDOW_S) -> str:
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


def summarize(values: list[float]) -> DistributionSummary:
    """Five-number summary plus histogram, with numpy's numbers and no numpy.

    The quartiles are ``np.percentile(method="nearest")``: the value at index
    ``round((n - 1) * q)``, ties to even. The median is ``np.median``: the
    middle value, or the mean of the two middle values for even counts,
    summed from 0.0 as numpy sums (so a -0.0 median reads 0.0). The
    HISTOGRAM_BINS bins are ``np.histogram``'s over [min, max]: ``linspace``
    edges, a ValueError when they are not strictly increasing, and
    ``edges[i] <= v < edges[i + 1]`` with the last bin closed. Where the
    values hold both signed zeros, numpy picks either zero by its SIMD lanes
    and selection order; this takes them in input order (a stable sort), so
    only such a zero's sign may differ."""
    if not values:
        raise ValueError("cannot summarize an empty distribution")
    s = sorted(map(float, values))
    n = len(s)
    lo, hi = s[0], s[-1]
    mid = (n - 1) // 2
    median = 0.0 + s[mid] if n % 2 else (0.0 + s[mid] + s[mid + 1]) / 2
    if lo == hi:
        bins = ((lo, hi, n),)
    else:
        step = (hi - lo) / HISTOGRAM_BINS
        edges = [i * step + lo for i in range(HISTOGRAM_BINS)] + [hi]
        if not all(a < b for a, b in zip(edges, edges[1:])):
            raise ValueError(f"Too many bins for data range. Cannot create {HISTOGRAM_BINS} "
                             f"finite-sized bins.")
        # values below each edge; the last bin also holds the maximum
        below = [bisect_left(s, e) for e in edges[:-1]] + [n]
        bins = tuple(zip(edges, edges[1:], map(sub, below[1:], below)))
    return DistributionSummary(
        minimum=lo,
        q1=s[round((n - 1) * 0.25)],
        median=median,
        q3=s[round((n - 1) * 0.75)],
        maximum=hi,
        bins=bins,
    )


def histogram_csv(summaries: dict[str, DistributionSummary]) -> str:
    """Comma-separated histogram rows for external plotting."""
    lines = ["attribute,bin_lo,bin_hi,count"]
    for name, summary in summaries.items():
        for lo, hi, count in summary.bins:
            lines.append(f"{name},{lo:.6g},{hi:.6g},{count}")
    return "\n".join(lines) + "\n"
