"""Span tracing from outside the program.

``Tracer.install`` replaces public functions of prosodika's modules with
wrappers that record a span (name, start, end, parent) per call; the
program's code is not modified. Spans stay in memory. A process-pool worker
inherits the wrappers through fork and writes its spans to a file when the
pair it annotated is done, since the pool gives the benchmark no other way
to reach the worker's memory.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

from prosodika import cli, metrics, pipeline, ssml
from prosodika.syntagms import FunctionWordLexicon


def _frames(args, result):
    return len(result.frames)


def _text_bytes(args, result):
    return len(args[0].encode("utf-8"))


# (owner, attribute, span name, count from (args, result)). Each owner is the
# namespace the caller looks the name up in, so the wrapper is what runs.
TARGETS = [
    (cli, "_annotate_one", "cli.annotate_one", None),
    (FunctionWordLexicon, "default", "syntagms.lexicon_load", None),
    (pipeline, "annotate_pair", "pipeline.annotate_pair", None),
    (pipeline, "load_wav", "audio.load_wav", None),
    (pipeline, "resample_to_16k", "audio.resample_to_16k", None),
    (pipeline, "peak_normalize", "audio.peak_normalize", None),
    (pipeline, "detect_speech_segments", "audio.detect_speech_segments", None),
    (pipeline, "syntagms_from_textgrid", "syntagms.segment", None),
    (pipeline, "read_textgrid", "textgrid.read_textgrid", None),
    (pipeline, "estimate_f0_track", "pitch.estimate_f0_track", _frames),
    (pipeline, "measure_features", "pipeline.measure_features", None),
    (pipeline, "median_f0", "pitch.median_f0", None),
    (pipeline, "integrated_loudness", "loudness.integrated_loudness", None),
    (pipeline, "annotate_corpus", "prosody.annotate_corpus", None),
    (pipeline, "assign_segments", "pipeline.assign_segments", None),
    (pipeline, "emit", "ssml.emit", None),
    (pipeline, "write_pair_result", "pipeline.write_pair_result", None),
    (ssml, "parse_corpus", "ssml.parse_corpus", _text_bytes),
    (metrics, "attribute_errors", "metrics.attribute_errors", None),
    (metrics, "tag_census", "metrics.tag_census", None),
    (metrics, "break_f1", "metrics.break_f1", None),
    (metrics, "perplexity", "metrics.perplexity", None),
    (metrics, "arr", "metrics.arr", None),
]


class Tracer:
    def __init__(self, spill_dir: Path):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, count)
        self.stack: list[str] = []
        self.seq = 0
        self.pid = os.getpid()
        self.owner_pid = self.pid
        self.spill_dir = spill_dir
        self.saved: list[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # the parent keeps its own spans; the stack stays so that a worker's
        # first span names the parent-process span it ran under
        self.spans = []
        self.pid = os.getpid()
        self.seq = 0

    def _next_id(self) -> str:
        self.seq += 1
        return f"{self.pid}:{self.seq}"

    def span(self, name: str, fn, *args, count=None, spill: bool = False, **kwargs):
        sid = self._next_id()
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            n = count(args, result) if count is not None and result is not None else None
            self.spans.append((sid, parent, name, start, end, n))
            if spill and self.pid != self.owner_pid:
                self._spill()

    def _spill(self):
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"{self.pid}-{self.seq}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")
        self.spans = []

    def wrap(self, name: str, fn, count=None, spill: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, count=count, spill=spill, **kwargs)

        return traced

    def install(self):
        for owner, attr, name, count in TARGETS:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self.saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, count))
            else:
                wrapped = self.wrap(name, raw, count, spill=attr == "_annotate_one")
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        self.saved = []

    def collect(self) -> list[tuple]:
        """Own spans plus every span the pool workers spilled."""
        spans = list(self.spans)
        if self.spill_dir.is_dir():
            for path in sorted(self.spill_dir.glob("*.json")):
                spans.extend(tuple(s) for s in json.loads(path.read_text(encoding="utf-8")))
        return spans

