"""prosodika: corpus-to-SSML prosody annotation and evaluation toolkit.

Converts aligned natural speech plus a baseline synthetic rendering into
per-syntagm prosodic deltas (pitch, rate, volume, break duration) and valid
SSML markup, and scores predicted SSML against gold.

The names below, and the submodules that define them, load on first use
(PEP 562), so that importing the package, or a text-only submodule, does not
load numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# public names, by the submodule that defines them
_EXPORTS = {
    "audio": ("AudioBuffer", "AudioError", "SegmentBounds", "UnreadableFileError",
              "UnsupportedFormatError", "UnsupportedRateError", "detect_speech_segments",
              "load_wav", "peak_normalize", "resample_to_16k"),
    "loudness": ("integrated_loudness",),
    "metrics": ("BreakPrediction", "ErrorStats", "MetricsReport", "TagCensus", "arr",
                "attribute_errors", "break_f1", "perplexity", "tag_census"),
    "pitch": ("F0Track", "estimate_f0_track", "median_f0"),
    "prosody": ("PairingError", "PipelineConfig", "ProsodyDelta", "SyntagmFeatures",
                "annotate_corpus", "pitch_delta", "rate_delta", "rolling_baseline",
                "smooth_series", "volume_delta"),
    "ssml": ("BreakElement", "EmitOptions", "OpaqueElement", "ProsodyElement",
             "SilenceDirective", "SsmlDocument", "SsmlParseError", "SsmlValidationError",
             "TextNode", "Violation", "emit", "parse", "parse_corpus", "validate"),
    "syntagms": ("FunctionWordLexicon", "Syntagm", "Token", "filter_function_word_pauses",
                 "segment_syntagms", "tokens_from_tier"),
    "textgrid": ("TextGridParseError", "TextGridTier", "parse_textgrid", "read_textgrid"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as when the package imported them all
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
