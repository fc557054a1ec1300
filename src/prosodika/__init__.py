"""prosodika: corpus-to-SSML prosody annotation and evaluation toolkit.

Converts aligned natural speech plus a baseline synthetic rendering into
per-syntagm prosodic deltas (pitch, rate, volume, break duration) and valid
SSML markup, and scores predicted SSML against gold.
"""

from .audio import (
    AudioBuffer,
    AudioError,
    SegmentBounds,
    UnreadableFileError,
    UnsupportedFormatError,
    UnsupportedRateError,
    detect_speech_segments,
    load_wav,
    peak_normalize,
    resample_to_16k,
)
from .loudness import SILENCE, SegmentTooShortError, integrated_loudness
from .metrics import (
    BreakPrediction,
    ErrorStats,
    MetricsReport,
    TagCensus,
    arr,
    attribute_errors,
    break_f1,
    perplexity,
    tag_census,
)
from .pitch import F0Track, estimate_f0_track, median_f0
from .prosody import (
    PairingError,
    PipelineConfig,
    ProsodyDelta,
    SyntagmFeatures,
    annotate_corpus,
    pitch_delta,
    rate_delta,
    rolling_baseline,
    smooth_series,
    volume_delta,
)
from .ssml import (
    BreakElement,
    EmitOptions,
    OpaqueElement,
    ProsodyElement,
    SilenceDirective,
    SsmlDocument,
    SsmlParseError,
    SsmlValidationError,
    TextNode,
    Violation,
    emit,
    parse,
    parse_corpus,
    validate,
)
from .syntagms import (
    FunctionWordLexicon,
    Syntagm,
    Token,
    filter_function_word_pauses,
    segment_syntagms,
    tokens_from_tier,
)
from .textgrid import TextGridParseError, TextGridTier, parse_textgrid, read_textgrid

__version__ = "0.1.0"
