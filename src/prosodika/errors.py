"""Audio error types, kept apart from numpy so that the CLI can map them to
exit codes without loading it. ``prosodika.audio`` re-exports them."""


class AudioError(Exception):
    """Base class for audio I/O and format errors."""


class UnreadableFileError(AudioError):
    """File missing, truncated, or not a RIFF/WAVE container."""


class UnsupportedFormatError(AudioError):
    """WAV codec or layout this reader does not handle."""


class UnsupportedRateError(AudioError):
    """Source sample rate zero or below the supported minimum."""
