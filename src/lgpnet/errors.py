"""Exception types shared across the package."""


class LgpnetError(Exception):
    """Base class for all package errors."""


class FormatError(LgpnetError):
    """A binary file (WAV, GMM model, checkpoint) is malformed or has a bad version."""


class UnsupportedAudioError(LgpnetError):
    """The audio file is valid but not in the supported mono PCM subset."""


class ProtocolError(LgpnetError):
    """A protocol or score file line cannot be parsed."""


class ManifestError(LgpnetError):
    """Manifest construction failed (missing audio, duplicate ids, ...)."""


class ShapeError(LgpnetError):
    """Array dimensions do not match what an operation requires."""


class ConfigError(LgpnetError):
    """Invalid configuration value or config file."""


class NonFiniteLossError(LgpnetError):
    """Training produced a NaN or infinite loss."""
