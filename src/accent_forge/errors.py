"""Exception types shared across the pipeline."""


class AccentForgeError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedAudioError(AccentForgeError, ValueError):
    """Audio input violates the supported format (PCM16 mono, 8/16 kHz)."""


class FormatError(AccentForgeError, ValueError):
    """A binary artifact is corrupt or has the wrong magic."""


class LabelParseError(AccentForgeError, ValueError):
    """A label file line could not be parsed."""


class ConfigError(AccentForgeError, ValueError):
    """Invalid or inconsistent pipeline configuration."""


class NoEvidenceError(AccentForgeError, ValueError):
    """An utterance has no frames for any scored vowel after thresholding."""


class MissingPrerequisiteError(AccentForgeError, RuntimeError):
    """A stage was run before the stage that produces its inputs."""
